package docscheck

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// rmServerCallers are the only files that may call live.NewRMServer, each
// with its reason: the one RM start-up (live.StartRM), and the benchmark
// harness's own cluster. No test of RMServer itself needs a server that
// Local cannot give it, so none is listed.
var rmServerCallers = map[string]string{
	"bench/cluster.go":      "the benchmark harness stands up its own cluster (ROADMAP item 1 moves it onto live.Local)",
	"internal/live/node.go": "live.StartRM, the one RM start-up rmd and live.Local run",
}

// mmServerCallers are the only files that may call live.NewMMServer or
// live.NewMMShard, each with its reason.
var mmServerCallers = map[string]string{
	"bench/cluster.go":                 "the benchmark harness stands up its own cluster (ROADMAP item 1 moves it onto live.Local)",
	"bench/micro.go":                   "the MM lookup micro-benchmark serves a bare Manager over TCP",
	"internal/live/node.go":            "live.StartMM, the one metadata-plane start-up mmd and live.Local run",
	"internal/live/live_test.go":       "TestLiveReplicationRefusalText serves a bare Manager it fills by hand",
	"internal/live/shardgroup_test.go": "tcpGroup moves shard liveness by hand with no beat loop, and a /stats test drives one member's clock",
}

// daemonForbidden are the calls a daemon leaves to live.StartRM and
// live.StartMM: building the RM, its disk or a server, joining a group,
// registering, and starting a loop. A daemon parses its flags into a spec
// and starts a node.
var daemonForbidden = []string{
	"rm.New", "vdisk.New", "NewRMServer", "NewMMServer", "NewMMShard",
	"DialPeers", "Register", "SetDirectory",
	"StartHeartbeats", "StartLeaseSweeper", "StartLivenessSweeper", "StartShardBeats",
}

// TestOneNodeWiring walks every Go file in the module. It fails on a call
// of NewRMServer outside rmServerCallers, or of NewMMServer or NewMMShard
// outside mmServerCallers: each such call is one more hand-written copy of
// a node's start-up — disk, rm.New, server, registration at the served
// address, loops — that live.StartRM and live.StartMM own. It fails when a
// listed file no longer makes the call, so the lists cannot go stale, and
// when cmd/rmd or cmd/mmd makes any daemonForbidden call.
func TestOneNodeWiring(t *testing.T) {
	root := filepath.Join("..", "..")
	seen := map[string]map[string]bool{"rm": {}, "mm": {}}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		calls := callLines(t, path)
		for _, c := range []struct {
			plane   string
			names   []string
			allowed map[string]string
		}{
			{"rm", []string{"NewRMServer"}, rmServerCallers},
			{"mm", []string{"NewMMServer", "NewMMShard"}, mmServerCallers},
		} {
			for _, name := range c.names {
				for _, line := range calls[name] {
					seen[c.plane][rel] = true
					if _, ok := c.allowed[rel]; !ok {
						t.Errorf("%s:%d calls %s: start the node through live.StartRM or live.StartMM", rel, line, name)
					}
				}
			}
		}
		if strings.HasPrefix(rel, "cmd/rmd/") || strings.HasPrefix(rel, "cmd/mmd/") {
			for _, name := range daemonForbidden {
				for _, line := range calls[name] {
					t.Errorf("%s:%d calls %s: a daemon fills a spec and starts its node", rel, line, name)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for plane, allowed := range map[string]map[string]string{"rm": rmServerCallers, "mm": mmServerCallers} {
		for f := range allowed {
			if !seen[plane][f] {
				t.Errorf("%s is allowed to start an %s server but no longer does: drop it from the list", f, plane)
			}
		}
	}
}

// callLines returns the line numbers of every call in one Go source
// file, keyed by the called function or method's name and, for a call
// through a package or value name, by "name.Func" too.
func callLines(t *testing.T, path string) map[string][]int {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, 0)
	if err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	lines := make(map[string][]int)
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		line := fset.Position(call.Pos()).Line
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			lines[fun.Name] = append(lines[fun.Name], line)
		case *ast.SelectorExpr:
			lines[fun.Sel.Name] = append(lines[fun.Sel.Name], line)
			if x, ok := fun.X.(*ast.Ident); ok {
				key := x.Name + "." + fun.Sel.Name
				lines[key] = append(lines[key], line)
			}
		}
		return true
	})
	return lines
}
