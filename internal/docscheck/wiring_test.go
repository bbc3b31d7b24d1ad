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

// rmServerCallers are the only files that may call live.NewRMServer: the
// one in-process cluster (live.Local), the daemon, and the benchmark
// harness's own cluster. No test of RMServer itself needs a server that
// Local cannot give it, so none is listed.
var rmServerCallers = []string{
	"bench/cluster.go",
	"cmd/rmd/main.go",
	"internal/live/local.go",
}

// TestOneRMWiring walks every Go file in the module and fails on a call of
// NewRMServer outside rmServerCallers: each such call is one more
// hand-written copy of the RM start-up — vdisk, rm.New, server,
// registration at the served address — that live.Local owns. It also
// fails when a listed file no longer calls it, so the list cannot go
// stale.
func TestOneRMWiring(t *testing.T) {
	root := filepath.Join("..", "..")
	allowed := make(map[string]bool)
	for _, f := range rmServerCallers {
		allowed[f] = true
	}
	seen := make(map[string]bool)
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
		for _, line := range callLines(t, path, "NewRMServer") {
			seen[rel] = true
			if !allowed[rel] {
				t.Errorf("%s:%d calls NewRMServer: stand the RM up through live.Local", rel, line)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rmServerCallers {
		if !seen[f] {
			t.Errorf("%s is allowed to call NewRMServer but no longer does: drop it from rmServerCallers", f)
		}
	}
}

// callLines returns the line numbers of every call of a function
// or method named name in one Go source file.
func callLines(t *testing.T, path, name string) []int {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, 0)
	if err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	var lines []int
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			if fun.Name == name {
				lines = append(lines, fset.Position(call.Pos()).Line)
			}
		case *ast.SelectorExpr:
			if fun.Sel.Name == name {
				lines = append(lines, fset.Position(call.Pos()).Line)
			}
		}
		return true
	})
	return lines
}
