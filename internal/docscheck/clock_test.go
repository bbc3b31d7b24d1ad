package docscheck

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"testing"
)

// desRequestPath lists, per file, the functions every DES request runs
// through: the arrival callback the cluster feeds the scheduler, the
// client's three-phase flow and close, the RM's bid, open and close, and
// the scheduler's step. A request takes no virtual time, so none of them
// may read the wall clock; telemetry that wants wall time reads it in a
// helper that a nil registry leaves unread. A "Type.Method" entry is a
// method, and "Type.Method/Call" the function literals passed to the
// calls of Call inside it.
var desRequestPath = map[string][]string{
	"internal/cluster/cluster.go": {"Cluster.RunWithObserver/Feed"},
	"internal/dfsc/dfsc.go": {
		"Client.send", "Client.negotiateLanes", "Client.collectBids",
		"Client.admit", "Client.scheduleClose",
	},
	"internal/rm/rm.go":           {"RM.HandleCFP", "RM.Open", "RM.Close"},
	"internal/simtime/simtime.go": {"Scheduler.step"},
}

// TestDESRequestPathReadsNoClock fails on a time.Now or time.Since call
// in the body of a function on desRequestPath, and on an entry that names
// no function, so the list cannot go stale.
func TestDESRequestPathReadsNoClock(t *testing.T) {
	root := filepath.Join("..", "..")
	for file, funcs := range desRequestPath {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, filepath.Join(root, file), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		timePkg := ""
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "time" {
				timePkg = "time"
				if imp.Name != nil {
					timePkg = imp.Name.Name
				}
			}
		}
		bodies := make(map[string][]ast.Node)
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Body == nil {
				continue
			}
			name := recvIdent(fn.Recv.List[0].Type).Name + "." + fn.Name.Name
			bodies[name] = append(bodies[name], fn.Body)
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
						for _, arg := range call.Args {
							if lit, ok := arg.(*ast.FuncLit); ok {
								key := name + "/" + sel.Sel.Name
								bodies[key] = append(bodies[key], lit.Body)
							}
						}
					}
				}
				return true
			})
		}
		for _, name := range funcs {
			if len(bodies[name]) == 0 {
				t.Errorf("%s: no %s to check: update desRequestPath", file, name)
				continue
			}
			for _, body := range bodies[name] {
				ast.Inspect(body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok || timePkg == "" {
						return true
					}
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
						if x, ok := sel.X.(*ast.Ident); ok && x.Name == timePkg && (sel.Sel.Name == "Now" || sel.Sel.Name == "Since") {
							t.Errorf("%s:%d: %s reads the wall clock (%s.%s) on the DES request path",
								file, fset.Position(call.Pos()).Line, name, timePkg, sel.Sel.Name)
						}
					}
					return true
				})
			}
		}
	}
}
