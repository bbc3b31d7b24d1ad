// Package docscheck cross-checks the operator docs against the code: every
// flag registered by the three daemons and every dfsqos_* telemetry series
// registered anywhere in the tree must appear in docs/OPERATIONS.md, and the
// multi-tenant surface (quota flags, per-tenant metrics, the noisy-neighbor
// gate) must appear in docs/TENANCY.md. The tests fail with the exact
// missing name, so adding a flag or a metric without documenting it breaks
// CI.
package docscheck

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"dfsqos/internal/blkio"
	"dfsqos/internal/dfsc"
	"dfsqos/internal/faults"
	"dfsqos/internal/live"
	"dfsqos/internal/mm"
	"dfsqos/internal/rm"
	"dfsqos/internal/telemetry"
	"dfsqos/internal/tenant"
	"dfsqos/internal/trace"
	"dfsqos/internal/transport"
	"dfsqos/internal/wire"
)

// registeredNames lists every family reg serves, read off the "# TYPE"
// lines of its exposition: the names an operator scrapes.
func registeredNames(t *testing.T, reg *telemetry.Registry) []string {
	t.Helper()
	var text strings.Builder
	if err := reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, line := range strings.Split(text.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			names = append(names, strings.Fields(rest)[0])
		}
	}
	return names
}

func readOperationsDoc(t *testing.T) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "docs", "OPERATIONS.md"))
	if err != nil {
		t.Fatalf("docs/OPERATIONS.md: %v", err)
	}
	return string(raw)
}

// TestOperationsDocCoversAllMetrics registers every metric family the tree
// knows how to construct onto one registry and demands each resulting
// dfsqos_* series name appears (backticked) in the runbook's catalog.
func TestOperationsDocCoversAllMetrics(t *testing.T) {
	doc := readOperationsDoc(t)

	reg := telemetry.NewRegistry()
	wire.RegisterCodecMetrics(reg)
	defer wire.RegisterCodecMetrics(nil)
	transport.NewMetrics(reg)
	live.NewServerMetrics(reg, "mm")
	live.NewCopierMetrics(reg)
	live.NewMMRouteMetrics(reg)
	mm.NewMetrics(reg)
	rm.NewMetrics(reg)
	blkio.NewMetrics(reg)
	tenant.NewMetrics(reg)
	dfsc.NewMetrics(reg)
	faults.NewMetrics(reg)
	trace.New(trace.Options{Actor: "docscheck", Registry: reg})

	names := registeredNames(t, reg)
	if len(names) < 40 {
		t.Fatalf("registry enumeration looks broken: only %d series", len(names))
	}
	sort.Strings(names)
	for _, name := range names {
		if !strings.Contains(doc, "`"+name+"`") {
			t.Errorf("metric %s is registered but missing from docs/OPERATIONS.md", name)
		}
	}
}

// TestOperationsDocCoversAllFlags parses the three daemon mains plus the
// shared transport flag block and demands every registered flag name appears
// (backticked, with its dash) in the runbook's flag tables.
func TestOperationsDocCoversAllFlags(t *testing.T) {
	doc := readOperationsDoc(t)

	files := []string{
		filepath.Join("..", "..", "cmd", "mmd", "main.go"),
		filepath.Join("..", "..", "cmd", "rmd", "main.go"),
		filepath.Join("..", "..", "cmd", "dfsc", "main.go"),
		filepath.Join("..", "..", "cmd", "dfsqos-scenario", "main.go"),
		filepath.Join("..", "..", "internal", "transport", "client.go"),
	}
	flags := map[string][]string{} // flag name -> files registering it
	for _, path := range files {
		for _, name := range flagNames(t, path) {
			flags[name] = append(flags[name], filepath.Base(filepath.Dir(path))+"/"+filepath.Base(path))
		}
	}
	if len(flags) < 20 {
		t.Fatalf("flag extraction looks broken: only %d distinct flags found", len(flags))
	}
	names := make([]string, 0, len(flags))
	for name := range flags {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !strings.Contains(doc, "`-"+name+"`") {
			t.Errorf("flag -%s (registered in %s) is missing from docs/OPERATIONS.md",
				name, strings.Join(flags[name], ", "))
		}
	}
}

// flagNames extracts the names of all flags registered in one Go source
// file. It recognises the value-returning forms (flag.String, fs.Int, ...)
// where the name is argument 0, and the *Var forms (fs.DurationVar, ...)
// where the name is argument 1.
func flagNames(t *testing.T, path string) []string {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, 0)
	if err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	var names []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		method := sel.Sel.Name
		var nameArg int
		switch method {
		case "String", "Bool", "Int", "Int64", "Uint", "Uint64", "Float64", "Duration":
			nameArg = 0
		case "StringVar", "BoolVar", "IntVar", "Int64Var", "UintVar", "Uint64Var", "Float64Var", "DurationVar":
			nameArg = 1
		default:
			return true
		}
		// Only count calls on a *flag.FlagSet-looking receiver: the flag
		// package itself or an identifier (fs, flagSet, ...). This skips
		// unrelated methods like time.Duration or strconv helpers because
		// those never take a string literal in the name slot.
		if len(call.Args) <= nameArg {
			return true
		}
		lit, ok := call.Args[nameArg].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		name, err := strconv.Unquote(lit.Value)
		if err != nil || name == "" {
			return true
		}
		// Heuristic guard: flag names are lowercase words joined by dashes.
		for _, r := range name {
			if !(r == '-' || (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9')) {
				return true
			}
		}
		names = append(names, name)
		return true
	})
	return names
}
