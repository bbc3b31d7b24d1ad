package docscheck

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// exportAllowlist holds the exported names under internal/ that no program
// calls yet, each with the ROADMAP item that will call it or the
// bench/README.md pin that keeps it. Keys are spelled as the scan prints
// them: the package path below internal/, then the type, then the method.
// "Might be useful" is not a reason.
var exportAllowlist = map[string]string{
	"blkio.Controller.Stats":        "item 9: GET /state reports each RM's assured and borrowed bytes from it",
	"blkio.WithClock":               "item 7(c): the live glue's virtual clock reaches the throttle through it",
	"blkio.WithSleep":               "item 7(c): the virtual clock's sleep, beside WithClock",
	"dfsc.Client.MetaCache":         "item 7(c): the way to a client's lease cache and its clock hook",
	"dfsc.MetaCache.SetClock":       "item 7(c): the lease cache's clock hook",
	"experiments.MeanStderr":        "item 10(a): qosbench prints every table as mean ± SE",
	"faults.Script.Fired":           "item 2(c): a failing seed's repro names the schedule rules that fired",
	"live.RMClient.Keepalive":       "item 4: a Reader idle past half a TTL keeps its lease alive, or this leaves",
	"mm.ShardedManager.KillShard":   "item 2(b): the DES fault schedule kills a shard",
	"mm.ShardedManager.ReviveShard": "item 2(b): the DES fault schedule revives a shard",
	"mm.ShardedManager.SetClock":    "item 2(b): the sharded MM runs on the DES clock under a fault schedule",
	"mm.ShardedManager.Shard":       "item 8: the owner-set convergence invariant compares each shard's map",
}

// testOnlyPackage exists for tests alone, so the scan asks it for no
// caller: its RaceEnabled switch is set by a build tag, which no _test.go
// file can carry for every package at once.
const testOnlyPackage = "testenv"

// stdProbes are the interface shapes the standard library probes for with
// a type assertion on an anonymous interface (errors.Is/As/Unwrap,
// net.Error's Timeout and Temporary), so no named interface stands for
// them. A method of one of these shapes is called by the standard library.
const stdProbes = `package probes

type (
	unwrap      interface{ Unwrap() error }
	unwrapMulti interface{ Unwrap() []error }
	is          interface{ Is(error) bool }
	as          interface{ As(any) bool }
	timeout     interface{ Timeout() bool }
	temporary   interface{ Temporary() bool }
)
`

// scanFset positions every file the scans parse. The standard packages
// are type-checked from source once for the whole test binary and shared
// by every scan, which is most of a scan's cost.
var (
	scanFset    = token.NewFileSet()
	stdImporter = sync.OnceValue(func() types.Importer {
		return importer.ForCompiler(scanFset, "source", nil)
	})
)

// thisModule is this module, type-checked once for every scan that reads
// it; moduleExports is its export scan, shared by the tests that read it.
var (
	thisModule = sync.OnceValues(func() (*moduleLoad, error) {
		return loadModule(filepath.Join("..", ".."))
	})
	moduleExports = sync.OnceValues(func() ([]export, error) {
		l, err := thisModule()
		if err != nil {
			return nil, err
		}
		return scanExports(l)
	})
)

// TestEveryExportHasACaller fails on each exported func, method, type,
// const or var declared under internal/ that no non-test code of the
// module uses (cmd/, examples/, bench/ and the root package all count),
// unless exportAllowlist names it. Such a name is surface that only tests,
// or nothing, hold up: delete it, move it into the package's
// export_test.go when only that package's tests use it, or allowlist it
// with the ROADMAP item that will call it.
func TestEveryExportHasACaller(t *testing.T) {
	exports, err := moduleExports()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range uncalled(exports, exportAllowlist) {
		t.Error(p)
	}
	t.Logf("%d exported declarations under internal/, %d allowlisted", len(exports), len(exportAllowlist))
}

// TestExportAllowlistCurrent fails on an allowlist entry whose symbol has
// gained a non-test caller or no longer exists, and on one whose reason
// names neither a ROADMAP item nor a bench/README.md pin, so the list
// cannot go stale.
func TestExportAllowlistCurrent(t *testing.T) {
	exports, err := moduleExports()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range staleAllowed(exports, exportAllowlist) {
		t.Error(p)
	}
	for key, reason := range exportAllowlist {
		if !strings.Contains(reason, "item ") && !strings.Contains(reason, "bench/README.md") {
			t.Errorf("allowlisted %s: reason %q names no ROADMAP item and no bench/README.md pin", key, reason)
		}
	}
}

// export is one exported declaration under internal/.
type export struct {
	key  string // "mm.Manager.Lookup": package below internal/, type, name
	pos  token.Position
	used bool // some non-test code of the module uses it
}

// uncalled lists an error line for each export no non-test code uses and
// allow does not name.
func uncalled(exports []export, allow map[string]string) []string {
	var out []string
	for _, e := range exports {
		if _, ok := allow[e.key]; !ok && !e.used {
			out = append(out, fmt.Sprintf("%s:%d: %s has no non-test caller: delete it, move it into export_test.go, or allowlist it with the ROADMAP item that will call it",
				e.pos.Filename, e.pos.Line, e.key))
		}
	}
	return out
}

// staleAllowed lists an error line for each entry of allow that names an
// export some non-test code uses, or none at all.
func staleAllowed(exports []export, allow map[string]string) []string {
	byKey := make(map[string]export, len(exports))
	for _, e := range exports {
		byKey[e.key] = e
	}
	var out []string
	for key := range allow {
		e, ok := byKey[key]
		switch {
		case !ok:
			out = append(out, fmt.Sprintf("allowlisted %s no longer exists: drop it from exportAllowlist", key))
		case e.used:
			out = append(out, fmt.Sprintf("allowlisted %s has a non-test caller: drop it from exportAllowlist", key))
		}
	}
	sort.Strings(out)
	return out
}

// scanExports reports each exported declaration under the internal/ tree
// of the loaded module, sorted by key, with whether non-test code uses
// it.
//
// A use is any reference from outside the declaration itself: a func's
// own body, a type's spec and its methods. A method is
// also used when its receiver (or a pointer to it) satisfies an interface
// that names it and that method is called through the interface: an
// interface of the module whose method some non-test code calls, a named
// interface of a standard package the module imports (error, fmt.Stringer,
// io.Reader, heap.Interface, ...), or one of stdProbes. An interface
// method that nothing calls through its interface keeps no implementation
// alive.
func scanExports(l *moduleLoad) ([]export, error) {
	used := make(map[types.Object]bool)
	type ifaceMethod struct {
		iface *types.Interface
		name  string
	}
	var called []ifaceMethod
	calledSeen := make(map[*types.Func]bool)
	for _, info := range l.infos {
		for id, obj := range info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				fn = fn.Origin()
				obj = fn
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) && !calledSeen[fn] {
					calledSeen[fn] = true
					called = append(called, ifaceMethod{recv.Type().Underlying().(*types.Interface), fn.Name()})
				}
			}
			if !l.within(obj, id.Pos()) {
				used[obj] = true
			}
		}
	}
	std, err := stdInterfaces(l.stdImports)
	if err != nil {
		return nil, err
	}
	for _, iface := range std {
		for i := 0; i < iface.NumMethods(); i++ {
			called = append(called, ifaceMethod{iface, iface.Method(i).Name()})
		}
	}
	satisfiesCalled := func(named *types.Named, name string) bool {
		for _, c := range called {
			if c.name == name && (types.Implements(named, c.iface) || types.Implements(types.NewPointer(named), c.iface)) {
				return true
			}
		}
		return false
	}

	var out []export
	add := func(key string, obj types.Object, ok bool) {
		out = append(out, export{key: key, pos: l.fset.Position(obj.Pos()), used: ok})
	}
	for path, pkg := range l.pkgs {
		rel, ok := strings.CutPrefix(path, l.modPath+"/internal/")
		if !ok || rel == testOnlyPackage {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				add(rel+"."+name, obj, used[obj])
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			if iface, ok := named.Underlying().(*types.Interface); ok {
				for i := 0; i < iface.NumExplicitMethods(); i++ {
					if m := iface.ExplicitMethod(i); m.Exported() {
						add(rel+"."+name+"."+m.Name(), m, used[m])
					}
				}
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					add(rel+"."+name+"."+m.Name(), m, used[m] || satisfiesCalled(named, m.Name()))
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out, nil
}

// stdInterfaces returns the method-set interfaces the standard library
// calls through: error, every named non-generic interface declared by the
// standard packages in imports, and stdProbes.
func stdInterfaces(imports map[string]*types.Package) ([]*types.Interface, error) {
	f, err := parser.ParseFile(scanFset, "probes.go", stdProbes, 0)
	if err != nil {
		return nil, err
	}
	probes, err := (&types.Config{}).Check("probes", scanFset, []*ast.File{f}, nil)
	if err != nil {
		return nil, err
	}
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	pkgs := []*types.Package{probes}
	for _, pkg := range imports {
		pkgs = append(pkgs, pkg)
	}
	for _, pkg := range pkgs {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue
			}
			if iface, ok := named.Underlying().(*types.Interface); ok && iface.IsMethodSet() && iface.NumMethods() > 0 {
				out = append(out, iface)
			}
		}
	}
	return out, nil
}

// moduleLoad is a type-checked load of one module's non-test packages.
type moduleLoad struct {
	fset       *token.FileSet
	root       string
	modPath    string
	pkgs       map[string]*types.Package // by import path
	infos      []*types.Info
	files      [][]*ast.File             // each package's, beside its info
	own        map[types.Object][]span   // the source each declaration spans
	stdImports map[string]*types.Package // standard packages module code imports
}

func loadModule(root string) (*moduleLoad, error) {
	modPath, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	l := &moduleLoad{
		fset:       scanFset,
		root:       root,
		modPath:    modPath,
		pkgs:       make(map[string]*types.Package),
		stdImports: make(map[string]*types.Package),
		own:        make(map[types.Object][]span),
	}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(path, 0)
		var none *build.NoGoError
		switch {
		case errors.As(err, &none):
			return nil
		case err != nil:
			return err
		case len(bp.GoFiles) == 0:
			return nil // test files alone: no package a program imports
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		importPath := modPath
		if rel != "." {
			importPath += "/" + filepath.ToSlash(rel)
		}
		_, err = l.load(importPath)
		return err
	})
	if err != nil {
		return nil, err
	}
	return l, nil
}

// modulePath reads the module line of root's go.mod.
func modulePath(root string) (string, error) {
	raw, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if p, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(p), nil
		}
	}
	return "", fmt.Errorf("%s/go.mod has no module line", root)
}

// load type-checks the module package at importPath from its non-test
// files, after the module packages it imports.
func (l *moduleLoad) load(importPath string) (*types.Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		return pkg, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(importPath, l.modPath), "/")))
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	files := make([]*ast.File, 0, len(bp.GoFiles))
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: importerFunc(l.importPackage)}
	pkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", importPath, err)
	}
	l.pkgs[importPath] = pkg
	l.infos = append(l.infos, info)
	l.files = append(l.files, files)
	for _, f := range files {
		l.recordSpans(f, info)
	}
	return pkg, nil
}

// span is a range of source positions.
type span struct{ pos, end token.Pos }

// recordSpans notes the source each func and type that f declares spans:
// a func its declaration, a type its spec and each of its methods.
func (l *moduleLoad) recordSpans(f *ast.File, info *types.Info) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			s := span{d.Pos(), d.End()}
			l.own[info.Defs[d.Name]] = append(l.own[info.Defs[d.Name]], s)
			if d.Recv != nil {
				if tn := info.Uses[recvIdent(d.Recv.List[0].Type)]; tn != nil {
					l.own[tn] = append(l.own[tn], s)
				}
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				if ts, ok := spec.(*ast.TypeSpec); ok {
					obj := info.Defs[ts.Name]
					l.own[obj] = append(l.own[obj], span{ts.Pos(), ts.End()})
				}
			}
		}
	}
}

// within reports whether pos lies inside obj's own declaration.
func (l *moduleLoad) within(obj types.Object, pos token.Pos) bool {
	for _, s := range l.own[obj] {
		if s.pos <= pos && pos < s.end {
			return true
		}
	}
	return false
}

// recvIdent returns the type name of a method receiver: T in T, *T, T[P].
func recvIdent(e ast.Expr) *ast.Ident {
	switch v := e.(type) {
	case *ast.StarExpr:
		return recvIdent(v.X)
	case *ast.ParenExpr:
		return recvIdent(v.X)
	case *ast.IndexExpr:
		return recvIdent(v.X)
	case *ast.IndexListExpr:
		return recvIdent(v.X)
	case *ast.Ident:
		return v
	}
	return nil
}

func (l *moduleLoad) importPackage(path string) (*types.Package, error) {
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		return l.load(path)
	}
	pkg, err := stdImporter().Import(path)
	if err == nil {
		l.stdImports[path] = pkg
	}
	return pkg, err
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// synthModule is a module small enough to read at a glance, with one of
// each thing the scan must get right. Its expected hits are the unused
// function, the type only its own method refers to, the interface method
// nothing calls through Shape, and that method's only implementation.
var synthModule = map[string]string{
	"go.mod": "module synth\n\ngo 1.22\n",
	"internal/lib/lib.go": `package lib

import (
	"container/heap"
	"fmt"
)

func Unused() {}

func Used() int { return 1 }

// Shape is called through for Area only.
type Shape interface {
	Area() float64
	Perimeter() float64
}

type Square struct{ Side float64 }

func (q Square) Area() float64      { return q.Side * q.Side }
func (q Square) Perimeter() float64 { return 4 * q.Side }

func Total(shapes []Shape) float64 {
	var sum float64
	for _, s := range shapes {
		sum += s.Area()
	}
	return sum
}

// Name is a fmt.Stringer.
type Name string

// Dead is referenced only by its own method, which is not a use.
type Dead struct{ next *Dead }

func (d *Dead) String() string { return fmt.Sprint(d.next) }

func (n Name) String() string { return string(n) }

// WrapErr is an error that errors.Unwrap sees through.
type WrapErr struct{ Err error }

func (w *WrapErr) Error() string { return fmt.Sprint("wrapped: ", w.Err) }
func (w *WrapErr) Unwrap() error { return w.Err }

// IntHeap is a heap.Interface.
type IntHeap []int

func (h IntHeap) Len() int           { return len(h) }
func (h IntHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h IntHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *IntHeap) Push(x any)        { *h = append(*h, x.(int)) }
func (h *IntHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

func Smallest(xs []int) int {
	h := IntHeap(xs)
	heap.Init(&h)
	return heap.Pop(&h).(int)
}
`,
	"internal/lib/lib_test.go": `package lib

import "testing"

func TestUnused(t *testing.T) { Unused() }
`,
	"cmd/app/main.go": `package main

import (
	"errors"
	"fmt"

	"synth/internal/lib"
)

func main() {
	fmt.Println(lib.Used(), lib.Name("n"), lib.Smallest([]int{3, 1}),
		lib.Total([]lib.Shape{lib.Square{Side: 1}}),
		errors.Unwrap(&lib.WrapErr{Err: errors.New("e")}))
}
`,
}

// loadSynth writes the module files (path → source) into a temporary
// directory and loads it.
func loadSynth(t *testing.T, files map[string]string) *moduleLoad {
	t.Helper()
	root := t.TempDir()
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, err := loadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestExportScanTeeth runs the scan over synthModule: it must flag the
// unused export (whatever its tests call), the type referenced only from
// its own declaration, and the interface method that nothing calls, with
// its implementation, and pass the String, Error,
// Unwrap and heap.Interface methods that only the standard library calls.
// It must also fail on an allowlist entry whose symbol has a non-test
// caller or does not exist, and accept one whose symbol has none.
func TestExportScanTeeth(t *testing.T) {
	exports, err := scanExports(loadSynth(t, synthModule))
	if err != nil {
		t.Fatal(err)
	}
	var hits []string
	for _, e := range exports {
		if !e.used {
			hits = append(hits, e.key)
		}
	}
	want := []string{"lib.Dead", "lib.Shape.Perimeter", "lib.Square.Perimeter", "lib.Unused"}
	if strings.Join(hits, " ") != strings.Join(want, " ") {
		t.Fatalf("unused exports = %v, want %v", hits, want)
	}
	if got := uncalled(exports, map[string]string{"lib.Unused": "item 0"}); len(got) != 3 {
		t.Errorf("allowlisting lib.Unused left %d hits, want three: %v", len(got), got)
	}

	stale := staleAllowed(exports, map[string]string{
		"lib.Unused":  "item 0: no caller, so the entry holds",
		"lib.Used":    "item 0: gained a caller",
		"lib.Missing": "item 0: never existed",
	})
	if len(stale) != 2 || !strings.Contains(stale[0], "lib.Missing no longer exists") ||
		!strings.Contains(stale[1], "lib.Used has a non-test caller") {
		t.Errorf("stale allowlist entries reported as %q, want lib.Missing and lib.Used", stale)
	}
}
