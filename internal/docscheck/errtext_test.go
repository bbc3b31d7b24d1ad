package docscheck

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// errorTexts names the fields that carry a refusal's text beside its
// code, each as the package below the module, the type and the field. A
// decision made on one of them, or on an error's Error(), reads prose the
// code already says in one byte.
var errorTexts = [][3]string{
	{"internal/wire", "RemoteError", "Text"},
	{"internal/ecnp", "OpenResult", "Reason"},
	{"internal/dfsc", "Outcome", "Reason"},
}

// TestNoErrorTextMatching fails on non-test code of the module that
// decides on an error's text: x.Error(), a wire.RemoteError's Text, or an
// ecnp.OpenResult's or dfsc.Outcome's Reason as an operand of == or !=,
// as a switch tag, or as an argument to a function of package strings.
// Why a call was refused is its ecnp.Refusal code, matched with errors.Is
// or compared as a value; the text is for people.
func TestNoErrorTextMatching(t *testing.T) {
	l, err := thisModule()
	if err != nil {
		t.Fatal(err)
	}
	for _, hit := range errorTextMatches(l) {
		t.Error(hit)
	}
}

// errorTextMatches lists "file:line: what" for each place non-test code of
// the loaded module decides on error text.
func errorTextMatches(l *moduleLoad) []string {
	var out []string
	for i, info := range l.infos {
		isText := func(e ast.Expr) bool { return l.errorText(info, e) }
		report := func(at token.Pos, how string) {
			out = append(out, fmt.Sprintf("%s: error text %s: decide on the ecnp.Refusal code instead", l.fset.Position(at), how))
		}
		for _, f := range l.files[i] {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.BinaryExpr:
					if (n.Op == token.EQL || n.Op == token.NEQ) && (isText(n.X) || isText(n.Y)) {
						report(n.OpPos, "compared with "+n.Op.String())
					}
				case *ast.SwitchStmt:
					if n.Tag != nil && isText(n.Tag) {
						report(n.Tag.Pos(), "switched on")
					}
				case *ast.CallExpr:
					if fn, ok := n.Fun.(*ast.SelectorExpr); ok && usesPackage(info, fn.X, "strings") {
						for _, arg := range n.Args {
							if isText(arg) {
								report(arg.Pos(), "passed to strings."+fn.Sel.Name)
							}
						}
					}
				}
				return true
			})
		}
	}
	return out
}

// errorText reports whether e is x.Error() on some error x, or one of the
// errorTexts fields.
func (l *moduleLoad) errorText(info *types.Info, e ast.Expr) bool {
	e = ast.Unparen(e)
	if call, ok := e.(*ast.CallExpr); ok && len(call.Args) == 0 {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Error" || info.Selections[sel] == nil {
			return false
		}
		sig := info.Selections[sel].Type().(*types.Signature)
		return sig.Params().Len() == 0 && sig.Results().Len() == 1 &&
			types.Identical(sig.Results().At(0).Type(), types.Typ[types.String])
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || info.Selections[sel] == nil || info.Selections[sel].Kind() != types.FieldVal {
		return false
	}
	recv := info.Selections[sel].Recv()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	for _, txt := range errorTexts {
		if named.Obj().Pkg().Path() == l.modPath+"/"+txt[0] && named.Obj().Name() == txt[1] && sel.Sel.Name == txt[2] {
			return true
		}
	}
	return false
}

// usesPackage reports whether e names the imported package at path.
func usesPackage(info *types.Info, e ast.Expr, path string) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	pkg, ok := info.Uses[id].(*types.PkgName)
	return ok && pkg.Imported().Path() == path
}

// errTextModule is a module with each way of deciding on error text the
// scan must flag, and the uses of the same text it must leave alone.
var errTextModule = map[string]string{
	"go.mod": "module synth\n\ngo 1.22\n",
	"internal/wire/wire.go": `package wire

type RemoteError struct{ Text string }

func (e RemoteError) Error() string { return e.Text }
`,
	"internal/dfsc/dfsc.go": `package dfsc

type Outcome struct{ Reason string }
`,
	"cmd/app/main.go": `package main

import (
	"errors"
	"fmt"
	"strings"

	"synth/internal/dfsc"
	"synth/internal/wire"
)

type note struct{ Text string }

func main() {
	err := errors.New("mm: file already at its replica cap")
	re := wire.RemoteError{Text: "cap"}
	out := dfsc.Outcome{Reason: "refused"}
	if strings.Contains(err.Error(), "cap") { // hit
		fmt.Println(err.Error(), re.Text, out.Reason)
	}
	if (re.Error()) == "cap" || out.Reason != "" { // two hits
		return
	}
	switch re.Text { // hit
	case "cap":
	}
	_ = strings.HasPrefix(out.Reason, "no ") // hit
	_ = strings.ToUpper(note{Text: "x"}.Text) + out.Reason
	var sb strings.Builder
	sb.WriteString(err.Error())
}
`,
	"cmd/app/main_test.go": `package main

import (
	"errors"
	"strings"
	"testing"
)

func TestText(t *testing.T) {
	if !strings.Contains(errors.New("x").Error(), "x") {
		t.Fatal()
	}
}
`,
}

// TestErrorTextScanTeeth runs the scan over errTextModule: it must flag
// the five decisions on error text in main.go, by line, and nothing else —
// not the text printed or written, not a field of the same name on another
// type, and not a test.
func TestErrorTextScanTeeth(t *testing.T) {
	hits := errorTextMatches(loadSynth(t, errTextModule))
	var lines []string
	for _, h := range hits {
		file, rest, _ := strings.Cut(h, ".go:")
		line, _, _ := strings.Cut(rest, ":")
		lines = append(lines, file[strings.LastIndex(file, "/")+1:]+":"+line)
	}
	want := []string{"main:18", "main:21", "main:21", "main:24", "main:27"}
	if strings.Join(lines, " ") != strings.Join(want, " ") {
		t.Fatalf("error-text hits at %v, want %v:\n%s", lines, want, strings.Join(hits, "\n"))
	}
}
