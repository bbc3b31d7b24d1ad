package docscheck

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/types"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestDocReferencesResolve holds README.md, DESIGN.md, EXPERIMENTS.md and
// docs/*.md to the tree: every backticked pkg.Name or pkg.Type.Member of
// the module (test functions count), every repo path and markdown link,
// every `make` target, every DESIGN, ARCHITECTURE or TENANCY §N citation
// in those docs and in the module's Go comments must resolve, and
// DESIGN §3 must list exactly the packages under internal/ and cmd/.
func TestDocReferencesResolve(t *testing.T) {
	l, err := thisModule()
	if err != nil {
		t.Fatal(err)
	}
	probs, err := unresolvedRefs(l)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range probs {
		t.Error(p)
	}
}

// citedDocs maps the name a § citation uses to the doc it cites.
var citedDocs = map[string]string{
	"DESIGN":       "DESIGN.md",
	"ARCHITECTURE": "docs/ARCHITECTURE.md",
	"TENANCY":      "docs/TENANCY.md",
}

var (
	// inlineCode is a markdown code span; fenced blocks are taken out first.
	inlineCode = regexp.MustCompile("`([^`\n]+)`")
	fence      = regexp.MustCompile("(?ms)^```[^\n]*\n(.*?)^```")
	mdLink     = regexp.MustCompile(`\]\(([^)\s]+)\)`)
	// symbolRef is a dotted name whose second part is exported: a lowercase
	// second part (rm.stream, wire.checksum_mb_per_s, mm.shard.mirror) names
	// a span, a bench metric or a fault point, not a declaration.
	symbolRef = regexp.MustCompile(`(?:^|[^\w.])([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.([A-Za-z_]\w*))?`)
	makeRef   = regexp.MustCompile(`(?:^|[^\w-])make\s+([a-z][\w-]*)`)
	makeLine  = regexp.MustCompile(`(?m)^\s*(?:\$\s*)?make\s+([a-z][\w-]*)`)
	namedDoc  = regexp.MustCompile(`[A-Z][A-Za-z]*(\.md)?\s*$`)
	sectRef   = regexp.MustCompile(`\b(DESIGN|ARCHITECTURE|TENANCY)(?:\.md)?\s*§\s*(\d+)`)
	ownSect   = regexp.MustCompile(`§\s*(\d+)`)
	heading   = regexp.MustCompile(`(?m)^## (\d+)\. `)
	pathTok   = regexp.MustCompile(`^[\w.\-/*{},]+$`)
	lineSuf   = regexp.MustCompile(`:\d+([–-]\d+)?$`)
	mapEntry  = regexp.MustCompile(`^(?:internal|cmd)/[\w-]+$`)
	makeRule  = regexp.MustCompile(`(?m)^([\w-]+):([^=]|$)`)
	pathExt   = []string{".go", ".md", ".sh", ".json", ".yml", ".mod"}
)

// docTree is what a doc reference resolves against.
type docTree struct {
	l        *moduleLoad
	pkgs     map[string][]*types.Package // non-main module packages by name
	testSyms map[string]bool             // "pkg.Name", "pkg.Type.Method" declared in _test.go files
	testPkgs map[string]bool             // names of the packages _test.go files belong to
	targets  map[string]bool             // Makefile rules
	sections map[string]map[int]bool     // cited doc → its "## N." headings
	dirs     map[string]bool             // internal/… and cmd/… directories holding Go files
	goFiles  []string                    // every Go file, relative to the root
	top      map[string]bool             // the repo root's entries
}

// unresolvedRefs lists an error line for each reference in the loaded
// module's docs (and § citation in its Go files) that the tree does not
// resolve, and for each package DESIGN §3 lists wrongly or leaves out.
func unresolvedRefs(l *moduleLoad) ([]string, error) {
	d, err := newDocTree(l)
	if err != nil {
		return nil, err
	}
	docs := []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}
	more, err := filepath.Glob(filepath.Join(l.root, "docs", "*.md"))
	if err != nil {
		return nil, err
	}
	for _, m := range more {
		docs = append(docs, "docs/"+filepath.Base(m))
	}
	var out []string
	for _, name := range docs {
		raw, err := os.ReadFile(filepath.Join(l.root, filepath.FromSlash(name)))
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, err
		}
		out = append(out, d.checkDoc(name, string(raw))...)
		if name == "DESIGN.md" {
			out = append(out, d.checkPackageMap(string(raw))...)
		}
	}
	for _, rel := range d.goFiles {
		raw, err := os.ReadFile(filepath.Join(l.root, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		out = append(out, d.checkCitations(rel, string(raw), "")...)
	}
	sort.Strings(out)
	return out, nil
}

func newDocTree(l *moduleLoad) (*docTree, error) {
	d := &docTree{
		l:        l,
		pkgs:     make(map[string][]*types.Package),
		testSyms: make(map[string]bool),
		testPkgs: make(map[string]bool),
		targets:  make(map[string]bool),
		sections: make(map[string]map[int]bool),
		dirs:     make(map[string]bool),
		top:      make(map[string]bool),
	}
	for _, pkg := range l.pkgs {
		if pkg.Name() != "main" {
			d.pkgs[pkg.Name()] = append(d.pkgs[pkg.Name()], pkg)
		}
	}
	if raw, err := os.ReadFile(filepath.Join(l.root, "Makefile")); err == nil {
		for _, m := range makeRule.FindAllStringSubmatch(string(raw), -1) {
			d.targets[m[1]] = true
		}
	}
	for cite, name := range citedDocs {
		d.sections[cite] = make(map[int]bool)
		raw, err := os.ReadFile(filepath.Join(l.root, filepath.FromSlash(name)))
		if err != nil {
			continue // a doc that is gone has no sections to cite
		}
		for _, m := range heading.FindAllStringSubmatch(string(raw), -1) {
			n, _ := strconv.Atoi(m[1])
			d.sections[cite][n] = true
		}
	}
	entries, err := os.ReadDir(l.root)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		d.top[e.Name()] = true
	}
	err = filepath.WalkDir(l.root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path != l.root && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		rel, _ := filepath.Rel(l.root, path)
		d.goFiles = append(d.goFiles, filepath.ToSlash(rel))
		if dir := filepath.ToSlash(filepath.Dir(rel)); strings.HasPrefix(dir, "internal/") || strings.HasPrefix(dir, "cmd/") {
			d.dirs[dir] = true
		}
		if strings.HasSuffix(path, "_test.go") {
			return d.addTestDecls(path)
		}
		return nil
	})
	return d, err
}

// addTestDecls records the top-level names a _test.go file declares under
// its package's name, so a doc may cite a test, a fuzz target or an
// export_test.go helper.
func (d *docTree) addTestDecls(path string) error {
	f, err := parser.ParseFile(scanFset, path, nil, parser.SkipObjectResolution)
	if err != nil {
		return err
	}
	pkg := strings.TrimSuffix(f.Name.Name, "_test")
	d.testPkgs[pkg] = true
	for _, decl := range f.Decls {
		switch v := decl.(type) {
		case *ast.FuncDecl:
			if v.Recv == nil {
				d.testSyms[pkg+"."+v.Name.Name] = true
			} else if id := recvIdent(v.Recv.List[0].Type); id != nil {
				d.testSyms[pkg+"."+id.Name+"."+v.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, spec := range v.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					d.testSyms[pkg+"."+s.Name.Name] = true
				case *ast.ValueSpec:
					for _, n := range s.Names {
						d.testSyms[pkg+"."+n.Name] = true
					}
				}
			}
		}
	}
	return nil
}

// resolves reports whether pkg.name, or pkg.name.member when member is not
// empty, names a declaration of a module package called pkg. known is
// false when no module package is called pkg.
func (d *docTree) resolves(pkg, name, member string) (ok, known bool) {
	key := pkg + "." + name
	if member != "" {
		key += "." + member
	}
	if d.testSyms[key] {
		return true, true
	}
	for _, p := range d.pkgs[pkg] {
		known = true
		obj := p.Scope().Lookup(name)
		if obj == nil {
			continue
		}
		if member == "" {
			return true, true
		}
		if _, isFunc := obj.(*types.Func); isFunc {
			continue
		}
		if m, _, _ := types.LookupFieldOrMethod(obj.Type(), true, p, member); m != nil {
			return true, true
		}
	}
	return false, known || d.testPkgs[pkg]
}

// checkDoc lists the unresolved references of one doc.
func (d *docTree) checkDoc(name, text string) []string {
	out := d.checkCitations(name, text, citedName(name))
	for _, m := range fence.FindAllStringSubmatchIndex(text, -1) {
		for _, t := range makeLine.FindAllStringSubmatch(text[m[2]:m[3]], -1) {
			out = append(out, d.checkTarget(name, lineOf(text, m[2]), t[1])...)
		}
	}
	prose := fence.ReplaceAllStringFunc(text, func(s string) string {
		return strings.Repeat("\n", strings.Count(s, "\n"))
	})
	for _, m := range inlineCode.FindAllStringSubmatchIndex(prose, -1) {
		span, line := prose[m[2]:m[3]], lineOf(prose, m[2])
		for _, s := range symbolRef.FindAllStringSubmatch(span, -1) {
			ok, known := d.resolves(s[1], s[2], s[3])
			if known && !ok {
				ref := strings.TrimRight(s[1]+"."+s[2]+"."+s[3], ".")
				out = append(out, fmt.Sprintf("%s:%d: `%s` resolves to no declaration of the module", name, line, ref))
			}
		}
		for _, t := range makeRef.FindAllStringSubmatch(span, -1) {
			out = append(out, d.checkTarget(name, line, t[1])...)
		}
		for _, tok := range strings.Fields(span) {
			out = append(out, d.checkPath(name, line, tok, "")...)
		}
	}
	for _, m := range mdLink.FindAllStringSubmatchIndex(prose, -1) {
		out = append(out, d.checkPath(name, lineOf(prose, m[2]), prose[m[2]:m[3]], filepath.Dir(name))...)
	}
	return out
}

// citedName is the name § citations use for the doc at path, or "" when
// no citation names it.
func citedName(path string) string {
	for cite, p := range citedDocs {
		if p == path {
			return cite
		}
	}
	return ""
}

// checkCitations lists the § citations in text that name no heading of
// their doc. A bare §N in a cited doc (self not empty) cites the doc itself.
func (d *docTree) checkCitations(name, text, self string) []string {
	var out []string
	for _, m := range sectRef.FindAllStringSubmatchIndex(text, -1) {
		n, _ := strconv.Atoi(text[m[4]:m[5]])
		if cite := text[m[2]:m[3]]; !d.sections[cite][n] {
			out = append(out, fmt.Sprintf("%s:%d: %s §%d: %s has no section %d", name, lineOf(text, m[0]), cite, n, citedDocs[cite], n))
		}
	}
	if self == "" {
		return out
	}
	for _, m := range ownSect.FindAllStringSubmatchIndex(text, -1) {
		if namedDoc.MatchString(text[max(0, m[0]-20):m[0]]) {
			continue // it names a doc: checked above, or not one we hold
		}
		n, _ := strconv.Atoi(text[m[2]:m[3]])
		if !d.sections[self][n] {
			out = append(out, fmt.Sprintf("%s:%d: §%d: %s has no section %d", name, lineOf(text, m[2]), n, name, n))
		}
	}
	return out
}

func (d *docTree) checkTarget(name string, line int, target string) []string {
	if d.targets[target] {
		return nil
	}
	return []string{fmt.Sprintf("%s:%d: `make %s`: the Makefile has no such target", name, line, target)}
}

// checkPath lists tok when it reads as a path of the repo and names
// nothing there. A link target (base not empty) is relative to its doc;
// a backticked path is relative to the repo root, and reads as one when it
// starts at a root entry or the module path, or ends in a source
// extension. Line suffixes (:12, :12–14), globs and one {a,b} group are
// allowed.
func (d *docTree) checkPath(name string, line int, tok, base string) []string {
	if base == "" {
		tok = strings.TrimRight(strings.TrimLeft(tok, "("), ".,;:)")
		tok = lineSuf.ReplaceAllString(tok, "")
		tok = strings.TrimPrefix(tok, "./")
		tok = strings.TrimPrefix(tok, d.l.modPath+"/")
		if !strings.Contains(tok, "/") || !pathTok.MatchString(tok) || strings.HasPrefix(tok, "/") {
			return nil
		}
		first, _, _ := strings.Cut(tok, "/")
		if !d.top[first] && !hasPathExt(tok) {
			return nil
		}
	} else {
		if strings.Contains(tok, "://") || strings.HasPrefix(tok, "#") || strings.HasPrefix(tok, "mailto:") {
			return nil
		}
		tok, _, _ = strings.Cut(tok, "#")
		tok = filepath.ToSlash(filepath.Join(base, tok))
		if tok == ".." || strings.HasPrefix(tok, "../") {
			return nil // outside the repo: a forge-relative URL
		}
	}
	for _, p := range expandBraces(tok) {
		matches, err := filepath.Glob(filepath.Join(d.l.root, filepath.FromSlash(p)))
		if err != nil || len(matches) == 0 {
			return []string{fmt.Sprintf("%s:%d: path %s names nothing in the repo", name, line, p)}
		}
	}
	return nil
}

func hasPathExt(tok string) bool {
	for _, ext := range pathExt {
		if strings.HasSuffix(tok, ext) {
			return true
		}
	}
	return false
}

// expandBraces expands the first {a,b,...} group of p.
func expandBraces(p string) []string {
	i := strings.Index(p, "{")
	j := strings.Index(p, "}")
	if i < 0 || j < i {
		return []string{p}
	}
	var out []string
	for _, alt := range strings.Split(p[i+1:j], ",") {
		out = append(out, p[:i]+alt+p[j+1:])
	}
	return out
}

// checkPackageMap lists each package under internal/ and cmd/ that
// DESIGN §3 does not name, and each name there that is no package.
func (d *docTree) checkPackageMap(design string) []string {
	start := strings.Index(design, "\n## 3. ")
	if start < 0 {
		return []string{"DESIGN.md: no §3 to hold the package map"}
	}
	sect := design[start+1:]
	if end := strings.Index(sect, "\n## "); end >= 0 {
		sect = sect[:end]
	}
	listed := make(map[string]bool)
	for _, m := range inlineCode.FindAllStringSubmatch(sect, -1) {
		for _, tok := range strings.Fields(m[1]) {
			if mapEntry.MatchString(tok) {
				listed[tok] = true
			}
		}
	}
	var out []string
	for dir := range d.dirs {
		if !listed[dir] {
			out = append(out, fmt.Sprintf("DESIGN.md: package %s is missing from §3's package map", dir))
		}
	}
	for p := range listed {
		if !d.dirs[p] {
			out = append(out, fmt.Sprintf("DESIGN.md: §3's package map lists %s, which holds no Go package", p))
		}
	}
	return out
}

func lineOf(text string, off int) int { return 1 + strings.Count(text[:off], "\n") }

// synthDocs is a tree whose docs resolve every reference they make,
// including dotted lowercase names that are spans, bench metrics and
// fault points rather than declarations.
var synthDocs = map[string]string{
	"Makefile":                "docs:\n\tgo test ./...\n",
	"internal/data/notes.txt": "no Go here\n",
	"DESIGN.md": "# Design\n\n## 1. Roles\n\n## 3. Package map\n\n" +
		"`internal/lib` is the library, `cmd/app` the binary.\n",
	"README.md": "# Synth\n\n`lib.Used`, `lib.Square.Area`, `lib.Square.Side`, `lib.TestUnused` and\n" +
		"`internal/lib/lib.go` (see [the design](DESIGN.md), DESIGN §3 and §1).\n" +
		"`make docs`, `wire.checksum_mb_per_s`, `lib.stream`, `lib.shard.mirror`,\n" +
		"`net.Buffers.WriteTo`, `hash/crc32`, `text/plain; version=0.0.4`.\n\n" +
		"```sh\nmake docs\n```\n",
}

// TestDocRefsTeeth runs the reference check over synthModule and
// synthDocs, which resolve, and then over one break at a time: each must
// fail it with a line that names the break.
func TestDocRefsTeeth(t *testing.T) {
	base := maps.Clone(synthModule)
	maps.Copy(base, synthDocs)
	if got := refsOf(t, base); len(got) != 0 {
		t.Fatalf("the resolving tree reports %q", got)
	}
	breaks := []struct {
		name, file, old, new, want string
	}{
		{"renamed symbol", "README.md", "`lib.Used`", "`lib.Usd`", "`lib.Usd` resolves to no declaration"},
		{"renamed member", "README.md", "`lib.Square.Area`", "`lib.Square.Volume`", "`lib.Square.Volume` resolves"},
		{"missing path", "README.md", "internal/lib/lib.go", "internal/lib/gone.go", "path internal/lib/gone.go names nothing"},
		{"missing link", "README.md", "(DESIGN.md)", "(docs/DESIGN.md)", "path docs/DESIGN.md names nothing"},
		{"unknown make target", "README.md", "`make docs`", "`make doc`", "`make doc`: the Makefile has no such target"},
		{"unknown fenced make target", "README.md", "make docs\n```", "make lint\n```", "`make lint`: the Makefile"},
		{"section with no heading", "README.md", "DESIGN §3", "DESIGN §9", "DESIGN §9: DESIGN.md has no section 9"},
		{"bare section with no heading", "DESIGN.md", "the binary.", "the binary (§2).", "§2: DESIGN.md has no section 2"},
		{"package missing from the map", "DESIGN.md", ", `cmd/app` the binary", "", "package cmd/app is missing"},
		{"package the map invents", "DESIGN.md", "the binary.", "the binary; `internal/data`.", "lists internal/data, which holds no Go package"},
		{"Go comment citing no heading", "internal/lib/lib.go", "// Shape is", "// DESIGN §4. Shape is", "DESIGN §4: DESIGN.md has no section 4"},
	}
	for _, b := range breaks {
		t.Run(b.name, func(t *testing.T) {
			files := maps.Clone(base)
			if !strings.Contains(files[b.file], b.old) {
				t.Fatalf("%s holds no %q to break", b.file, b.old)
			}
			files[b.file] = strings.Replace(files[b.file], b.old, b.new, 1)
			got := refsOf(t, files)
			if len(got) != 1 || !strings.Contains(got[0], b.want) {
				t.Fatalf("reports %q, want one line containing %q", got, b.want)
			}
		})
	}
}

func refsOf(t *testing.T, files map[string]string) []string {
	t.Helper()
	got, err := unresolvedRefs(loadSynth(t, files))
	if err != nil {
		t.Fatal(err)
	}
	return got
}
