package docscheck

import (
	"fmt"
	"go/types"
	"maps"
	"sort"
	"strings"
	"testing"
)

// packageAllowlist holds the packages under internal/ that no binary
// reaches yet, each with the ROADMAP item that will put it on a binary's
// path. Keys are spelled as the scan prints them: the path below
// internal/. A package only an example or a test imports is not on the
// list: it is deleted, or a binary calls it.
var packageAllowlist = map[string]string{
	"invariants": "item 2: the DES fault schedule",
}

// TestEveryPackageOnABinaryPath fails on each non-test package under
// internal/ that no package under cmd/ imports, directly or through other
// packages, unless packageAllowlist names it. It also fails on an entry
// whose package a binary reaches or that no longer exists, and on one
// whose reason names no ROADMAP item, so the list cannot go stale.
func TestEveryPackageOnABinaryPath(t *testing.T) {
	l, err := thisModule()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range offBinaryPath(l, packageAllowlist) {
		t.Error(p)
	}
	for rel, reason := range packageAllowlist {
		if !strings.Contains(reason, "item ") {
			t.Errorf("allowlisted package %s: reason %q names no ROADMAP item", rel, reason)
		}
	}
}

// offBinaryPath lists an error line for each package under the loaded
// module's internal/ (testOnlyPackage aside) that no package under cmd/
// reaches through types.Package.Imports and allow does not name, and for
// each entry of allow whose package a binary reaches or does not exist.
func offBinaryPath(l *moduleLoad, allow map[string]string) []string {
	reached := make(map[string]bool)
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if reached[p.Path()] || !strings.HasPrefix(p.Path(), l.modPath+"/") {
			return
		}
		reached[p.Path()] = true
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for path, pkg := range l.pkgs {
		if strings.HasPrefix(path, l.modPath+"/cmd/") {
			walk(pkg)
		}
	}
	var out []string
	stale := maps.Clone(allow)
	for path := range l.pkgs {
		rel, ok := strings.CutPrefix(path, l.modPath+"/internal/")
		if !ok || rel == testOnlyPackage {
			continue
		}
		_, allowed := allow[rel]
		delete(stale, rel)
		switch {
		case !reached[path] && !allowed:
			out = append(out, fmt.Sprintf("internal/%s: no binary under cmd/ reaches it: delete it, give a binary its caller, or allowlist it with the ROADMAP item that will", rel))
		case reached[path] && allowed:
			out = append(out, fmt.Sprintf("allowlisted package %s is reached by a binary: drop it from packageAllowlist", rel))
		}
	}
	for rel := range stale {
		out = append(out, fmt.Sprintf("allowlisted package %s no longer exists: drop it from packageAllowlist", rel))
	}
	sort.Strings(out)
	return out
}

// TestPackageScanTeeth runs the scan over synthModule plus a package only
// an example imports, a package a binary reaches only through another, and
// the test-only package: it must flag the example's package alone, and,
// with an allowlist, an entry a binary reaches and one that does not
// exist, while keeping an entry for a package nothing reaches.
func TestPackageScanTeeth(t *testing.T) {
	files := maps.Clone(synthModule)
	files["internal/lib/dep.go"] = "package lib\n\nimport _ \"synth/internal/deep\"\n"
	files["internal/deep/deep.go"] = "package deep\n"
	files["internal/demo/demo.go"] = "package demo\n\nfunc Show() {}\n"
	files["internal/testenv/testenv.go"] = "package testenv\n"
	files["examples/demo/main.go"] = "package main\n\nimport \"synth/internal/demo\"\n\nfunc main() { demo.Show() }\n"
	l := loadSynth(t, files)

	got := offBinaryPath(l, nil)
	if len(got) != 1 || !strings.HasPrefix(got[0], "internal/demo: ") {
		t.Fatalf("unallowlisted scan = %q, want internal/demo alone", got)
	}
	got = offBinaryPath(l, map[string]string{
		"demo":    "item 0: nothing reaches it, so the entry holds",
		"deep":    "item 0: reached through lib",
		"missing": "item 0: never existed",
	})
	if len(got) != 2 || !strings.Contains(got[0], "deep is reached by a binary") ||
		!strings.Contains(got[1], "missing no longer exists") {
		t.Fatalf("allowlisted scan = %q, want the deep and missing entries", got)
	}
}
