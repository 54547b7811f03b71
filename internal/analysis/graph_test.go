package analysis

import (
	"fmt"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// chain builds packages a ← b ← c (c imports b imports a) plus an
// independent d, in an order that puts every package after its imports,
// for fact-flow tests.
func chainPkgs(t *testing.T) []*Package {
	t.Helper()
	fset := token.NewFileSet()
	a := checkSrc(t, fset, "chain/a", `package a; func F() {}`, nil)
	b := checkSrc(t, fset, "chain/b", `package b; import "chain/a"; func F() { a.F() }`,
		map[string]*types.Package{"chain/a": a.Pkg})
	c := checkSrc(t, fset, "chain/c", `package c; import "chain/b"; func F() { b.F() }`,
		map[string]*types.Package{"chain/a": a.Pkg, "chain/b": b.Pkg})
	d := checkSrc(t, fset, "chain/d", `package d; func F() {}`, nil)
	return []*Package{d, a, b, c}
}

// TestRunGraphRejectsImporterFirst: a list that puts a package before an
// analyzed package it imports would hide that dependency's facts, so
// RunGraph refuses it, naming both packages.
func TestRunGraphRejectsImporterFirst(t *testing.T) {
	pkgs := chainPkgs(t)
	scrambled := []*Package{pkgs[3], pkgs[0], pkgs[1], pkgs[2]} // c, d, a, b
	_, err := RunGraph(scrambled, []*Analyzer{markEveryFunc("mark")}, GraphOptions{})
	if want := "analysis: package chain/c precedes chain/b, which it imports"; err == nil || err.Error() != want {
		t.Errorf("RunGraph error = %v, want %q", err, want)
	}
}

// markEveryFunc reports one finding per package-level function and
// exports a noteFact naming the package.
func markEveryFunc(name string) *Analyzer {
	return &Analyzer{
		Name: name,
		Run: func(pass *Pass) (interface{}, error) {
			scope := pass.Pkg.Scope()
			for _, n := range scope.Names() {
				if fn, ok := scope.Lookup(n).(*types.Func); ok {
					pass.Reportf(fn.Pos(), "func "+n+" in "+pass.Pkg.Path())
					pass.ExportObjectFact(fn, &noteFact{Note: pass.Pkg.Path() + "." + n})
				}
			}
			return nil, nil
		},
	}
}

// readDepFacts reports, for each import, the fact its dependency's F
// carries — proving facts flow from imports to importers.
func readDepFacts() *Analyzer {
	return &Analyzer{
		Name: "reader",
		Run: func(pass *Pass) (interface{}, error) {
			for _, imp := range pass.Pkg.Imports() {
				fn, ok := imp.Scope().Lookup("F").(*types.Func)
				if !ok {
					continue
				}
				var nf noteFact
				if pass.ImportObjectFact(fn, &nf) {
					pass.Reportf(pass.Files[0].Pos(), fmt.Sprintf("%s sees %s", pass.Pkg.Path(), nf.Note))
				}
			}
			return nil, nil
		},
	}
}

func TestRunGraphFactFlow(t *testing.T) {
	// The producer runs before the reader on each package, and every
	// package after its dependencies, so the reader sees each import's
	// fact.
	analyzers := []*Analyzer{markEveryFunc("producer"), readDepFacts()}
	findings, err := RunGraph(chainPkgs(t), analyzers, GraphOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var reads []string
	for _, f := range findings {
		if f.Analyzer == "reader" {
			reads = append(reads, f.Message)
		}
	}
	want := []string{"chain/b sees chain/a.F", "chain/c sees chain/b.F"}
	// Findings are position-sorted; extract and compare as sets via sort
	// stability of two elements.
	if len(reads) != 2 || !(contains(reads, want[0]) && contains(reads, want[1])) {
		t.Errorf("fact-flow findings = %v, want %v", reads, want)
	}
}

// TestRunGraphFactsOnlyDependencies: a dependency marked FactsOnly still
// exports its facts to the packages that import it, and none of its own
// findings survive.
func TestRunGraphFactsOnlyDependencies(t *testing.T) {
	pkgs := chainPkgs(t)
	for _, p := range pkgs {
		p.FactsOnly = p.ImportPath == "chain/a" || p.ImportPath == "chain/b"
	}
	analyzers := []*Analyzer{markEveryFunc("producer"), readDepFacts()}
	findings, err := RunGraph(pkgs, analyzers, GraphOptions{IncludeSuppressed: true})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		got = append(got, f.Analyzer+": "+f.Message)
	}
	want := []string{"producer: func F in chain/c", "reader: chain/c sees chain/b.F", "producer: func F in chain/d"}
	if len(got) != len(want) || !contains(got, want[0]) || !contains(got, want[1]) || !contains(got, want[2]) {
		t.Errorf("findings = %q, want %q", got, want)
	}
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

func TestRunGraphSuppression(t *testing.T) {
	fset := token.NewFileSet()
	pkg := checkSrc(t, fset, "sup/p", `package p

//lint:allow mark -- justified in the fixture
func F() {}

func G() {}
`, nil)

	def, err := RunGraph([]*Package{pkg}, []*Analyzer{markEveryFunc("mark")}, GraphOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(def) != 1 || !strings.Contains(def[0].Message, "func G") {
		t.Errorf("suppressed finding leaked: %+v", def)
	}

	all, err := RunGraph([]*Package{pkg}, []*Analyzer{markEveryFunc("mark")}, GraphOptions{IncludeSuppressed: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 {
		t.Fatalf("IncludeSuppressed should keep both, got %d", len(all))
	}
	bySuppressed := map[bool]int{}
	for _, f := range all {
		bySuppressed[f.Suppressed]++
	}
	if bySuppressed[true] != 1 || bySuppressed[false] != 1 {
		t.Errorf("suppressed flags wrong: %+v", all)
	}
}
