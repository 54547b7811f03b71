package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// noteFact is the test fact type.
type noteFact struct {
	Note string
}

func (*noteFact) AFact() {}

// otherFact exercises multi-type keys.
type otherFact struct {
	N int
}

func (*otherFact) AFact() {}

// checkSrc type-checks one source string as a package, resolving imports
// from deps.
func checkSrc(t *testing.T, fset *token.FileSet, path, src string, deps map[string]*types.Package) *Package {
	t.Helper()
	f, err := parser.ParseFile(fset, strings.ReplaceAll(path, "/", "_")+".go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	conf := types.Config{Importer: mapImporter(deps)}
	pkg, err := conf.Check(path, fset, []*ast.File{f}, nil)
	if err != nil {
		t.Fatalf("check %s: %v", path, err)
	}
	return &Package{ImportPath: path, Fset: fset, Files: []*ast.File{f}, Pkg: pkg}
}

type mapImporter map[string]*types.Package

func (m mapImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := m[path]; ok {
		return pkg, nil
	}
	return nil, &importError{path}
}

type importError struct{ path string }

func (e *importError) Error() string { return "no test package " + e.path }

func TestObjectKey(t *testing.T) {
	fset := token.NewFileSet()
	pkg := checkSrc(t, fset, "p", `
package p

func F() {}

type T struct{}

func (T) M() {}
func (*T) PM() {}

var V int

func local() {
	x := 1
	_ = x
}
`, nil)
	scope := pkg.Pkg.Scope()

	if key, ok := ObjectKey(scope.Lookup("F")); !ok || key != "F" {
		t.Errorf("F key = %q, %v", key, ok)
	}
	if key, ok := ObjectKey(scope.Lookup("V")); !ok || key != "V" {
		t.Errorf("V key = %q, %v", key, ok)
	}
	tt := scope.Lookup("T").Type()
	for _, m := range []string{"M", "PM"} {
		obj, _, _ := types.LookupFieldOrMethod(tt, true, pkg.Pkg, m)
		if key, ok := ObjectKey(obj); !ok || key != "T."+m {
			t.Errorf("%s key = %q, %v, want T.%s", m, key, ok, m)
		}
	}
	// Local objects have no stable key.
	inner := scope.Lookup("local").(*types.Func).Scope().Lookup("x")
	if _, ok := ObjectKey(inner); ok {
		t.Error("local variable should not be keyable")
	}
}

func TestStoreRoundTrip(t *testing.T) {
	s := make(factStore)
	s.export("p", "F", &noteFact{Note: "hello"})
	s.export("p", "", &noteFact{Note: "pkg-level"})
	s.export("p", "F", &otherFact{N: 7})

	var nf noteFact
	if !s.lookup("p", "F", &nf) || nf.Note != "hello" {
		t.Errorf("object fact: got %+v", nf)
	}
	if !s.lookup("p", "", &nf) || nf.Note != "pkg-level" {
		t.Errorf("package fact: got %+v", nf)
	}
	var of otherFact
	if !s.lookup("p", "F", &of) || of.N != 7 {
		t.Errorf("second type on same key: got %+v", of)
	}
	if s.lookup("p", "G", &nf) {
		t.Error("lookup of absent object should fail")
	}

	// lookup must copy, not alias: mutating the result must not change
	// the stored fact.
	nf.Note = "mutated"
	var nf2 noteFact
	s.lookup("p", "F", &nf2)
	if nf2.Note != "hello" {
		t.Errorf("stored fact aliased by lookup: %q", nf2.Note)
	}
}

func TestExportObjectFactOwnership(t *testing.T) {
	fset := token.NewFileSet()
	dep := checkSrc(t, fset, "dep", `package dep; func F() {}`, nil)
	top := checkSrc(t, fset, "top", `package top; import "dep"; func G() { dep.F() }`, map[string]*types.Package{"dep": dep.Pkg})

	pass := &Pass{Fset: fset, Pkg: top.Pkg, facts: make(factStore)}

	defer func() {
		if recover() == nil {
			t.Error("exporting a fact on another package's object should panic")
		}
	}()
	pass.ExportObjectFact(dep.Pkg.Scope().Lookup("F"), &noteFact{Note: "nope"})
}
