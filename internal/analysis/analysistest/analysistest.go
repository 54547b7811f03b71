// Package analysistest runs an analyzer over fixture packages and checks
// its findings against expectations written in the fixtures themselves —
// the same contract as golang.org/x/tools/go/analysis/analysistest,
// rebuilt on the standard library.
//
// Fixtures live under <analyzer>/testdata/src/<import-path>/ and are plain
// Go files excluded from the build by the testdata convention. A line that
// should trigger the analyzer carries a trailing comment:
//
//	time.Sleep(d) // want `wall-clock`
//
// Each backquoted or double-quoted string is a regular expression that
// must match the message of exactly one finding reported on that line;
// findings with no matching expectation, and expectations with no matching
// finding, fail the test. The fixture's import path is its directory path
// relative to testdata/src, which is what lets fixtures exercise
// path-scoped analyzer behavior (e.g. determinism's repro/internal/*
// scope and its cmd/ allowlist).
//
// Interprocedural analyzers need more than one package: list every
// fixture package in dependency order (imported packages first). All
// listed packages are type-checked into one graph — a fixture may import
// an earlier fixture by its testdata import path, or any real package the
// module can resolve, which the stdlib source importer checks from
// source — and analyzed with analysis.RunGraph, so facts flow from
// fixture dependencies into fixture dependents exactly as they do in
// phantomlint.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
)

// Run analyzes the fixture packages under testdata/src — listed with
// dependencies before dependents — and reports mismatches between
// expected and actual findings as test errors.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	fset := token.NewFileSet()
	imp := &fixtureImporter{
		checked:  make(map[string]*types.Package),
		fallback: importer.ForCompiler(fset, "source", nil),
	}
	var pkgs []*analysis.Package
	var wants []*expectation
	for _, path := range pkgPaths {
		pkg, ws := loadFixture(t, fset, imp, testdata, path)
		imp.checked[path] = pkg.Pkg
		pkgs = append(pkgs, pkg)
		wants = append(wants, ws...)
	}

	findings, err := analysis.RunGraph(pkgs, []*analysis.Analyzer{a}, analysis.GraphOptions{})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	for _, f := range findings {
		if !claim(wants, f) {
			t.Errorf("%s:%d: unexpected %s finding: %s", f.Pos.Filename, f.Pos.Line, a.Name, f.Message)
		}
	}
	sort.Slice(wants, func(i, j int) bool {
		if wants[i].file != wants[j].file {
			return wants[i].file < wants[j].file
		}
		return wants[i].line < wants[j].line
	})
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected finding matching %q, got none", w.file, w.line, w.raw)
		}
	}
}

// fixtureImporter resolves already-type-checked fixture packages first,
// then falls back to the module's source importer for real packages.
// That lets a fixture package import another fixture by its testdata
// path even though no such directory exists in the module proper.
type fixtureImporter struct {
	checked  map[string]*types.Package
	fallback types.Importer
}

func (fi *fixtureImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := fi.checked[path]; ok {
		return pkg, nil
	}
	return fi.fallback.Import(path)
}

// expectation is one want-regexp and whether a finding consumed it.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// loadFixture parses and type-checks one fixture package, returning it
// with the want-expectations harvested from its comments.
func loadFixture(t *testing.T, fset *token.FileSet, imp types.Importer, testdata, pkgPath string) (*analysis.Package, []*expectation) {
	t.Helper()
	dir := filepath.Join(testdata, "src", filepath.FromSlash(pkgPath))
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("%s: reading fixture dir: %v", pkgPath, err)
	}
	var files []*ast.File
	var wants []*expectation
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		fname := filepath.Join(dir, e.Name())
		f, err := parser.ParseFile(fset, fname, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", pkgPath, err)
		}
		files = append(files, f)
		ws, err := collectWants(fset, f)
		if err != nil {
			t.Fatalf("%s: %v", pkgPath, err)
		}
		wants = append(wants, ws...)
	}
	if len(files) == 0 {
		t.Fatalf("%s: fixture dir %s has no Go files", pkgPath, dir)
	}

	info := load.NewInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		t.Fatalf("%s: type-checking fixture: %v", pkgPath, err)
	}
	return &analysis.Package{ImportPath: pkgPath, Fset: fset, Files: files, Pkg: tpkg, TypesInfo: info}, wants
}

// claim marks the first unmatched expectation on the finding's line whose
// regexp matches the message.
func claim(wants []*expectation, f analysis.Finding) bool {
	for _, w := range wants {
		if w.matched || w.file != f.Pos.Filename || w.line != f.Pos.Line {
			continue
		}
		if w.re.MatchString(f.Message) {
			w.matched = true
			return true
		}
	}
	return false
}

// collectWants extracts `// want ...` expectations from one file.
func collectWants(fset *token.FileSet, f *ast.File) ([]*expectation, error) {
	var out []*expectation
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			body, ok := strings.CutPrefix(c.Text, "//")
			if !ok {
				continue
			}
			body = strings.TrimSpace(body)
			rest, ok := strings.CutPrefix(body, "want ")
			if !ok {
				continue
			}
			pos := fset.Position(c.Pos())
			pats, err := splitPatterns(rest)
			if err != nil {
				return nil, fmt.Errorf("%s:%d: bad want comment: %v", pos.Filename, pos.Line, err)
			}
			for _, p := range pats {
				re, err := regexp.Compile(p)
				if err != nil {
					return nil, fmt.Errorf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, p, err)
				}
				out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: p})
			}
		}
	}
	return out, nil
}

// splitPatterns parses a want payload: one or more strings, each either
// backquoted or double-quoted, separated by spaces.
func splitPatterns(s string) ([]string, error) {
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		var quote byte = s[0]
		if quote != '`' && quote != '"' {
			return nil, fmt.Errorf("expected quoted regexp at %q", s)
		}
		end := strings.IndexByte(s[1:], quote)
		if end < 0 {
			return nil, fmt.Errorf("unterminated pattern %q", s)
		}
		out = append(out, s[1:1+end])
		s = strings.TrimSpace(s[2+end:])
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty want comment")
	}
	return out, nil
}
