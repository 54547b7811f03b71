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
// module can resolve, read from export data through the same importer
// phantomlint uses (load.Importer) — and analyzed with analysis.RunGraph,
// so facts flow from fixture dependencies into fixture dependents exactly
// as they do in phantomlint.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
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
	fixtures := make([][]*ast.File, len(pkgPaths))
	seen := make(map[string]bool) // fixture paths, then the real imports
	for _, path := range pkgPaths {
		seen[path] = true
	}
	var wants []*expectation
	var real []string // the fixtures' imports of real packages
	for i, path := range pkgPaths {
		files, ws := parseFixture(t, fset, testdata, path)
		fixtures[i] = files
		wants = append(wants, ws...)
		for _, f := range files {
			for _, spec := range f.Imports {
				if p, err := strconv.Unquote(spec.Path.Value); err == nil && !seen[p] {
					seen[p] = true
					real = append(real, p)
				}
			}
		}
	}
	exports, err := load.Importer(fset, ".", real...)
	if err != nil {
		t.Fatal(err)
	}
	imp := &fixtureImporter{checked: make(map[string]*types.Package), exports: exports}
	var pkgs []*analysis.Package
	for i, path := range pkgPaths {
		info := load.NewInfo()
		tpkg, err := (&types.Config{Importer: imp}).Check(path, fset, fixtures[i], info)
		if err != nil {
			t.Fatalf("%s: type-checking fixture: %v", path, err)
		}
		imp.checked[path] = tpkg
		pkgs = append(pkgs, &analysis.Package{ImportPath: path, Fset: fset, Files: fixtures[i], Pkg: tpkg, TypesInfo: info})
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
// then real packages from their export data. That lets a fixture package
// import another fixture by its testdata path even though no such
// directory exists in the module proper.
type fixtureImporter struct {
	checked map[string]*types.Package
	exports types.Importer
}

func (fi *fixtureImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := fi.checked[path]; ok {
		return pkg, nil
	}
	return fi.exports.Import(path)
}

// expectation is one want-regexp and whether a finding consumed it.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// parseFixture parses one fixture package, returning its files with the
// want-expectations harvested from their comments.
func parseFixture(t *testing.T, fset *token.FileSet, testdata, pkgPath string) ([]*ast.File, []*expectation) {
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
	return files, wants
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
