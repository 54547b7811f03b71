// Package load turns `go list` package patterns into type-checked
// analysis.Packages using only the standard library: `go list -deps
// -export` enumerates the matched packages and compiles every dependency
// into the build cache, go/parser parses the matched packages and the
// main module's packages they depend on, and go/types checks them with
// imports read from that export data.
//
// This is the offline stand-in for golang.org/x/tools/go/packages, which
// the module cannot vendor. One gc importer serves the whole call, so
// every import of a given path yields the identical *types.Package, and
// nothing is type-checked from source but the main module's packages.
// Importer exposes the same importer on its own, for callers (analysistest)
// that type-check their own sources.
package load

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"

	"repro/internal/analysis"
)

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string // export data file in the build cache
	DepOnly    bool   // a dependency, not matched by the patterns
	Module     *struct{ Main bool }
}

// Packages loads, parses and type-checks the packages matched by patterns
// (e.g. "./..."), resolving them relative to dir, together with the main
// module's packages they depend on. Those dependencies come back marked
// FactsOnly: they are analyzed for the facts they export, so a run over a
// subset sees the same cross-package taint as a whole-tree run, and their
// findings are dropped. Only non-test Go files are analyzed: the
// determinism and tracing invariants govern simulation code, and tests
// legitimately use wall-clock timeouts and ad-hoc output. Packages come
// back in `go list -deps` order, dependencies first.
func Packages(dir string, patterns ...string) ([]*analysis.Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := exportImporter(fset, listed)

	var pkgs []*analysis.Package
	for _, lp := range listed {
		if len(lp.GoFiles) == 0 || lp.DepOnly && (lp.Module == nil || !lp.Module.Main) {
			continue
		}
		pkg, err := check(fset, imp, lp)
		if err != nil {
			return nil, err
		}
		pkg.FactsOnly = lp.DepOnly
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// Importer returns an importer reading the export data of the packages
// matched by patterns, resolved relative to dir, and of all their
// dependencies, listed by one `go list -deps -export` call.
func Importer(fset *token.FileSet, dir string, patterns ...string) (types.Importer, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	return exportImporter(fset, listed), nil
}

// exportImporter is the gc importer over the listed packages' export data.
func exportImporter(fset *token.FileSet, listed []listedPackage) types.Importer {
	exports := make(map[string]string, len(listed))
	for _, lp := range listed {
		exports[lp.ImportPath] = lp.Export
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(exports[path])
	})
}

func goList(dir string, patterns []string) ([]listedPackage, error) {
	args := append([]string{"list", "-deps", "-export", "-json=ImportPath,Dir,GoFiles,Export,DepOnly,Module"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("load: go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}
	var out []listedPackage
	dec := json.NewDecoder(&stdout)
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, fmt.Errorf("load: decoding go list output: %v", err)
		}
		out = append(out, lp)
	}
	return out, nil
}

// check parses one listed package's non-test files and type-checks them
// against the shared importer.
func check(fset *token.FileSet, imp types.Importer, lp listedPackage) (*analysis.Package, error) {
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("load: %v", err)
		}
		files = append(files, f)
	}
	info := NewInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("load: type-checking %s: %v", lp.ImportPath, err)
	}
	return &analysis.Package{
		ImportPath: lp.ImportPath,
		Fset:       fset,
		Files:      files,
		Pkg:        tpkg,
		TypesInfo:  info,
	}, nil
}

// NewInfo allocates the types.Info maps the analyzers rely on. Shared with
// analysistest so fixture packages carry the same resolution surface as
// real ones.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
}
