// The graph runner: dependency-ordered analysis.
//
// Facts flow along import edges, so a package's analyzers may only run
// once every analyzed dependency has finished. Both producers of package
// lists already order them that way — load.Packages in `go list -deps`
// order, analysistest in the order its fixtures type-check — so RunGraph
// analyzes the packages in the order given, one at a time, and refuses a
// list that puts a package before an analyzed package it imports.
package analysis

import "fmt"

// GraphOptions tunes RunGraph.
type GraphOptions struct {
	// IncludeSuppressed retains //lint:allow-suppressed findings in the
	// result, marked Finding.Suppressed, instead of dropping them.
	IncludeSuppressed bool
}

// RunGraph applies the analyzers to the packages in the order given,
// threading facts through one store, and returns the findings of every
// package not marked FactsOnly, sorted by position then analyzer. Every
// package must follow the analyzed packages it imports; RunGraph returns
// an error naming the first one that does not. Findings suppressed by a
// //lint:allow comment (see suppress.go) are dropped unless
// opts.IncludeSuppressed, so phantomlint and analysistest share one
// suppression semantics.
func RunGraph(pkgs []*Package, analyzers []*Analyzer, opts GraphOptions) ([]Finding, error) {
	at := make(map[string]int, len(pkgs))
	for i, p := range pkgs {
		at[p.ImportPath] = i
	}
	for i, p := range pkgs {
		for _, imp := range p.Pkg.Imports() {
			if j, ok := at[imp.Path()]; ok && j > i {
				return nil, fmt.Errorf("analysis: package %s precedes %s, which it imports", p.ImportPath, imp.Path())
			}
		}
	}
	facts := make(factStore)
	var all []Finding
	for _, pkg := range pkgs {
		fs, err := runPackage(pkg, analyzers, facts)
		if err != nil {
			return nil, err
		}
		if !pkg.FactsOnly {
			all = append(all, fs...)
		}
	}
	if !opts.IncludeSuppressed {
		kept := all[:0]
		for _, f := range all {
			if !f.Suppressed {
				kept = append(kept, f)
			}
		}
		all = kept
	}
	sortFindings(all)
	return all, nil
}

// runPackage applies the analyzers to one package, resolving suppression
// as findings are reported.
func runPackage(pkg *Package, analyzers []*Analyzer, facts factStore) ([]Finding, error) {
	dirs := collectDirectives(pkg.Fset, pkg.Files)
	var out []Finding
	for _, a := range analyzers {
		name := a.Name
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Pkg,
			TypesInfo: pkg.TypesInfo,
			facts:     facts,
			dirs:      dirs,
			Report: func(d Diagnostic) {
				posn := pkg.Fset.Position(d.Pos)
				out = append(out, Finding{
					Analyzer:   name,
					Pos:        posn,
					Message:    d.Message,
					Suppressed: dirs.allow.granted(name, posn),
				})
			},
		}
		if _, err := a.Run(pass); err != nil {
			return nil, err
		}
	}
	return out, nil
}
