// The graph runner: dependency-ordered analysis.
//
// Facts flow along import edges, so a package's analyzers may only run
// once every analyzed dependency has finished. Waves makes that order
// explicit: wave 0 holds packages importing no other analyzed package,
// wave k packages whose analyzed imports all sit in earlier waves.
// RunGraph analyzes the waves in order, one package at a time, so every
// pass sees a complete fact store for everything it can reach.
package analysis

import "sort"

// GraphOptions tunes RunGraph.
type GraphOptions struct {
	// IncludeSuppressed retains //lint:allow-suppressed findings in the
	// result, marked Finding.Suppressed, instead of dropping them.
	IncludeSuppressed bool
}

// Waves partitions pkgs into dependency waves: every package's analyzed
// imports live in strictly earlier waves. Within a wave, packages are
// sorted by import path so scheduling is deterministic.
func Waves(pkgs []*Package) [][]*Package {
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.ImportPath] = p
	}
	depth := make(map[string]int, len(pkgs))
	var depthOf func(p *Package) int
	depthOf = func(p *Package) int {
		if d, ok := depth[p.ImportPath]; ok {
			return d
		}
		// Mark before recursing: an import cycle (impossible in valid Go,
		// but be safe on broken input) bottoms out at depth 0.
		depth[p.ImportPath] = 0
		d := 0
		for _, imp := range p.Pkg.Imports() {
			if dep, ok := byPath[imp.Path()]; ok {
				if dd := depthOf(dep) + 1; dd > d {
					d = dd
				}
			}
		}
		depth[p.ImportPath] = d
		return d
	}
	max := 0
	for _, p := range pkgs {
		if d := depthOf(p); d > max {
			max = d
		}
	}
	waves := make([][]*Package, max+1)
	for _, p := range pkgs {
		waves[depth[p.ImportPath]] = append(waves[depth[p.ImportPath]], p)
	}
	for _, w := range waves {
		sort.Slice(w, func(i, j int) bool { return w[i].ImportPath < w[j].ImportPath })
	}
	return waves
}

// RunGraph applies the analyzers to the packages in dependency-wave
// order, threading facts through one store, and returns the findings of
// every package not marked FactsOnly, sorted by position then analyzer.
// Findings suppressed by a
// //lint:allow comment (see suppress.go) are dropped unless
// opts.IncludeSuppressed, so phantomlint and analysistest share one
// suppression semantics.
func RunGraph(pkgs []*Package, analyzers []*Analyzer, opts GraphOptions) ([]Finding, error) {
	facts := make(factStore)
	var all []Finding
	for _, wave := range Waves(pkgs) {
		for _, pkg := range wave {
			fs, err := runPackage(pkg, analyzers, facts)
			if err != nil {
				return nil, err
			}
			if !pkg.FactsOnly {
				all = append(all, fs...)
			}
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
