// Package analysis is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis vocabulary: an Analyzer inspects one
// type-checked package through a Pass and reports Diagnostics. The
// framework is interprocedural: analyzers exchange Facts about
// package-level objects and packages, which the graph runner (graph.go)
// carries in dependency order through one in-memory store (facts.go).
//
// The names (Analyzer, Pass, Diagnostic, Fact) follow x/tools so the
// analyzers read like upstream ones, but porting them would not be an
// import swap: x/tools also needs each analyzer's fact types declared so
// facts can cross process boundaries, while phantomlint analyzes a whole
// tree in one process. Everything here builds on the standard library's
// go/ast and go/types alone.
//
// The suite exists to machine-check the reproduction's load-bearing
// conventions (see DESIGN.md §10 and §15):
//
//   - determinism: results are pure functions of (seed, config), so
//     simulation code must never read the wall clock, the global math/rand
//     stream, or emit output in map-iteration order — directly or through
//     any chain of helpers (the taint facts);
//   - zero-tax tracing: obs.Trace emission goes through a handle captured
//     at Instrument time and is nil/Enabled-guarded, so disabled tracing
//     costs nothing on hot paths;
//   - bounded goroutine lifetimes: a spawned worker must not be able to
//     outlive its spawner blocked on a channel nobody will drain.
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one static check: a name, documentation, and a Run
// function applied once per package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //lint:allow
	// suppression comments. It must be a valid identifier.
	Name string
	// Doc is the one-paragraph description shown by `phantomlint -list`.
	Doc string
	// Run inspects the package behind pass and reports findings through
	// pass.Report. The interface{} result mirrors x/tools; phantomlint
	// analyzers communicate through facts instead and return nil.
	Run func(pass *Pass) (interface{}, error)
}

// Pass hands one type-checked package to an Analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report delivers one finding. The driver applies //lint:allow
	// suppression before surfacing it.
	Report func(Diagnostic)

	facts factStore
	dirs  directives
}

// Reportf reports a finding at pos. It is the analyzers' usual entry point.
func (p *Pass) Reportf(pos token.Pos, msg string) {
	p.Report(Diagnostic{Pos: pos, Message: msg})
}

// Allowed reports whether a //lint:allow comment suppresses the named
// analyzer at pos. Fact producers consult this to treat an explicitly
// suppressed source as sanctioned — a justified //lint:allow is a taint
// sanitizer, not just a silenced diagnostic, so suppressions don't
// cascade findings onto every transitive caller.
func (p *Pass) Allowed(analyzer string, pos token.Pos) bool {
	return p.dirs.allow.granted(analyzer, p.Fset.Position(pos))
}

// Bridged reports whether a //lint:bridge comment names the analyzer at
// pos: on a declaration, it marks a sanctioned seam whose body the
// analyzer does not police (see suppress.go).
func (p *Pass) Bridged(analyzer string, pos token.Pos) bool {
	return p.dirs.bridge.granted(analyzer, p.Fset.Position(pos))
}

// ExportObjectFact attaches f to obj, which must be a package-level
// object (or method) of the package under analysis. The fact becomes
// visible to analyzers of importing packages via ImportObjectFact.
func (p *Pass) ExportObjectFact(obj types.Object, f Fact) {
	key, ok := ObjectKey(obj)
	if !ok {
		return // local objects cannot carry facts
	}
	if obj.Pkg().Path() != p.Pkg.Path() {
		panic("analysis: ExportObjectFact on object of another package")
	}
	p.facts.export(p.Pkg.Path(), key, f)
}

// ImportObjectFact copies the fact of f's concrete type previously
// exported on obj (by any analyzer, on this package or a dependency)
// into f, reporting whether one was found.
func (p *Pass) ImportObjectFact(obj types.Object, f Fact) bool {
	key, ok := ObjectKey(obj)
	if !ok {
		return false
	}
	return p.facts.lookup(obj.Pkg().Path(), key, f)
}

// ExportPackageFact attaches f to the package under analysis.
func (p *Pass) ExportPackageFact(f Fact) {
	p.facts.export(p.Pkg.Path(), "", f)
}

// ImportPackageFact copies the package fact of f's concrete type
// previously exported on pkg into f, reporting whether one was found.
func (p *Pass) ImportPackageFact(pkg *types.Package, f Fact) bool {
	return p.facts.lookup(pkg.Path(), "", f)
}

// Diagnostic is one finding: a position and a message.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// A Finding is a diagnostic resolved against its package and analyzer —
// what the driver prints and what analysistest compares against
// expectations.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
	// Suppressed marks a finding silenced by a //lint:allow comment.
	// RunGraph drops suppressed findings unless asked to keep them; the
	// -json output retains them flagged, so tooling can audit
	// suppressions.
	Suppressed bool
}

// Package is one loaded, type-checked package as produced by the load
// subpackage (or synthesized by analysistest from a fixture directory).
type Package struct {
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	TypesInfo  *types.Info
	// FactsOnly marks a dependency loaded for the facts it exports:
	// RunGraph analyzes it and drops its findings.
	FactsOnly bool
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool { return findingLess(fs[i], fs[j]) })
}

func findingLess(a, b Finding) bool {
	if a.Pos.Filename != b.Pos.Filename {
		return a.Pos.Filename < b.Pos.Filename
	}
	if a.Pos.Line != b.Pos.Line {
		return a.Pos.Line < b.Pos.Line
	}
	if a.Pos.Column != b.Pos.Column {
		return a.Pos.Column < b.Pos.Column
	}
	return a.Analyzer < b.Analyzer
}
