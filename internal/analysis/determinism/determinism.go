// Package determinism keeps simulation code a pure function of
// (seed, config).
//
// Every result in this reproduction — the Table I/II/III numbers, fleet
// checkpoints, Perfetto timelines — reproduces only if simulation code
// reads time from simtime.Clock and randomness from an explicitly seeded
// source, and never links the wall-clock side (real networking, the live
// observability plane). One pass per package does two things.
//
// It computes facts for every package of the module, exempt ones
// included, since that is where laundering helpers hide: a FuncTaint
// summary for each function whose call tree reaches a nondeterminism
// source, with one witness chain per kind, and a NetFact for each package
// that links the wall-clock side, with the import chain. Facts travel
// across package boundaries, so a call to an innocent-looking helper
// three packages away is reported at the call site — the shape of the
// ecdh GenerateKey bug of the replay campaigns (DESIGN.md §12), where a
// clean-looking key helper consumed a scheduler-dependent number of bytes
// from the simulation's RNG.
//
// In simulation packages (simscope.Sim) it reports:
//
//   - direct uses of the wall clock, the global math/rand stream and
//     crypto GenerateKey;
//   - calls to tainted functions, in function bodies and package-level
//     var initializers alike, with every reached kind's chain;
//   - value references to tainted functions (`hook = helper.Stamp`),
//     which would smuggle a tainted callable past every call-site check;
//   - imports of real networking or repro/internal/obs/serve, directly or
//     through a NetFact carrier. The serve plane lives on the wall-clock
//     side by charter, so its own imports are not reported.
//
// Escapes: `//lint:allow determinism -- reason` on a source, call or
// import silences its finding and sanitizes it — the summary or NetFact
// stays clean, so a justified exception covers transitive callers and
// importers instead of cascading onto them. A function declared under
// `//lint:bridge determinism -- reason` is a sanctioned sim/wall-time
// seam: it exports no taint, and calls in its body are not reported.
//
// Out of scope: cmd/* and examples/* (the wall-clock side, outside
// repro/internal by construction), repro/internal/bench (the benchmark
// harness), repro/internal/analysis (the linter itself) and _test.go
// files (tests may use real timeouts).
package determinism

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/astq"
	"repro/internal/analysis/simscope"
)

// Analyzer is the determinism check.
var Analyzer = &analysis.Analyzer{
	Name: analyzerName,
	Doc: "keep simulation packages pure in (seed, config): no wall-clock time, global " +
		"math/rand or crypto GenerateKey; no calls to or references of functions that " +
		"reach a nondeterminism source (wall clock, global/crypto rand, GenerateKey, map " +
		"iteration order, goroutine completion order) through any chain of helpers; no " +
		"imports of real networking or the observability plane, directly or transitively",
	Run: run,
}

// analyzerName names the analyzer in diagnostics and directives.
const analyzerName = "determinism"

// Kind is one nondeterminism source class in the taint lattice.
type Kind string

const (
	Wallclock  Kind = "wallclock"
	GlobalRand Kind = "globalrand"
	CryptoRand Kind = "cryptorand"
	Keygen     Kind = "keygen"
	MapIter    Kind = "mapiter"
	GoOrder    Kind = "goorder"
)

// kinds is the source table: for each kind, what a call that reaches it
// does, and for the kinds banned where they are written, the diagnostic
// for a direct use. The other kinds are reported only through the calls
// that reach them.
var kinds = map[Kind]struct{ does, direct string }{
	Wallclock: {"reads the wall clock",
		"%s reads the wall clock: simulation results must be pure in (seed, config); use simtime.Clock"},
	GlobalRand: {"draws from the shared math/rand stream",
		"global %s draws from the shared random stream: use a seeded *rand.Rand (simtime.NewRand)"},
	CryptoRand: {does: "draws process entropy"},
	Keygen: {"consumes a scheduler-dependent number of reader bytes",
		"%s consumes a scheduler-dependent number of reader bytes (randutil.MaybeReadByte): draw the key bytes from the seeded source and use NewPrivateKey"},
	MapIter: {does: "yields map-iteration order"},
	GoOrder: {does: "resolves on goroutine completion order"},
}

// Source is one reached nondeterminism source: its kind and a
// representative call chain ending at the root (e.g.
// "keyhelp.newKey → ecdh.GenerateKey").
type Source struct {
	Kind  Kind
	Chain string
}

// FuncTaint is the object fact exported for every function whose call
// tree reaches at least one nondeterminism source. Sources are sorted by
// kind.
type FuncTaint struct {
	Sources []Source
}

// AFact marks FuncTaint as an analysis fact.
func (*FuncTaint) AFact() {}

// NetFact marks a package that links the wall-clock side, with the
// import chain that gets there (e.g. "repro/internal/bench/netprobe →
// net").
type NetFact struct {
	Via string
}

// AFact marks NetFact as an analysis fact.
func (*NetFact) AFact() {}

// wallClockFuncs are package time functions that read or wait on the
// real clock. time.Since/Until are included: both call time.Now.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"NewTimer":  true,
	"NewTicker": true,
	"Tick":      true,
	"Since":     true,
	"Until":     true,
}

// globalRandFuncs are the package-level math/rand (and math/rand/v2)
// functions that draw from the shared global stream. Constructors
// (New, NewSource, NewPCG, NewChaCha8, NewZipf) and methods on an
// explicit *rand.Rand are fine — those are exactly what seeded
// simulation randomness uses.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int32": true, "Int32N": true, "Int63": true, "Int63n": true,
	"Int64": true, "Int64N": true, "IntN": true, "N": true,
	"Uint": true, "Uint32": true, "Uint32N": true, "Uint64": true,
	"Uint64N": true, "UintN": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true, "Seed": true,
}

// keygenPkgs are crypto packages whose GenerateKey draws a
// scheduler-dependent number of bytes from the caller's io.Reader:
// randutil.MaybeReadByte consumes one extra byte on a runtime coin-flip,
// so a deterministic reader no longer yields deterministic keys — and
// every later draw from the same source shifts with it.
var keygenPkgs = map[string]bool{
	"crypto/ecdh":  true,
	"crypto/ecdsa": true,
	"crypto/rsa":   true,
	"crypto/dsa":   true,
}

// cryptoRandFuncs are crypto/rand package functions (plus the Reader
// variable) that draw from process entropy — never reproducible from a
// seed.
var cryptoRandFuncs = map[string]bool{
	"Read": true, "Int": true, "Prime": true, "Text": true, "Reader": true,
}

// mapIterFuncs are the stdlib maps-package iterators that yield in map
// order; reflect's MapKeys/MapRange methods are caught separately.
var mapIterFuncs = map[string]bool{
	"Keys": true, "Values": true, "All": true,
}

// servePkg is the wall-clock-side observability plane.
const servePkg = "repro/internal/obs/serve"

// maxChainHops caps diagnostic chain growth through deep call stacks.
const maxChainHops = 6

func run(pass *analysis.Pass) (interface{}, error) {
	// Facts are computed for the whole repro module but never for the
	// standard library, which phantomlint does not load from source: the
	// root tables above cover it.
	if !strings.HasPrefix(pass.Pkg.Path(), "repro/") {
		return nil, nil
	}
	var files []*ast.File
	for _, f := range pass.Files {
		// Defensive: phantomlint never loads _test.go files, but fixture
		// harnesses could.
		if !strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			files = append(files, f)
		}
	}
	var decls []*ast.FuncDecl // function bodies, minus sanctioned bridges
	var vars []*ast.GenDecl   // package-level var declarations
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Body != nil && !pass.Bridged(analyzerName, d.Pos()) {
					decls = append(decls, d)
				}
			case *ast.GenDecl:
				if d.Tok == token.VAR {
					vars = append(vars, d)
				}
			}
		}
	}

	summarize(pass, decls)
	checkImports(pass, files)
	if !simscope.Sim(pass.Pkg.Path()) {
		return nil, nil
	}
	for _, f := range files {
		reportSources(pass, f)
		reportRefs(pass, f)
	}
	for _, fd := range decls {
		reportCalls(pass, fd.Body)
	}
	for _, gd := range vars {
		reportCalls(pass, gd)
	}
	return nil, nil
}

// summary is the in-flight lattice value: kind → representative chain.
type summary map[Kind]string

// summarize exports a FuncTaint fact for every function in decls whose
// call tree reaches a source.
func summarize(pass *analysis.Pass, decls []*ast.FuncDecl) {
	var order []*types.Func
	sums := make(map[*types.Func]summary)
	edges := make(map[*types.Func][]*types.Func)
	for _, fd := range decls {
		fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
		if fn == nil {
			continue
		}
		order = append(order, fn)
		sum := make(summary)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			// A justified //lint:allow sanitizes: the source or call it
			// covers does not enter the summary.
			if src, ok := source(pass.TypesInfo, n); ok {
				if _, seen := sum[src.Kind]; !seen && !pass.Allowed(analyzerName, n.Pos()) {
					sum[src.Kind] = src.Chain
				}
				return true
			}
			if call, ok := n.(*ast.CallExpr); ok {
				if callee := astq.CalleeFunc(pass.TypesInfo, call); callee != nil && !pass.Allowed(analyzerName, call.Pos()) {
					edges[fn] = append(edges[fn], callee)
				}
			}
			return true
		})
		sums[fn] = sum
	}

	// Fixpoint over the intra-package call graph. External callees
	// resolve through facts (the graph runner analyzes dependencies
	// first); same-package callees through the in-flight summaries,
	// iterated until stable to handle any call order and mutual
	// recursion.
	for changed := true; changed; {
		changed = false
		for _, fn := range order {
			mine := sums[fn]
			for _, callee := range edges[fn] {
				calleeSum, ok := sums[callee]
				if !ok {
					var fact FuncTaint
					if !pass.ImportObjectFact(callee, &fact) {
						continue
					}
					calleeSum = make(summary, len(fact.Sources))
					for _, s := range fact.Sources {
						calleeSum[s.Kind] = s.Chain
					}
				}
				for kind, chain := range calleeSum {
					if _, seen := mine[kind]; !seen {
						mine[kind] = extendChain(qualifiedName(callee), chain)
						changed = true
					}
				}
			}
		}
	}

	for _, fn := range order {
		if sum := sums[fn]; len(sum) > 0 {
			fact := &FuncTaint{Sources: make([]Source, 0, len(sum))}
			for kind, chain := range sum {
				fact.Sources = append(fact.Sources, Source{Kind: kind, Chain: chain})
			}
			sort.Slice(fact.Sources, func(i, j int) bool { return fact.Sources[i].Kind < fact.Sources[j].Kind })
			pass.ExportObjectFact(fn, fact)
		}
	}
}

// source reports the nondeterminism source an AST node references, if
// any: a selector resolving to a root function or variable, or a
// multi-case select statement.
func source(info *types.Info, n ast.Node) (Source, bool) {
	switch n := n.(type) {
	case *ast.SelectStmt:
		if n.Body != nil && len(n.Body.List) >= 2 {
			return Source{Kind: GoOrder, Chain: "multi-case select"}, true
		}
	case *ast.SelectorExpr:
		obj := info.Uses[n.Sel]
		if obj == nil || obj.Pkg() == nil {
			return Source{}, false
		}
		pkgPath, name := obj.Pkg().Path(), obj.Name()
		// Methods checked before the receiver skip: ecdh's GenerateKey is
		// a Curve method, reflect's MapKeys/MapRange are Value methods.
		if name == "GenerateKey" && keygenPkgs[pkgPath] {
			return Source{Kind: Keygen, Chain: obj.Pkg().Name() + ".GenerateKey"}, true
		}
		if pkgPath == "reflect" && (name == "MapKeys" || name == "MapRange") {
			return Source{Kind: MapIter, Chain: "reflect.Value." + name}, true
		}
		if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
			return Source{}, false // methods on explicit values are the sanctioned idiom
		}
		switch pkgPath {
		case "time":
			if wallClockFuncs[name] {
				return Source{Kind: Wallclock, Chain: "time." + name}, true
			}
		case "math/rand", "math/rand/v2":
			if globalRandFuncs[name] {
				return Source{Kind: GlobalRand, Chain: obj.Pkg().Name() + "." + name}, true
			}
		case "crypto/rand":
			if cryptoRandFuncs[name] {
				return Source{Kind: CryptoRand, Chain: "crypto/rand." + name}, true
			}
		case "maps":
			if mapIterFuncs[name] {
				return Source{Kind: MapIter, Chain: "maps." + name}, true
			}
		}
	}
	return Source{}, false
}

// reportSources reports direct uses of the kinds banned where they are
// written, anywhere in the file.
func reportSources(pass *analysis.Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		if src, ok := source(pass.TypesInfo, n); ok && kinds[src.Kind].direct != "" {
			pass.Reportf(n.Pos(), fmt.Sprintf(kinds[src.Kind].direct, src.Chain))
		}
		return true
	})
}

// reportCalls reports the calls under n — a function body or a
// package-level var declaration, whose initializers run at package init —
// to tainted functions, rendering every reached kind with its chain, e.g.
//
//	call to keyhelp.MakeKey consumes a scheduler-dependent number of
//	reader bytes (keyhelp.MakeKey → keyhelp.newKey → ecdh.GenerateKey):
//	sim results must stay pure in (seed, config)
func reportCalls(pass *analysis.Pass, n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var fact FuncTaint
		callee := astq.CalleeFunc(pass.TypesInfo, call)
		if callee == nil || !pass.ImportObjectFact(callee, &fact) {
			return true
		}
		name := qualifiedName(callee)
		parts := make([]string, len(fact.Sources))
		for i, s := range fact.Sources {
			parts[i] = fmt.Sprintf("%s (%s)", kinds[s.Kind].does, extendChain(name, s.Chain))
		}
		pass.Reportf(call.Pos(), fmt.Sprintf("call to %s %s: sim results must stay pure in (seed, config)",
			name, strings.Join(parts, "; ")))
		return true
	})
}

// reportRefs reports value references (non-call uses) of tainted
// functions anywhere in the file, so `hooks.onTick = helper.Stamp` is
// caught at the assignment instead of wherever the hook eventually fires.
func reportRefs(pass *analysis.Pass, f *ast.File) {
	// Collect the identifiers in call position: f(...) and pkg.f(...).
	called := make(map[*ast.Ident]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			called[fun] = true
		case *ast.SelectorExpr:
			called[fun.Sel] = true
		}
		return true
	})
	ast.Inspect(f, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || called[id] {
			return true
		}
		fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
		if !ok {
			return true
		}
		var fact FuncTaint
		if !pass.ImportObjectFact(fn, &fact) {
			return true
		}
		names := make([]string, len(fact.Sources))
		for i, s := range fact.Sources {
			names[i] = string(s.Kind)
		}
		pass.Reportf(id.Pos(), fmt.Sprintf(
			"reference to %s smuggles nondeterminism (%s) past the call-site checks: %s; pass a seeded/simtime-backed implementation instead",
			qualifiedName(fn), strings.Join(names, ", "), fact.Sources[0].Chain))
		return true
	})
}

// checkImports exports the package's NetFact and, in simulation packages
// other than the serve plane, reports every import that crosses to the
// wall-clock side.
func checkImports(pass *analysis.Pass, files []*ast.File) {
	path := pass.Pkg.Path()
	report := simscope.Sim(path) && path != servePkg && !strings.HasPrefix(path, servePkg+"/")
	via := "" // chain to the wall-clock side, first import wins
	for _, f := range files {
		for _, imp := range f.Imports {
			impPath, err := strconv.Unquote(imp.Path.Value)
			// A justified //lint:allow on the import is a sanitizer: it
			// neither reports nor exports the link onward.
			if err != nil || pass.Allowed(analyzerName, imp.Pos()) {
				continue
			}
			if why := banned(impPath); why != "" {
				if via == "" {
					via = impPath
				}
				if report {
					pass.Reportf(imp.Pos(), fmt.Sprintf(
						"import %s crosses the sim/wall-clock boundary (%s): keep serving in cmd/ or %s",
						impPath, why, servePkg))
				}
				continue
			}
			// Transitive: a dependency that carries a NetFact links the
			// wall-clock side for everyone importing it.
			var fact NetFact
			dep := importOf(pass.Pkg, impPath)
			if dep == nil || !pass.ImportPackageFact(dep, &fact) {
				continue
			}
			chain := impPath + " → " + fact.Via
			if via == "" {
				via = chain
			}
			if report {
				pass.Reportf(imp.Pos(), fmt.Sprintf(
					"import %s transitively links the wall-clock side (%s): keep serving in cmd/ or %s",
					impPath, chain, servePkg))
			}
		}
	}
	if via != "" {
		pass.ExportPackageFact(&NetFact{Via: via})
	}
}

// banned explains why an import path is off-limits for simulation code,
// or returns "" when it is fine.
func banned(path string) string {
	switch {
	case path == servePkg:
		return "the observability plane reads simulation state, never the reverse"
	case path == "net", path == "net/http", strings.HasPrefix(path, "net/http/"):
		return "real networking is nondeterministic"
	}
	return ""
}

// importOf finds the types.Package for path among the package's direct
// imports.
func importOf(pkg *types.Package, path string) *types.Package {
	for _, imp := range pkg.Imports() {
		if imp.Path() == path {
			return imp
		}
	}
	return nil
}

// extendChain prefixes one caller hop onto a chain, capping runaway depth.
func extendChain(hop, chain string) string {
	if strings.Count(chain, " → ") >= maxChainHops {
		i := strings.LastIndex(chain, " → ")
		chain = chain[:i] + " → …"
	}
	return hop + " → " + chain
}

// qualifiedName renders a function for chain display: pkg.Func or
// pkg.Recv.Method.
func qualifiedName(fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + name
	}
	return name
}
