// Package simscope answers the one question the phantomlint analyzers
// share: is this package on the simulation side of the wall-clock seam?
// Simulation packages are the ones whose results are contractually pure
// functions of (seed, config) — repro/internal/* minus the subtrees that
// legitimately live on the wall-clock side. Keeping the answer in one
// place keeps determinism and goroutineguard from drifting apart on what
// "sim code" means.
package simscope

import "strings"

// exemptPrefixes are the repro/internal subtrees that are not simulation
// code: the benchmarking harness reads real time by design, and the
// linter analyzes itself.
var exemptPrefixes = []string{
	"repro/internal/bench",
	"repro/internal/analysis",
}

// Sim reports whether the package at path holds simulation code bound by
// the determinism contract. cmd/* and examples/* own the wall-clock side
// and are out of scope by construction (they are not under
// repro/internal/). Note repro/internal/obs/serve IS in scope here: it
// may link the network (determinism exempts its imports by charter) but
// its goroutine discipline and any taint it would launder into
// sim-visible state still matter.
func Sim(path string) bool {
	if !strings.HasPrefix(path, "repro/internal/") {
		return false
	}
	for _, p := range exemptPrefixes {
		if path == p || strings.HasPrefix(path, p+"/") {
			return false
		}
	}
	return true
}
