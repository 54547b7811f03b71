// Package detflow_test keeps the laundering rule's own test after the
// rule moved into the determinism analyzer: it runs that analyzer over
// the laundered-call fixtures of the shared determinism/testdata tree,
// alone, while TestDeterminism runs every fixture in one graph.
package detflow_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/determinism"
)

func TestDetflow(t *testing.T) {
	analysistest.Run(t, "../determinism/testdata", determinism.Analyzer,
		"repro/internal/bench/keyhelp", // dependency first: its facts feed detfix
		"repro/internal/detfix")
}
