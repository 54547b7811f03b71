// Package wallclockboundary_test keeps the import-boundary rule's own
// test after the rule moved into the determinism analyzer: it runs that
// analyzer over the import fixtures of the shared determinism/testdata
// tree, alone, while TestDeterminism runs every fixture in one graph.
package wallclockboundary_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/determinism"
)

func TestWallClockBoundary(t *testing.T) {
	analysistest.Run(t, "../determinism/testdata", determinism.Analyzer,
		"repro/internal/bench/netprobe", // exempt subtree: fact only, no findings
		"repro/internal/wallfix",        // banned imports, allowed imports, a suppression
		"repro/cmd/wallfixcmd",          // wall-clock side: no findings expected
	)
}
