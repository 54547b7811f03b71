package wallclockboundary_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/wallclockboundary"
)

func TestWallClockBoundary(t *testing.T) {
	analysistest.Run(t, "testdata", wallclockboundary.Analyzer,
		"repro/internal/bench/netprobe", // exempt subtree: fact only, no findings
		"repro/internal/wallfix",        // banned imports, allowed imports, a suppression
		"repro/cmd/wallfixcmd",          // wall-clock side: no findings expected
	)
}
