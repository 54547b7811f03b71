package determinism_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/determinism"
)

func TestDeterminism(t *testing.T) {
	analysistest.Run(t, "testdata", determinism.Analyzer,
		// Exempt bench helpers first: facts only, no findings. Their
		// summaries and NetFact feed the simulation fixtures below.
		"repro/internal/bench/twrap",
		"repro/internal/bench/keyhelp",
		"repro/internal/bench/netprobe",
		"repro/internal/simfix",  // direct sources, seeded-OK cases, references, suppressions
		"repro/internal/detfix",  // laundered calls, the bridge and allow sanitizers
		"repro/internal/wallfix", // banned imports, allowed imports, a suppression
		// The wall-clock side: no findings expected.
		"repro/cmd/simfixcmd",
		"repro/cmd/wallfixcmd",
	)
}
