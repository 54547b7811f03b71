package simdeterminism_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/simdeterminism"
)

func TestSimDeterminism(t *testing.T) {
	analysistest.Run(t, "testdata", simdeterminism.Analyzer,
		"repro/internal/bench/twrap", // laundering helper: facts only, no findings
		"repro/internal/simfix",      // violations, seeded-OK cases, suppressions
		"repro/cmd/simfixcmd",        // allowlisted subtree: no findings expected
	)
}
