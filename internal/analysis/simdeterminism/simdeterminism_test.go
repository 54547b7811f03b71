// Package simdeterminism_test keeps the direct-source rule's own test
// after the rule moved into the determinism analyzer: it runs that
// analyzer over the direct-source fixtures of the shared
// determinism/testdata tree, alone, while TestDeterminism runs every
// fixture in one graph.
package simdeterminism_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/determinism"
)

func TestSimDeterminism(t *testing.T) {
	analysistest.Run(t, "../determinism/testdata", determinism.Analyzer,
		"repro/internal/bench/twrap", // laundering helper: facts only, no findings
		"repro/internal/simfix",      // violations, seeded-OK cases, suppressions
		"repro/cmd/simfixcmd",        // allowlisted subtree: no findings expected
	)
}
