package experiment

import (
	"strings"
	"testing"
	"time"
)

// The render functions back the CLI; they must at least produce every
// section header and one row per input.
func TestFormatRowsOutput(t *testing.T) {
	rows := RunTable([]string{"K2"}, TableOptions{Seed: 3, Trials: 1})
	var sb strings.Builder
	FormatRows(&sb, "Table X", rows)
	out := sb.String()
	for _, want := range []string{"Table X", "K2", "SimpliSafe", "http-long"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFormatCaseResultsOutput(t *testing.T) {
	results := RunCases([]Case{Table3Cases()[9]}, 11)
	var sb strings.Builder
	FormatCaseResults(&sb, results)
	out := sb.String()
	for _, want := range []string{"Table III", "disabled", "ok"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFormatVerifyAndFindingsOutput(t *testing.T) {
	var sb strings.Builder
	FormatVerifyResults(&sb, RunVerification([]string{"K2"}, VerifyOptions{Seed: 5, Trials: 1}))
	FormatFindings(&sb, RunFindings(6))
	out := sb.String()
	for _, want := range []string{"Verification", "K2", "Finding 1", "Finding 2", "Finding 3", "holds"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFormatDefenseAndAblationOutput(t *testing.T) {
	var sb strings.Builder
	ack := RunAckTimeoutDefense("C2", []time.Duration{10 * time.Second}, 7)
	ts := RunTimestampDefense(8)
	FormatDefenseResults(&sb, ack, ts)
	margins := RunMarginAblation("C1", []time.Duration{2 * time.Second}, 1, 9)
	boundary := RunDetectionBoundary("C1", []time.Duration{40 * time.Second}, 10)
	FormatAblation(&sb, margins, boundary)
	out := sb.String()
	for _, want := range []string{"VII-A", "VII-B", "release margin", "detection cliff", "C2", "stock"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}
