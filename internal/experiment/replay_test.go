package experiment

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/sniff"
)

// replayProbeLabels covers every protection combination in the catalog:
// two raw-vulnerable legacy stacks (P3 HTTP, P4 MQTT), two app-vulnerable
// null-cipher stacks (T1 long-poll, W1 on-demand), the three knob-protected
// devices (L3 window, V1 cloud dedup, K2 both), and three seq-bound
// controls across transports (C1 hub child, H1 HomeKit, M7 on-demand).
var replayProbeLabels = []string{"P3", "P4", "T1", "W1", "L3", "V1", "K2", "C1", "H1", "M7"}

func TestReplayAssessmentClasses(t *testing.T) {
	want := map[string]ReplayClass{
		"P3": ReplayRawVulnerable,
		"P4": ReplayRawVulnerable,
		"T1": ReplayAppVulnerable,
		"W1": ReplayAppVulnerable,
		"L3": ReplayProtected,
		"V1": ReplayProtected,
		"K2": ReplayProtected,
		"C1": ReplayProtected,
		"H1": ReplayProtected,
		"M7": ReplayProtected,
	}
	results := RunReplayAssessment(replayProbeLabels, ReplayOptions{Seed: 1})
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Label, r.Err)
		}
		if r.Class != want[r.Label] {
			t.Errorf("%s classified %s, want %s (raw=%v app=%v)", r.Label, r.Class, want[r.Label], r.RawAccepted, r.AppAccepted)
		}
	}
	// The lattice must be visible in the per-path outcomes too: a
	// raw-vulnerable device never reaches the app path, an app-vulnerable
	// one must have failed raw first.
	for _, r := range results {
		if r.RawAccepted && r.AppAccepted {
			t.Errorf("%s: both paths accepted — app replay should not run after raw success", r.Label)
		}
	}
}

// TestReplayAssessmentDeterministic pins the contract the fleet and CLI
// build on: same options, byte-identical table.
func TestReplayAssessmentDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	FormatReplayTable(&a, RunReplayAssessment(replayProbeLabels, ReplayOptions{Seed: 7}))
	FormatReplayTable(&b, RunReplayAssessment(replayProbeLabels, ReplayOptions{Seed: 7}))
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("assessment not deterministic:\n--- first\n%s\n--- second\n%s", a.String(), b.String())
	}
}

// TestReplayAssessmentTrace checks the Enabled-at-Instrument convention
// end to end: with a trace ring the engine emits replay_injected plus a
// verdict event; without one the assessment still works and the metrics
// counters carry the same story.
func TestReplayAssessmentTrace(t *testing.T) {
	results := RunReplayAssessment([]string{"P4"}, ReplayOptions{Seed: 3, TraceCap: 4096})
	r := results[0]
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	var injected, verdicts int
	for _, ev := range r.Trace {
		if ev.Component != "replay" {
			continue
		}
		switch ev.Event {
		case "replay_injected":
			injected++
		case "replay_accepted", "replay_rejected":
			verdicts++
		}
	}
	if injected == 0 || verdicts == 0 {
		t.Fatalf("trace missing replay events: injected=%d verdicts=%d", injected, verdicts)
	}

	find := func(s obs.Snapshot, name string) uint64 {
		var total uint64
		for _, c := range s.Counters {
			if c.Name == name {
				total += c.Value
			}
		}
		return total
	}
	if find(r.Metrics, "replay_injected_total") == 0 {
		t.Fatal("replay_injected_total not incremented")
	}
	if find(r.Metrics, "replay_accepted_total") == 0 {
		t.Fatal("raw-vulnerable device should count an accepted replay")
	}

	// Traceless run (the recorder is off unless asked for, as in fleet
	// campaigns): identical classification, no trace events.
	quiet := RunReplayAssessment([]string{"P4"}, ReplayOptions{Seed: 3})
	if quiet[0].Class != r.Class {
		t.Fatalf("traceless class %s != traced class %s", quiet[0].Class, r.Class)
	}
	if len(quiet[0].Trace) != 0 {
		t.Fatal("traceless run emitted trace events")
	}
}

// replayLab builds a one-device home from cfg with a capture that retains
// retain bytes of payload per flow, hijacks the device and starts the home.
func replayLab(t *testing.T, cfg TestbedConfig, retain int) (*Testbed, *core.Hijacker, *core.Lab, *sniff.Capture) {
	t.Helper()
	label := cfg.Devices[0]
	tb, err := NewTestbed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	atk, err := tb.NewAttacker()
	if err != nil {
		t.Fatal(err)
	}
	capture := tb.NewCapture(retain)
	h, err := tb.Hijack(atk, label)
	if err != nil {
		t.Fatal(err)
	}
	tb.Start()
	lab, err := tb.NewLab(h, label)
	if err != nil {
		t.Fatal(err)
	}
	return tb, h, lab, capture
}

// TestReplayTrialRetention exercises the capture budget path: a budget
// smaller than one event record evicts everything, so the trial finds no
// record and tries neither injection.
func TestReplayTrialRetention(t *testing.T) {
	tb, h, lab, capture := replayLab(t, TestbedConfig{Seed: 5, Devices: []string{"P4"}}, 64)
	f, err := tb.ReplayTrial(h, lab, capture, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if f != (ReplayFacts{}) {
		t.Fatalf("replay under a 64-byte budget: %+v, want no record found", f)
	}
}

// TestReplayTrialFacts runs each injection path alone on one device: the
// legacy-nonce P4 accepts its record re-injected raw, but its sealed
// capture cannot be replayed at the application layer; the null-cipher T1
// drops the raw duplicate inside its window, but accepts the replayed
// plaintexts from a fresh session. Without its window T1 is open to both
// paths, and with both on, the application path must not run after the
// raw one landed.
func TestReplayTrialFacts(t *testing.T) {
	t1 := device.Index()["T1"]
	t1.ReplayWindow = 0
	cases := []struct {
		label     string
		overrides []device.Profile
		raw, app  bool
		want      ReplayFacts
	}{
		{"P4", nil, true, false, ReplayFacts{Found: true, RawAccepted: true}},
		{"P4", nil, false, true, ReplayFacts{Found: true}},
		{"T1", nil, true, false, ReplayFacts{Found: true}},
		{"T1", nil, false, true, ReplayFacts{Found: true, AppAccepted: true}},
		{"T1", []device.Profile{t1}, false, true, ReplayFacts{Found: true, AppAccepted: true}},
		{"T1", []device.Profile{t1}, true, true, ReplayFacts{Found: true, RawAccepted: true}},
	}
	for _, tc := range cases {
		cfg := TestbedConfig{Seed: 5, Devices: []string{tc.label}, Overrides: tc.overrides}
		tb, h, lab, capture := replayLab(t, cfg, replayRetainBytes)
		f, err := tb.ReplayTrial(h, lab, capture, tc.raw, tc.app)
		if err != nil {
			t.Fatal(err)
		}
		if f != tc.want {
			t.Errorf("%s (overrides %d) raw=%v app=%v: %+v, want %+v", tc.label, len(tc.overrides), tc.raw, tc.app, f, tc.want)
		}
	}
}
