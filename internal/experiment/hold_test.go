package experiment

import (
	"testing"
	"time"

	"repro/internal/cloud"
)

// TestHoldTrialFacts checks the facts the hold trial reports on a C1 home: a
// predictor-driven delay that releases inside the window, and a manual hold
// that never releases within the limit.
func TestHoldTrialFacts(t *testing.T) {
	tb, err := NewTestbed(TestbedConfig{Seed: 5, Devices: []string{"C1"}})
	if err != nil {
		t.Fatal(err)
	}
	h, lab, err := tb.HijackLab("C1")
	if err != nil {
		t.Fatal(err)
	}
	h.ArmPredictor(MeasuredFromProfile(tb.SessionOwnerProfile("C1")))

	f, err := tb.DelayTrial(h, lab, false, 2*time.Second, 0, 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	// C1's event window is 47 s, so a 2 s margin holds for about 45 s.
	if !f.Released || !f.Accepted || f.NewAlarms != 0 || f.Unbounded || f.Held < 40*time.Second || f.Held > 46*time.Second {
		t.Fatalf("released hold: %+v, want a bounded hold released after about 45s, accepted, no new alarm", f)
	}

	tb.Clock.RunFor(time.Minute)
	op := h.EDelay("C1", 0) // a manual hold: only the caller releases it
	start, limit := tb.Clock.Now(), time.Minute
	f, err = tb.holdTrial(op, lab.TriggerEvent, "C1", limit)
	if err != nil {
		t.Fatal(err)
	}
	if matched, _ := op.Matched(); !matched {
		t.Fatal("manual hold never captured the event")
	}
	if f.Released || f.Held != 0 {
		t.Fatalf("manual hold: %+v, want Released false and Held 0", f)
	}
	if want := start + limit + 5*time.Second; tb.Clock.Now() != want {
		t.Fatalf("clock at %v after an unreleased hold, want trigger + limit + 5s = %v", tb.Clock.Now(), want)
	}
	op.Release()
}

// TestDelayTrialFacts checks DelayTrial's two other branches: a command held
// to the margin before its bounded window closes (LK1 behind its hub), and
// an event whose window no timeout bounds (the HomeKit A1), held for the
// given fixed time.
func TestDelayTrialFacts(t *testing.T) {
	trial := func(label string, command bool, hold time.Duration) HoldFacts {
		tb, err := NewTestbed(TestbedConfig{Seed: 5, Devices: []string{label}})
		if err != nil {
			t.Fatal(err)
		}
		h, lab, err := tb.HijackLab(label)
		if err != nil {
			t.Fatal(err)
		}
		h.ArmPredictor(MeasuredFromProfile(tb.SessionOwnerProfile(label)))
		f, err := tb.DelayTrial(h, lab, command, 2*time.Second, hold, hold+10*time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	// The H5 hub's 16 s command timeout bounds LK1's commands, so a 2 s
	// margin holds for about 14 s, and the lock still reports the state the
	// command set.
	f := trial("LK1", true, time.Hour)
	if !f.Released || !f.Accepted || f.NewAlarms != 0 || f.Unbounded || f.Held < 13*time.Second || f.Held > 15*time.Second {
		t.Errorf("LK1 command: %+v, want a bounded hold released after about 14s, accepted, no new alarm", f)
	}

	hold := 10 * time.Minute
	f = trial("A1", false, hold)
	if !f.Released || !f.Accepted || f.NewAlarms != 0 || !f.Unbounded || f.Held != hold {
		t.Errorf("A1 event: %+v, want an unbounded hold released after exactly %v, accepted, no new alarm", f, hold)
	}
}

// TestDelayTrialZeroMargin: a zero margin releases at the predicted close,
// exactly C1's 47 s event window after the event.
func TestDelayTrialZeroMargin(t *testing.T) {
	tb, err := NewTestbed(TestbedConfig{Seed: 5, Devices: []string{"C1"}})
	if err != nil {
		t.Fatal(err)
	}
	h, lab, err := tb.HijackLab("C1")
	if err != nil {
		t.Fatal(err)
	}
	h.ArmPredictor(MeasuredFromProfile(tb.SessionOwnerProfile("C1")))
	f, err := tb.DelayTrial(h, lab, false, 0, 0, 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Released || f.Unbounded || f.Held != 47*time.Second {
		t.Fatalf("zero-margin hold: %+v, want a bounded hold released after exactly 47s", f)
	}
}

// TestDemonstrateDelayNeedsAcceptance: in a C1 home whose server silently
// discards events older than 30 s, the table's 45 s demonstration hold
// releases, the server drops the event without an alarm, and
// demonstrateDelay reports the failure.
func TestDemonstrateDelayNeedsAcceptance(t *testing.T) {
	tb, err := NewTestbed(TestbedConfig{
		Seed:        5,
		Devices:     []string{"C1"},
		Integration: cloud.IntegrationConfig{Policy: cloud.StaleDiscardSilently, MaxEventAge: 30 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	h, lab, err := tb.HijackLab("C1")
	if err != nil {
		t.Fatal(err)
	}
	h.ArmPredictor(MeasuredFromProfile(tb.SessionOwnerProfile("C1")))
	if _, _, err := demonstrateDelay(tb, h, lab, time.Hour, false); err == nil {
		t.Fatal("demonstrateDelay accepted a delay whose event the server discarded")
	}
	if n, alarms := len(tb.Integration.Discarded()), tb.TotalAlarmCount(); n != 1 || alarms != 0 {
		t.Fatalf("%d events discarded and %d alarms, want 1 and 0", n, alarms)
	}
}
