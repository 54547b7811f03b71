package experiment

import (
	"testing"
	"time"
)

// TestHoldTrialFacts checks the facts HoldTrial reports on a C1 home: a
// predictor-driven hold that releases inside the window, and a manual hold
// that never releases within the limit.
func TestHoldTrialFacts(t *testing.T) {
	tb, err := NewTestbed(TestbedConfig{Seed: 5, Devices: []string{"C1"}})
	if err != nil {
		t.Fatal(err)
	}
	atk, err := tb.NewAttacker()
	if err != nil {
		t.Fatal(err)
	}
	h, err := tb.Hijack(atk, "C1")
	if err != nil {
		t.Fatal(err)
	}
	tb.Start()
	lab, err := tb.NewLab(h, "C1")
	if err != nil {
		t.Fatal(err)
	}
	h.ArmPredictor(MeasuredFromProfile(tb.SessionOwnerProfile("C1")))

	f, err := tb.HoldTrial(h.MaxEDelay("C1", 2*time.Second), lab.TriggerEvent, "C1", 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	// C1's event window is 47 s, so a 2 s margin holds for about 45 s.
	if !f.Released || !f.Accepted || f.NewAlarms != 0 || f.Held < 40*time.Second || f.Held > 46*time.Second {
		t.Fatalf("released hold: %+v, want released after about 45s, accepted, no new alarm", f)
	}

	tb.Clock.RunFor(time.Minute)
	op := h.EDelay("C1", 0) // a manual hold: only the caller releases it
	start, limit := tb.Clock.Now(), time.Minute
	f, err = tb.HoldTrial(op, lab.TriggerEvent, "C1", limit)
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
