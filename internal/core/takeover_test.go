package core_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
)

// TestTakeOverLiveSession hijacks a session that was established *before*
// the attacker appeared: reset the device with a forged in-window RST,
// swallow the stale flow, and let the reconnect land on the spoofed
// listener — silently.
func TestTakeOverLiveSession(t *testing.T) {
	tb, err := experiment.NewTestbed(experiment.TestbedConfig{Seed: 91, Devices: []string{"C2"}})
	if err != nil {
		t.Fatal(err)
	}
	// The attacker's foothold exists from the start (its passive capture
	// hears everything, as a sniffing device would), but the home connects
	// DIRECTLY: no poisoning is in place yet.
	atk, err := tb.NewAttacker()
	if err != nil {
		t.Fatal(err)
	}
	capture := tb.NewCapture(0)
	tb.Start()
	tb.Clock.RunFor(time.Minute) // sniff a few keep-alive exchanges
	if !tb.Device("H3").Connected() {
		t.Fatal("precondition: hub should be connected directly")
	}

	// Strike: poison (the live flow is now blackholed at the attacker) and
	// reset the device with a forged in-window RST.
	h, err := tb.Hijack(atk, "C2")
	if err != nil {
		t.Fatal(err)
	}
	if err := h.TakeOver(capture); err != nil {
		t.Fatalf("TakeOver failed: %v", err)
	}

	// Device side dies, reconnects through the attacker.
	tb.Clock.RunFor(30 * time.Second)
	if _, ok := h.CurrentBridge(); !ok {
		t.Fatal("no bridge after takeover: reconnect did not land on the attacker")
	}
	if !tb.Device("H3").Connected() {
		t.Fatal("device did not re-establish its session")
	}
	// The server never alarmed: the old connection lingers half-open and
	// the replacement arrived quickly.
	if tb.TotalAlarmCount() != 0 {
		t.Fatalf("takeover raised %d alarms", tb.TotalAlarmCount())
	}

	// And the new, bridged session is fully attackable.
	h.EDelay("C2", 20*time.Second)
	if err := tb.Device("C2").TriggerEvent("contact", "open"); err != nil {
		t.Fatal(err)
	}
	tb.Clock.RunFor(time.Minute)
	if len(tb.Integration.Events()) != 1 {
		t.Fatalf("post-takeover delayed event not delivered: %d", len(tb.Integration.Events()))
	}
}

func TestTakeOverRequiresInstall(t *testing.T) {
	tb, err := experiment.NewTestbed(experiment.TestbedConfig{Seed: 92, Devices: []string{"C2"}})
	if err != nil {
		t.Fatal(err)
	}
	atk, err := tb.NewAttacker()
	if err != nil {
		t.Fatal(err)
	}
	target, err := tb.HijackTarget("C2")
	if err != nil {
		t.Fatal(err)
	}
	h := core.NewHijacker(atk, target, nil)
	if err := h.TakeOver(tb.NewCapture(0)); err == nil {
		t.Fatal("TakeOver before Install should fail")
	}
}

func TestTakeOverWithoutObservedFlowFails(t *testing.T) {
	tb, err := experiment.NewTestbed(experiment.TestbedConfig{Seed: 93, Devices: []string{"C2"}})
	if err != nil {
		t.Fatal(err)
	}
	atk, err := tb.NewAttacker()
	if err != nil {
		t.Fatal(err)
	}
	capture := tb.NewCapture(0)
	h, err := tb.Hijack(atk, "C2") // installed, but nothing has connected yet
	if err != nil {
		t.Fatal(err)
	}
	if err := h.TakeOver(capture); err == nil {
		t.Fatal("TakeOver with no observed flow should fail")
	}
}
