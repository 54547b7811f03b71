package core_test

import (
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/ipnet"
)

// TestCellularBackupSilentUnderPhantomDelay reproduces the Case 1 aside:
// the Ring base station's cellular fallback "is never activated during our
// attack as the base station is not aware" — even when the hold runs past
// the window and the WiFi session dies, the reconnect succeeds (through
// the attacker) and the backup radio stays dark.
func TestCellularBackupSilentUnderPhantomDelay(t *testing.T) {
	tb, _, h := hijackedHome(t, "C2", "C2")
	hub := tb.Device("H3")
	if !hub.Profile().CellularBackup {
		t.Fatal("precondition: the Ring base station models a cellular backup")
	}

	// A maximal, even over-long hold: the device times out at ~60s and
	// reconnects — through the attacker, successfully.
	h.EDelay("C2", 0) // indefinite
	if err := tb.Device("C2").TriggerEvent("contact", "open"); err != nil {
		t.Fatal(err)
	}
	tb.Clock.RunFor(5 * time.Minute)
	if !hub.Connected() {
		t.Fatal("hub should be reconnected (through the attacker)")
	}
	if hub.CellularActive() {
		t.Fatal("phantom delay activated the cellular backup; it must not")
	}
}

// TestCellularBackupActivatesUnderBlackhole is the contrast: a
// jamming-style attacker that silently swallows the flow (instead of
// bridging it) makes every reconnect fail, and the backup radio comes up —
// the loud outcome the phantom delay avoids.
func TestCellularBackupActivatesUnderBlackhole(t *testing.T) {
	tb, err := experiment.NewTestbed(experiment.TestbedConfig{Seed: 1800, Devices: []string{"C2"}})
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
	// Jammer mode: poison both directions, swallow everything, bridge
	// nothing.
	atk.Spoofer.Poison(target.DeviceAddr, target.GatewayAddr)
	atk.Spoofer.Poison(target.GatewayAddr, target.DeviceAddr)
	atk.AddDivert(func(p ipnet.Packet) bool {
		return p.Src == target.DeviceAddr || p.Dst == target.DeviceAddr
	})
	tb.Clock.RunFor(time.Second)
	tb.Start()

	hub := tb.Device("H3")
	// Connect attempts run into the void; SYN retries exhaust (~1 minute
	// with backoff), the device retries, fails again, and falls back.
	tb.Clock.RunFor(10 * time.Minute)
	if hub.Connected() {
		t.Fatal("blackholed hub cannot be connected")
	}
	if !hub.CellularActive() {
		t.Fatalf("blackhole should force the cellular fallback (failed connects logged: %d)",
			hub.LogCount("closed"))
	}
	if hub.LogCount("cellular-activated") != 1 {
		t.Fatalf("cellular-activated log entries = %d", hub.LogCount("cellular-activated"))
	}
}
