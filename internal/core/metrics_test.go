package core_test

import (
	"testing"
	"time"

	"repro/internal/obs"
)

func TestAttackMetrics(t *testing.T) {
	tb, _, h := hijackedHome(t, "C2", "C2")
	const hold = 25 * time.Second
	h.EDelay("C2", hold)
	if err := tb.Device("C2").TriggerEvent("contact", "open"); err != nil {
		t.Fatal(err)
	}
	tb.Clock.RunFor(40 * time.Second)

	snap := tb.Metrics.Snapshot()
	if got := snap.Counter("core_bridges_total"); got == 0 {
		t.Fatal("no bridges counted")
	}
	if got := snap.Counter("core_records_held_total", obs.L("dir", "c2s")); got == 0 {
		t.Fatal("no held records counted")
	}
	released := snap.Counter("core_records_released_total", obs.L("dir", "c2s"))
	held := snap.Counter("core_records_held_total", obs.L("dir", "c2s"))
	if released != held {
		t.Fatalf("released %d != held %d after the hold ended", released, held)
	}
	g := snap.Gauge("core_held_records")
	if g.Value != 0 {
		t.Fatalf("held gauge = %d after release, want 0", g.Value)
	}
	if g.Max == 0 {
		t.Fatal("held gauge high-water mark never moved")
	}
	hv, ok := snap.Histogram("core_release_latency_seconds")
	if !ok || hv.Count == 0 {
		t.Fatal("release latency never observed")
	}
	// The one deliberate hold lasted ~25s; the histogram must place it in a
	// bucket bounded at >= hold.
	if hv.Sum < hold.Seconds() {
		t.Fatalf("release latency sum = %v, want >= %v", hv.Sum, hold.Seconds())
	}
	if got := snap.Counter("core_spoofed_sends_total"); got == 0 {
		t.Fatal("no spoofed sends counted")
	}
	// Records flowed both ways through the bridge.
	for _, dir := range []string{"c2s", "s2c"} {
		if got := snap.Counter("core_records_observed_total", obs.L("dir", dir)); got == 0 {
			t.Fatalf("no %s records observed", dir)
		}
	}
	// The flight recorder recorded the hold lifecycle.
	var sawHold, sawRelease bool
	for _, ev := range tb.Metrics.Trace().Events() {
		if ev.Component != "core" {
			continue
		}
		switch ev.Event {
		case "hold_start":
			sawHold = true
		case "release":
			sawRelease = true
		}
	}
	if !sawHold || !sawRelease {
		t.Fatalf("trace missing hold lifecycle: hold=%v release=%v", sawHold, sawRelease)
	}
}

func TestTransparentRelayCountsNoHolds(t *testing.T) {
	tb, _, h := hijackedHome(t, "C2", "C2")
	if err := tb.Device("C2").TriggerEvent("contact", "open"); err != nil {
		t.Fatal(err)
	}
	tb.Clock.RunFor(2 * time.Second)
	if _, ok := h.CurrentBridge(); !ok {
		t.Fatal("no bridge")
	}
	snap := tb.Metrics.Snapshot()
	for _, dir := range []string{"c2s", "s2c"} {
		if got := snap.Counter("core_records_held_total", obs.L("dir", dir)); got != 0 {
			t.Fatalf("transparent relay held %d %s records", got, dir)
		}
	}
	if got := snap.Counter("core_spoofed_sends_total"); got == 0 {
		t.Fatal("relayed records must count as spoofed sends")
	}
}
