package core_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/rules"
	"repro/internal/sniff"
	"repro/internal/tlssim"
)

// TestBridgeRawPolicyHoldAndTimedRelease exercises the bridge primitives
// directly: a raw policy holding all device-to-server application records,
// inspection of the hold queue, and a scheduled ReleaseAfter.
func TestBridgeRawPolicyHoldAndTimedRelease(t *testing.T) {
	tb, _, h := hijackedHome(t, "C2", "C2")
	b, ok := h.CurrentBridge()
	if !ok {
		t.Fatal("no bridge")
	}
	h.SetRawPolicy(func(_ *core.Bridge, r core.RecordInfo) core.Decision {
		if r.Dir == sniff.DirClientToServer && r.Type == tlssim.RecordApplication {
			return core.Hold
		}
		return core.Forward
	})
	if err := tb.Device("C2").TriggerEvent("contact", "open"); err != nil {
		t.Fatal(err)
	}
	tb.Clock.RunFor(time.Second)
	if got := b.HeldCount(sniff.DirClientToServer); got < 1 {
		t.Fatalf("held = %d, want >= 1", got)
	}
	holding, since := b.Holding(sniff.DirClientToServer)
	if !holding || since == 0 {
		t.Fatalf("holding=%v since=%v", holding, since)
	}
	if len(tb.Integration.Events()) != 0 {
		t.Fatal("event leaked through a holding bridge")
	}

	// Timed flush. Restore a pass-through policy first so later records flow.
	h.SetRawPolicy(core.ForwardAll)
	b.ReleaseAfter(sniff.DirClientToServer, 10*time.Second)
	tb.Clock.RunFor(5 * time.Second)
	if len(tb.Integration.Events()) != 0 {
		t.Fatal("released early")
	}
	tb.Clock.RunFor(10 * time.Second)
	if len(tb.Integration.Events()) != 1 {
		t.Fatalf("events after timed release = %d", len(tb.Integration.Events()))
	}
	if holding, _ := b.Holding(sniff.DirClientToServer); holding {
		t.Fatal("still holding after release")
	}
}

// TestBridgeOrderingForcesQueueing: once one record is held, later records
// in the same direction queue behind it even if the policy would forward
// them — the TLS sequencing constraint.
func TestBridgeOrderingForcesQueueing(t *testing.T) {
	tb, _, h := hijackedHome(t, "C2", "C2")
	b, _ := h.CurrentBridge()
	held := 0
	h.SetRawPolicy(func(_ *core.Bridge, r core.RecordInfo) core.Decision {
		if r.Dir == sniff.DirClientToServer && r.Type == tlssim.RecordApplication && held == 0 {
			held++
			return core.Hold
		}
		return core.Forward // policy would forward, ordering must override
	})
	_ = tb.Device("C2").TriggerEvent("contact", "open")
	tb.Clock.RunFor(time.Second)
	_ = tb.Device("C2").TriggerEvent("contact", "closed")
	tb.Clock.RunFor(time.Second)
	if got := b.HeldCount(sniff.DirClientToServer); got < 2 {
		t.Fatalf("held = %d, want both records queued in order", got)
	}
	b.Release(sniff.DirClientToServer)
	tb.Clock.RunFor(time.Second)
	evs := tb.Integration.Events()
	if len(evs) != 2 || evs[0].Value != "open" || evs[1].Value != "closed" {
		t.Fatalf("events after release = %v (order must be preserved)", evs)
	}
}

// TestServerCloseReachesDevice: unlike a device-side close (Finding 2),
// a server-side close is never hidden from the device, which would only
// zombify its session; with nothing held, the bridge closes the device side
// at once.
func TestServerCloseReachesDevice(t *testing.T) {
	tb, _, h := hijackedHome(t, "C2", "C2")
	b, _ := h.CurrentBridge()
	// Kill the server side brutally.
	b.ServerConn().Abort()
	tb.Clock.RunFor(10 * time.Second)
	if closed, _ := b.ServerClosed(); !closed {
		t.Fatal("server side should be closed")
	}
	if closed, _ := b.DeviceClosed(); !closed {
		t.Fatal("the server-side close did not reach the device side")
	}
}

// TestAttackerForwardsUnrelatedFlows: the MITM is transparent for devices
// it poisons but does not attack — and invisible to devices it never
// touched.
func TestAttackerForwardsUnrelatedFlows(t *testing.T) {
	tb, _, _ := hijackedHome(t, "C2", "C2", "P2", "M7")
	// P2 and M7 are not hijacked: their flows bypass the attacker entirely
	// (no poisoning); everything must work.
	if err := tb.Device("P2").TriggerEvent("switch", "on"); err != nil {
		t.Fatal(err)
	}
	if err := tb.Device("M7").TriggerEvent("motion", "active"); err != nil {
		t.Fatal(err)
	}
	tb.Clock.RunFor(5 * time.Second)
	seen := map[string]bool{}
	for _, ev := range tb.Integration.Events() {
		seen[ev.Device] = true
	}
	if !seen["P2"] || !seen["M7"] {
		t.Fatalf("unrelated devices broken by the attack: %v", seen)
	}
	if tb.TotalAlarmCount() != 0 {
		t.Fatalf("alarms = %d", tb.TotalAlarmCount())
	}
}

// TestTwoHijackersSameAttacker: one foothold, two victims, independent
// delay policies.
func TestTwoHijackersSameAttacker(t *testing.T) {
	tb, err := newTB(77, "C2", "P2")
	if err != nil {
		t.Fatal(err)
	}
	atk, err := tb.NewAttacker()
	if err != nil {
		t.Fatal(err)
	}
	hRing, err := tb.Hijack(atk, "C2")
	if err != nil {
		t.Fatal(err)
	}
	hKasa, err := tb.Hijack(atk, "P2")
	if err != nil {
		t.Fatal(err)
	}
	tb.Start()

	hRing.EDelay("C2", 30*time.Second)
	hKasa.EDelay("P2", 10*time.Second)
	_ = tb.Device("C2").TriggerEvent("contact", "open")
	_ = tb.Device("P2").TriggerEvent("switch", "on")

	tb.Clock.RunFor(15 * time.Second)
	evs := tb.Integration.Events()
	if len(evs) != 1 || evs[0].Device != "P2" {
		t.Fatalf("after 15s want only P2's event, got %v", evs)
	}
	tb.Clock.RunFor(30 * time.Second)
	if len(tb.Integration.Events()) != 2 {
		t.Fatalf("both events should have landed, got %d", len(tb.Integration.Events()))
	}
	if tb.TotalAlarmCount() != 0 {
		t.Fatalf("alarms = %d", tb.TotalAlarmCount())
	}
}

// TestDelayMatchingCustomMatcher delays only a specific record size class.
func TestDelayMatchingCustomMatcher(t *testing.T) {
	tb, _, h := hijackedHome(t, "C2", "C2", "M3")
	// Delay only motion events (M3, 1010+21 wire bytes); contact events
	// (C2) pass freely — both ride the same H3 session.
	op := h.DelayMatching(sniff.DirClientToServer, func(cr core.ClassifiedRecord) bool {
		return cr.Known && cr.Msg.Origin == "M3"
	}, 20*time.Second)
	_ = tb.Device("M3").TriggerEvent("motion", "active")
	tb.Clock.RunFor(2 * time.Second)
	// C2's event arrives after M3's hold started: ordering queues it too —
	// demonstrate that the matcher picked M3's record as the head.
	if matched, _ := op.Matched(); !matched {
		t.Fatal("custom matcher never matched")
	}
	tb.Clock.RunFor(30 * time.Second)
	if len(tb.Integration.Events()) != 1 {
		t.Fatalf("motion event not delivered after hold: %v", tb.Integration.Events())
	}
}

// TestRuleEngineSeesDelayedOrder ties the stack together: event order at
// the rule engine equals release order, not physical order.
func TestRuleEngineSeesDelayedOrder(t *testing.T) {
	tb, err := newTB(88, "C2", "M7")
	if err != nil {
		t.Fatal(err)
	}
	atk, err := tb.NewAttacker()
	if err != nil {
		t.Fatal(err)
	}
	h, err := tb.Hijack(atk, "C2")
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Integration.AddRule(rules.Rule{
		Name:    "log-order",
		Trigger: rules.Trigger{Device: "M7", Attribute: "motion", Value: "active"},
		Actions: []rules.Action{{Kind: rules.ActionNotify, Message: "motion"}},
	}); err != nil {
		t.Fatal(err)
	}
	tb.Start()
	h.EDelay("C2", 20*time.Second)
	_ = tb.Device("C2").TriggerEvent("contact", "open") // physically first
	tb.Clock.RunFor(2 * time.Second)
	_ = tb.Device("M7").TriggerEvent("motion", "active") // physically second
	tb.Clock.RunFor(40 * time.Second)

	evs := tb.Integration.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %d", len(evs))
	}
	if evs[0].Device != "M7" || evs[1].Device != "C2" {
		t.Fatalf("server order = [%s %s], want the delayed event last", evs[0].Device, evs[1].Device)
	}
	if evs[1].GeneratedAt >= evs[0].GeneratedAt {
		t.Fatal("generation timestamps must still show the physical order")
	}
}

func newTB(seed int64, labels ...string) (*experiment.Testbed, error) {
	return experiment.NewTestbed(experiment.TestbedConfig{Seed: seed, Devices: labels})
}
