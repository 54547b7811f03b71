package core_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/proto"
	"repro/internal/rules"
	"repro/internal/sniff"
)

// hijackedHome deploys the given devices with a hijacker already installed
// on target before anything connects.
func hijackedHome(t *testing.T, target string, labels ...string) (*experiment.Testbed, *core.Attacker, *core.Hijacker) {
	t.Helper()
	// The flight recorder is on, so a test can read the attack's events.
	tb, err := experiment.NewTestbed(experiment.TestbedConfig{Seed: 21, Devices: labels, TraceCap: 4096})
	if err != nil {
		t.Fatal(err)
	}
	atk, err := tb.NewAttacker()
	if err != nil {
		t.Fatal(err)
	}
	h, err := tb.Hijack(atk, target)
	if err != nil {
		t.Fatal(err)
	}
	tb.Start()
	return tb, atk, h
}

func TestHijackedSessionWorksTransparently(t *testing.T) {
	tb, _, h := hijackedHome(t, "C2", "C2")
	if _, ok := h.CurrentBridge(); !ok {
		t.Fatal("no bridge established; the session did not route through the attacker")
	}
	if err := tb.Device("C2").TriggerEvent("contact", "open"); err != nil {
		t.Fatal(err)
	}
	tb.Clock.RunFor(2 * time.Second)
	evs := tb.Integration.Events()
	if len(evs) == 0 || evs[len(evs)-1].Device != "C2" {
		t.Fatalf("event did not traverse the bridge: %v", evs)
	}
	if tb.TotalAlarmCount() != 0 {
		t.Fatalf("transparent relay raised %d alarms", tb.TotalAlarmCount())
	}
}

func TestHijackSurvivesLongIdleWithKeepAlives(t *testing.T) {
	tb, _, h := hijackedHome(t, "H1", "H1")
	tb.Clock.RunFor(20 * time.Minute)
	b, ok := h.CurrentBridge()
	if !ok || !b.Alive() {
		t.Fatal("bridge died during idle keep-alive traffic")
	}
	if !tb.Device("H1").Connected() {
		t.Fatal("device session died behind the bridge")
	}
	if tb.TotalAlarmCount() != 0 {
		t.Fatalf("alarms = %d", tb.TotalAlarmCount())
	}
}

func TestNoRetransmissionsDuringDelay(t *testing.T) {
	// The paper's distinction from jamming: no packets are dropped, so no
	// retransmissions occur anywhere while records are held.
	tb, _, h := hijackedHome(t, "C2", "C2")
	op := h.EDelay("C2", 20*time.Second)
	if err := tb.Device("C2").TriggerEvent("contact", "open"); err != nil {
		t.Fatal(err)
	}
	tb.Clock.RunFor(40 * time.Second)
	if matched, _ := op.Matched(); !matched {
		t.Fatal("delay op never matched the event record")
	}
	if !op.Released() {
		t.Fatal("delay op never released")
	}
	b := h.Bridges()[0]
	if n := b.DeviceConn().Stats().Retransmits; n != 0 {
		t.Fatalf("attacker->device retransmits = %d, want 0", n)
	}
	if n := b.ServerConn().Stats().Retransmits; n != 0 {
		t.Fatalf("attacker->server retransmits = %d, want 0", n)
	}
}

func TestEDelayDelaysDeliveryWithoutAlarms(t *testing.T) {
	tb, _, h := hijackedHome(t, "C2", "C2")
	const hold = 25 * time.Second
	h.EDelay("C2", hold)

	trigger := tb.Clock.Now()
	if err := tb.Device("C2").TriggerEvent("contact", "open"); err != nil {
		t.Fatal(err)
	}
	tb.Clock.RunFor(10 * time.Second)
	if len(tb.Integration.Events()) != 0 {
		t.Fatal("event arrived while it should be held")
	}
	tb.Clock.RunFor(30 * time.Second)
	evs := tb.Integration.Events()
	if len(evs) != 1 {
		t.Fatalf("events after release = %d, want 1", len(evs))
	}
	delay := evs[0].ReceivedAt - trigger
	if delay < hold || delay > hold+2*time.Second {
		t.Fatalf("delivery delayed %v, want about %v", delay, hold)
	}
	// The delayed event is accepted and usable; nothing anywhere alarmed.
	if tb.TotalAlarmCount() != 0 {
		t.Fatalf("alarms = %d, want 0", tb.TotalAlarmCount())
	}
	// And the device still believes everything is fine.
	if !tb.Device("H3").Connected() {
		t.Fatal("hub session died")
	}
}

func TestCDelayDelaysActuation(t *testing.T) {
	tb, _, h := hijackedHome(t, "LK1", "LK1", "C2")
	if err := tb.Integration.AddRule(rules.Rule{
		Name:    "lock-on-close",
		Trigger: rules.Trigger{Device: "C2", Attribute: "contact", Value: "closed"},
		Actions: []rules.Action{{Kind: rules.ActionCommand, Device: "LK1", Attribute: "lock", Value: "locked"}},
	}); err != nil {
		t.Fatal(err)
	}
	const hold = 10 * time.Second
	h.CDelay("LK1", hold)

	start := tb.Clock.Now()
	if err := tb.Device("C2").TriggerEvent("contact", "closed"); err != nil {
		t.Fatal(err)
	}
	tb.Clock.RunFor(5 * time.Second)
	if got := tb.Device("LK1").State("lock"); got == "locked" {
		t.Fatal("lock actuated while command should be held")
	}
	tb.Clock.RunFor(10 * time.Second)
	if got := tb.Device("LK1").State("lock"); got != "locked" {
		t.Fatalf("lock state = %q after release, want locked", got)
	}
	var lockedAt time.Duration
	for _, e := range tb.Device("LK1").Log() {
		if e.Kind == "command-applied" {
			lockedAt = e.At - start
		}
	}
	if lockedAt < hold {
		t.Fatalf("actuation after %v, want >= %v", lockedAt, hold)
	}
	if tb.TotalAlarmCount() != 0 {
		t.Fatalf("alarms = %d, want 0", tb.TotalAlarmCount())
	}
}

func TestHoldingPastTimeoutRaisesDeviceSideTimeout(t *testing.T) {
	// Holding *too long* does trip the device's own timer — the boundary
	// the primitives must stay inside. SmartThings: event held; next
	// keep-alive at +31s; ping deadline 16s later; device closes at ~47s.
	tb, _, h := hijackedHome(t, "C1", "C1")
	op := h.EDelay("C1", 0) // manual: hold forever
	if err := tb.Device("C1").TriggerEvent("contact", "open"); err != nil {
		t.Fatal(err)
	}
	tb.Clock.RunFor(time.Second)
	matched, matchedAt := op.Matched()
	if !matched {
		t.Fatal("event not captured")
	}
	b := h.Bridges()[0]
	tb.Clock.RunFor(2 * time.Minute)
	closed, closedAt := b.DeviceClosed()
	if !closed {
		t.Fatal("device never timed out despite indefinite hold")
	}
	want := 47 * time.Second
	if held := closedAt - matchedAt; held < want-3*time.Second || held > want+3*time.Second {
		t.Fatalf("device closed after %v, want about %v (31s keep-alive + 16s timeout)", held, want)
	}
}

func TestMaxEDelayReleasesBeforeTimeout(t *testing.T) {
	// With a measured profile armed, MaxEDelay holds until margin before
	// the predicted timeout: the session survives and the event arrives.
	tb, _, h := hijackedHome(t, "C1", "C1")
	h.ArmPredictor(core.Measured{
		Model:            "H1",
		HasKeepAlive:     true,
		KeepAlivePeriod:  31 * time.Second,
		Pattern:          proto.PatternOnIdle,
		KeepAliveTimeout: 16 * time.Second,
	})
	op := h.MaxEDelay("C1", 2*time.Second)
	var heldFor time.Duration
	op.OnReleased = func(d time.Duration) { heldFor = d }

	if err := tb.Device("C1").TriggerEvent("contact", "open"); err != nil {
		t.Fatal(err)
	}
	tb.Clock.RunFor(2 * time.Minute)
	if !op.Released() {
		t.Fatal("never released")
	}
	// Window is 47s; margin 2s → ~45s hold.
	if heldFor < 43*time.Second || heldFor > 46*time.Second {
		t.Fatalf("held %v, want about 45s", heldFor)
	}
	// Event accepted, session alive, zero alarms.
	if len(tb.Integration.Events()) != 1 {
		t.Fatalf("events = %d, want 1", len(tb.Integration.Events()))
	}
	if !tb.Device("H1").Connected() {
		t.Fatal("session died: released too late")
	}
	if tb.TotalAlarmCount() != 0 {
		t.Fatalf("alarms = %d", tb.TotalAlarmCount())
	}
}

func TestDelayOtherDevicesUntouched(t *testing.T) {
	// Selectivity: delaying C2's events leaves P2 (different session, not
	// even hijacked) and H3's keep-alives untouched.
	tb, _, h := hijackedHome(t, "C2", "C2", "P2")
	h.EDelay("C2", 30*time.Second)
	if err := tb.Device("C2").TriggerEvent("contact", "open"); err != nil {
		t.Fatal(err)
	}
	tb.Clock.RunFor(time.Second)
	if err := tb.Device("P2").TriggerEvent("switch", "on"); err != nil {
		t.Fatal(err)
	}
	tb.Clock.RunFor(5 * time.Second)
	evs := tb.Integration.Events()
	if len(evs) != 1 || evs[0].Device != "P2" {
		t.Fatalf("expected only P2's event to arrive, got %v", evs)
	}
}

func TestHAPUnboundedHold(t *testing.T) {
	// Table II: HomeKit events can be held for hours; release still lands.
	tb, _, h := hijackedHome(t, "A1", "A1", "A6")
	if err := tb.LocalHub.AddRule(rules.Rule{
		Name:    "light-on-open",
		Trigger: rules.Trigger{Device: "A1", Attribute: "contact", Value: "open"},
		Actions: []rules.Action{{Kind: rules.ActionCommand, Device: "A6", Attribute: "switch", Value: "on"}},
	}); err != nil {
		t.Fatal(err)
	}
	op := h.EDelay("A1", 0) // manual
	if err := tb.Device("A1").TriggerEvent("contact", "open"); err != nil {
		t.Fatal(err)
	}
	tb.Clock.RunFor(6 * time.Hour)
	if got := tb.Device("A6").State("switch"); got == "on" {
		t.Fatal("rule fired while the event was held")
	}
	if len(tb.LocalHub.Alarms()) != 0 {
		t.Fatalf("hub alarms during 6h hold: %v", tb.LocalHub.Alarms())
	}
	op.Release()
	tb.Clock.RunFor(5 * time.Second)
	if got := tb.Device("A6").State("switch"); got != "on" {
		t.Fatal("released event did not fire the rule")
	}
}

func TestDelayOpCancel(t *testing.T) {
	tb, _, h := hijackedHome(t, "C2", "C2")
	op := h.EDelay("C2", time.Minute)
	op.Cancel()
	if err := tb.Device("C2").TriggerEvent("contact", "open"); err != nil {
		t.Fatal(err)
	}
	tb.Clock.RunFor(2 * time.Second)
	if matched, _ := op.Matched(); matched {
		t.Fatal("cancelled op still matched")
	}
	if len(tb.Integration.Events()) != 1 {
		t.Fatal("event should have flowed normally")
	}
}

func TestSequentialDelayOps(t *testing.T) {
	tb, _, h := hijackedHome(t, "C2", "C2")
	op1 := h.EDelay("C2", 5*time.Second)
	op2 := h.EDelay("C2", 5*time.Second)
	if err := tb.Device("C2").TriggerEvent("contact", "open"); err != nil {
		t.Fatal(err)
	}
	tb.Clock.RunFor(15 * time.Second)
	if err := tb.Device("C2").TriggerEvent("contact", "closed"); err != nil {
		t.Fatal(err)
	}
	tb.Clock.RunFor(15 * time.Second)
	if m1, _ := op1.Matched(); !m1 {
		t.Fatal("op1 never matched")
	}
	if m2, _ := op2.Matched(); !m2 {
		t.Fatal("op2 never matched")
	}
	if got := len(tb.Integration.Events()); got != 2 {
		t.Fatalf("events = %d, want 2", got)
	}
}

// TestOpNeverCapturesQueuedRecord: C2 and M3 ride one H3 hub session. A
// record queued behind another op's hold is not at the head of a flowing
// direction, so no armed op captures it; a second op's shorter hold would
// otherwise cut the first one short.
func TestOpNeverCapturesQueuedRecord(t *testing.T) {
	tb, _, h := hijackedHome(t, "C2", "C2", "M3")
	h.EDelay("M3", 30*time.Second)
	short := h.EDelay("C2", 5*time.Second)
	_ = tb.Device("M3").TriggerEvent("motion", "active")
	tb.Clock.RunFor(2 * time.Second)
	_ = tb.Device("C2").TriggerEvent("contact", "open")
	tb.Clock.RunFor(10 * time.Second)
	if matched, _ := short.Matched(); matched {
		t.Fatal("an op captured a record queued behind another hold")
	}
	if n := len(tb.Integration.Events()); n != 0 {
		t.Fatalf("%d events escaped the 30 s hold", n)
	}
	tb.Clock.RunFor(25 * time.Second)
	evs := tb.Integration.Events()
	if len(evs) != 2 || evs[0].Device != "M3" || evs[1].Device != "C2" {
		t.Fatalf("events after the release = %v, want M3's then C2's", evs)
	}
	// The second op captures the next C2 event instead.
	_ = tb.Device("C2").TriggerEvent("contact", "closed")
	tb.Clock.RunFor(2 * time.Second)
	if matched, _ := short.Matched(); !matched {
		t.Fatal("the second op never captured C2's next event")
	}
}

func TestTLSAlertsNeverRaisedByHold(t *testing.T) {
	// Holding + in-order release never violates TLS: no alerts anywhere.
	tb, _, h := hijackedHome(t, "C2", "C2")
	h.EDelay("C2", 20*time.Second)
	if err := tb.Device("C2").TriggerEvent("contact", "open"); err != nil {
		t.Fatal(err)
	}
	tb.Clock.RunFor(time.Minute)
	// If TLS had failed, sessions would be down and events absent.
	if len(tb.Integration.Events()) != 1 {
		t.Fatal("event lost — integrity failure?")
	}
	if !tb.Device("H3").Connected() {
		t.Fatal("session down — alert fired?")
	}
}

func TestSnifferIdentifiesVictimBeforeHijack(t *testing.T) {
	// End-to-end recon: passive capture first, then identify, then verify
	// the identified model matches the deployed hub.
	tb, err := experiment.NewTestbed(experiment.TestbedConfig{Seed: 33, Devices: []string{"C2"}})
	if err != nil {
		t.Fatal(err)
	}
	capture := tb.NewCapture(0)
	tb.Start()
	tb.Clock.RunFor(3 * time.Minute)
	if err := tb.Device("C2").TriggerEvent("contact", "open"); err != nil {
		t.Fatal(err)
	}
	tb.Clock.RunFor(2 * time.Second)

	cl := sniff.NewClassifier(sniff.BuildCatalogSignatures())
	hubAddr := tb.DeviceAddrs["H3"]
	found := ""
	for _, flow := range capture.Flows() {
		if flow.Client.Addr != hubAddr {
			continue
		}
		if model, score, ok := cl.IdentifyFlow(capture.FlowRecords(flow)); ok && score > 0.5 {
			found = model
		}
	}
	if found != "H3" {
		t.Fatalf("recon identified %q, want H3", found)
	}
}
