package core_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/experiment"
	"repro/internal/proto"
	"repro/internal/rules"
	"repro/internal/simtime"
	"repro/internal/sniff"
)

// TestAttackInBusyHome runs a Type-III attack while an 18-device home
// chatters in the background: selectivity and stealth must survive noise.
func TestAttackInBusyHome(t *testing.T) {
	labels := []string{
		"H1", "C1", "M1", "P1", "S1", // SmartThings family
		"L2", "S2", "M2", // Hue family
		"C2", "M3", "K1", // Ring family
		"LK1",                    // August lock
		"P2", "P3", "CM1", "SD1", // WiFi direct
		"M7", "C5", // on-demand
	}
	tb, err := experiment.NewTestbed(experiment.TestbedConfig{Seed: 1001, Devices: labels})
	if err != nil {
		t.Fatal(err)
	}
	atk, err := tb.NewAttacker()
	if err != nil {
		t.Fatal(err)
	}
	hLock, err := tb.Hijack(atk, "LK1")
	if err != nil {
		t.Fatal(err)
	}
	hPresence, err := tb.Hijack(atk, "P1")
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Integration.AddRule(rules.Rule{
		Name:      "lock-when-leaving",
		Trigger:   rules.Trigger{Device: "P1", Attribute: "presence", Value: "away"},
		Condition: rules.Eq{Device: "LK1", Attribute: "lock", Value: "unlocked"},
		Actions:   []rules.Action{{Kind: rules.ActionCommand, Device: "LK1", Attribute: "lock", Value: "locked"}},
	}); err != nil {
		t.Fatal(err)
	}
	tb.Start()
	_ = tb.Device("P1").TriggerEvent("presence", "present")
	_ = tb.Device("LK1").TriggerEvent("lock", "locked")
	tb.Clock.RunFor(5 * time.Second)

	// Background chatter: motion, plugs, cameras every few seconds.
	noiseMakers := []struct{ label, attr string }{
		{"M1", "motion"}, {"M2", "motion"}, {"M3", "motion"},
		{"P2", "switch"}, {"P3", "switch"}, {"CM1", "motion"}, {"M7", "motion"},
	}
	i := 0
	noise := simtime.NewTicker(tb.Clock, 7*time.Second, func() {
		n := noiseMakers[i%len(noiseMakers)]
		v := []string{"active", "inactive"}[i%2]
		if n.attr == "switch" {
			v = []string{"on", "off"}[i%2]
		}
		i++
		_ = tb.Device(n.label).TriggerEvent(n.attr, v)
	})
	defer noise.Stop()
	tb.Clock.RunFor(30 * time.Second)

	// The attack, amid the noise: Case-10 shape.
	core.DisabledExecution(hLock, "LK1", hPresence, "P1", 5*time.Second)
	_ = tb.Device("LK1").TriggerEvent("lock", "unlocked")
	tb.Clock.RunFor(5 * time.Second)
	_ = tb.Device("P1").TriggerEvent("presence", "away")
	tb.Clock.RunFor(2 * time.Minute)

	if got := tb.Device("LK1").State("lock"); got != "unlocked" {
		t.Fatalf("lock = %q; the attack should have disabled the rule", got)
	}
	if n := len(tb.Integration.Engine().Executions("lock-when-leaving")); n != 0 {
		t.Fatalf("rule fired %d times", n)
	}
	if tb.TotalAlarmCount() != 0 {
		t.Fatalf("alarms in busy home = %d", tb.TotalAlarmCount())
	}
	// The noise traffic kept flowing throughout.
	seen := map[string]int{}
	for _, ev := range tb.Integration.Events() {
		seen[ev.Device]++
	}
	for _, n := range noiseMakers {
		if seen[n.label] == 0 {
			t.Errorf("noise device %s starved during the attack", n.label)
		}
	}
}

// TestAttackUnderJitter: latency jitter must not break the predictor's
// margins (the margin exists precisely to absorb transit variance).
func TestAttackUnderJitter(t *testing.T) {
	tb, err := experiment.NewTestbed(experiment.TestbedConfig{
		Seed:    1002,
		Devices: []string{"C1"},
		Jitter:  0.5, // ±50% on every link
	})
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
	h.ArmPredictor(core.Measured{
		Model:            "H1",
		HasKeepAlive:     true,
		KeepAlivePeriod:  31 * time.Second,
		Pattern:          proto.PatternOnIdle,
		KeepAliveTimeout: 16 * time.Second,
	})
	for trial := 0; trial < 3; trial++ {
		op := h.MaxEDelay("C1", 2*time.Second)
		released := false
		op.OnReleased = func(time.Duration) { released = true }
		if err := tb.Device("C1").TriggerEvent("contact", "open"); err != nil {
			t.Fatal(err)
		}
		tb.Clock.RunFor(2 * time.Minute)
		if !released {
			t.Fatalf("trial %d never released", trial)
		}
		if !tb.Device("H1").Connected() {
			t.Fatalf("trial %d: session died under jitter", trial)
		}
	}
	if got := len(tb.Integration.Events()); got != 3 {
		t.Fatalf("events delivered = %d, want 3", got)
	}
	if tb.TotalAlarmCount() != 0 {
		t.Fatalf("alarms = %d", tb.TotalAlarmCount())
	}
}

// TestLargeRecordSpansSegments: an event record bigger than the TCP MSS
// crosses the bridge in several segments; the bridge must reassemble the
// record before holding and release it intact.
func TestLargeRecordSpansSegments(t *testing.T) {
	big, err := device.Lookup("C5")
	if err != nil {
		t.Fatal(err)
	}
	big.EventLen = 5000 // > MSS (1400): four segments per record
	tb, err := experiment.NewTestbed(experiment.TestbedConfig{
		Seed:      1003,
		Devices:   []string{"C5"},
		Overrides: []device.Profile{big},
	})
	if err != nil {
		t.Fatal(err)
	}
	atk, err := tb.NewAttacker()
	if err != nil {
		t.Fatal(err)
	}
	// The catalog signature no longer matches the fat record; the
	// attacker's lab signature of the overridden profile does.
	target, err := tb.HijackTarget("C5")
	if err != nil {
		t.Fatal(err)
	}
	cl := sniff.NewClassifier([]sniff.ModelSignature{sniff.BuildSignature(big, nil)})
	h := core.NewHijacker(atk, target, cl)
	if err := h.Install(); err != nil {
		t.Fatal(err)
	}
	tb.Clock.RunFor(500 * time.Millisecond)
	tb.Start()

	op := h.EDelay("C5", 20*time.Second)
	if err := tb.Device("C5").TriggerEvent("contact", "open"); err != nil {
		t.Fatal(err)
	}
	tb.Clock.RunFor(10 * time.Second)
	if matched, _ := op.Matched(); !matched {
		t.Fatal("fat record never matched — segment reassembly broken?")
	}
	if len(tb.Integration.Events()) != 0 {
		t.Fatal("record leaked during hold")
	}
	tb.Clock.RunFor(30 * time.Second)
	evs := tb.Integration.Events()
	if len(evs) != 1 || evs[0].Value != "open" {
		t.Fatalf("fat record not delivered intact: %v", evs)
	}
}

// TestUninstallRestoresDirectPath: after Uninstall, the healed ARP caches
// route fresh sessions directly again.
func TestUninstallRestoresDirectPath(t *testing.T) {
	tb, _, h := hijackedHome(t, "P2", "P2")
	if _, ok := h.CurrentBridge(); !ok {
		t.Fatal("no bridge while installed")
	}
	bridgesBefore := len(h.Bridges())

	h.Uninstall()
	tb.Clock.RunFor(2 * time.Second)
	// Force a reconnect: the new session must NOT pass the attacker.
	tb.Device("P2").TCPConn().Abort()
	tb.Clock.RunFor(15 * time.Second)
	if !tb.Device("P2").Connected() {
		t.Fatal("device did not reconnect after uninstall")
	}
	if len(h.Bridges()) != bridgesBefore {
		t.Fatal("a new bridge appeared after uninstall")
	}
	// And the direct session works.
	if err := tb.Device("P2").TriggerEvent("switch", "on"); err != nil {
		t.Fatal(err)
	}
	tb.Clock.RunFor(2 * time.Second)
	if len(tb.Integration.Events()) != 1 {
		t.Fatal("direct session broken after uninstall")
	}
	if h.Installed() {
		t.Fatal("Installed() should be false")
	}
}
