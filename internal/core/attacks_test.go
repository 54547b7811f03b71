package core_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/rules"
)

func TestTypeIStateUpdateDelay(t *testing.T) {
	// Fig. 3(a): the "smoke detected" notification reaches the user tens
	// of seconds late.
	tb, _, h := hijackedHome(t, "SD1", "SD1")
	if err := tb.Integration.AddRule(rules.Rule{
		Name:    "smoke-alert",
		Trigger: rules.Trigger{Device: "SD1", Attribute: "smoke", Value: "detected"},
		Actions: []rules.Action{{Kind: rules.ActionNotify, Message: "SMOKE DETECTED"}},
	}); err != nil {
		t.Fatal(err)
	}
	const hold = 35 * time.Second
	h.EDelay("SD1", hold)
	if err := tb.Device("SD1").TriggerEvent("smoke", "detected"); err != nil {
		t.Fatal(err)
	}
	tb.Clock.RunFor(2 * time.Minute)
	n := tb.Integration.Notifications()
	if len(n) != 1 {
		t.Fatalf("notifications = %d, want 1", len(n))
	}
	if lat := n[0].Latency(); lat < hold {
		t.Fatalf("notification latency %v, want >= %v", lat, hold)
	}
	if tb.TotalAlarmCount() != 0 {
		t.Fatalf("alarms = %d", tb.TotalAlarmCount())
	}
}

func TestTypeIIActionDelayCombinesPrimitives(t *testing.T) {
	// Fig. 3(b): water leak triggers valve shut-off; e-Delay on the sensor
	// plus c-Delay on the valve stack the two windows.
	tb, err := experiment.NewTestbed(experiment.TestbedConfig{
		Seed:    77,
		Devices: []string{"W1", "V1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	atk, err := tb.NewAttacker()
	if err != nil {
		t.Fatal(err)
	}
	hSensor, err := tb.Hijack(atk, "W1")
	if err != nil {
		t.Fatal(err)
	}
	hValve, err := tb.Hijack(atk, "V1")
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Integration.AddRule(rules.Rule{
		Name:    "shut-valve-on-leak",
		Trigger: rules.Trigger{Device: "W1", Attribute: "water", Value: "wet"},
		Actions: []rules.Action{{Kind: rules.ActionCommand, Device: "V1", Attribute: "valve", Value: "closed"}},
	}); err != nil {
		t.Fatal(err)
	}
	tb.Start()

	const eHold, cHold = 40 * time.Second, 15 * time.Second
	hSensor.EDelay("W1", eHold)
	hValve.CDelay("V1", cHold)

	leakAt := tb.Clock.Now()
	if err := tb.Device("W1").TriggerEvent("water", "wet"); err != nil {
		t.Fatal(err)
	}
	tb.Clock.RunFor(2 * time.Minute)
	if got := tb.Device("V1").State("valve"); got != "closed" {
		t.Fatalf("valve state = %q, want closed after release", got)
	}
	var closedAt time.Duration
	for _, e := range tb.Device("V1").Log() {
		if e.Kind == "command-applied" {
			closedAt = e.At - leakAt
		}
	}
	if closedAt < eHold+cHold {
		t.Fatalf("valve closed after %v, want >= %v (stacked delays)", closedAt, eHold+cHold)
	}
	if tb.TotalAlarmCount() != 0 {
		t.Fatalf("alarms = %d", tb.TotalAlarmCount())
	}
}

func TestTypeIIISpuriousExecution(t *testing.T) {
	// Case 8 shape (Fig. 3c): "when storm door opens, if user present,
	// unlock". The user leaves; presence-off is held; pulling the storm
	// door then unlocks the door for the burglar.
	tb, err := experiment.NewTestbed(experiment.TestbedConfig{
		Seed:    78,
		Devices: []string{"P1", "C5", "LK1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	atk, err := tb.NewAttacker()
	if err != nil {
		t.Fatal(err)
	}
	hPresence, err := tb.Hijack(atk, "P1") // presence rides the SmartThings hub
	if err != nil {
		t.Fatal(err)
	}
	hStorm, err := tb.Hijack(atk, "C5") // storm-door contact (on-demand WiFi)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Integration.AddRule(rules.Rule{
		Name:      "unlock-when-home",
		Trigger:   rules.Trigger{Device: "C5", Attribute: "contact", Value: "open"},
		Condition: rules.Eq{Device: "P1", Attribute: "presence", Value: "present"},
		Actions:   []rules.Action{{Kind: rules.ActionCommand, Device: "LK1", Attribute: "lock", Value: "unlocked"}},
	}); err != nil {
		t.Fatal(err)
	}
	tb.Start()
	tb.Device("LK1").TriggerEvent("lock", "locked")
	tb.Device("P1").TriggerEvent("presence", "present")
	tb.Clock.RunFor(5 * time.Second)

	// Attack: hold the presence-off event; release after the storm-door
	// trigger has gone through.
	core.SpuriousExecution(hPresence, "P1", hStorm, "C5", 5*time.Second)

	// The user leaves (physically away)...
	if err := tb.Device("P1").TriggerEvent("presence", "away"); err != nil {
		t.Fatal(err)
	}
	tb.Clock.RunFor(10 * time.Second)
	// ...the burglar pulls the storm door.
	if err := tb.Device("C5").TriggerEvent("contact", "open"); err != nil {
		t.Fatal(err)
	}
	tb.Clock.RunFor(30 * time.Second)

	if got := tb.Device("LK1").State("lock"); got != "unlocked" {
		t.Fatalf("lock = %q, want spuriously unlocked", got)
	}
	if tb.TotalAlarmCount() != 0 {
		t.Fatalf("alarms = %d", tb.TotalAlarmCount())
	}
	// Sanity: without the attack the rule would not have fired — the
	// presence event arrives first and falsifies the condition.
	execs := tb.Integration.Engine().Executions("unlock-when-home")
	if len(execs) != 1 {
		t.Fatalf("executions = %d, want exactly the spurious one", len(execs))
	}
}

func TestTypeIIIDisabledExecution(t *testing.T) {
	// Case 10 shape (Fig. 3d): "when presence goes away, if front door
	// unlocked, lock it". Holding the door-unlocked event until after the
	// presence trigger leaves the door unlocked all day.
	tb, err := experiment.NewTestbed(experiment.TestbedConfig{
		Seed:    79,
		Devices: []string{"P1", "LK1"},
	})
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
	tb.Device("LK1").TriggerEvent("lock", "locked")
	tb.Device("P1").TriggerEvent("presence", "present")
	tb.Clock.RunFor(5 * time.Second)

	// Attack: hold the "unlocked" state update until after "away" passes.
	core.DisabledExecution(hLock, "LK1", hPresence, "P1", 5*time.Second)

	// The user unlocks the door, walks out, leaves.
	if err := tb.Device("LK1").TriggerEvent("lock", "unlocked"); err != nil {
		t.Fatal(err)
	}
	tb.Clock.RunFor(5 * time.Second)
	if err := tb.Device("P1").TriggerEvent("presence", "away"); err != nil {
		t.Fatal(err)
	}
	tb.Clock.RunFor(time.Minute)

	// The rule never fired: the server saw "away" while still believing
	// the door was locked. The door stays unlocked.
	if execs := tb.Integration.Engine().Executions("lock-when-leaving"); len(execs) != 0 {
		t.Fatalf("rule fired %d times; the attack should disable it", len(execs))
	}
	if got := tb.Device("LK1").State("lock"); got != "unlocked" {
		t.Fatalf("lock = %q, want left unlocked", got)
	}
	if tb.TotalAlarmCount() != 0 {
		t.Fatalf("alarms = %d", tb.TotalAlarmCount())
	}
}

// TestReleaseWhenOnSharedSession: C2 and M3 ride one H3 hub session. With
// no slack, ReleaseWhen releases the held event from inside the observer,
// before the hold decision, so the watched event that set off the release
// flows right behind it instead of queueing with no op left to release it.
func TestReleaseWhenOnSharedSession(t *testing.T) {
	tb, _, h := hijackedHome(t, "C2", "C2", "M3")
	core.DisabledExecution(h, "C2", h, "M3", 0)
	if err := tb.Device("C2").TriggerEvent("contact", "open"); err != nil {
		t.Fatal(err)
	}
	tb.Clock.RunFor(5 * time.Second)
	if n := len(tb.Integration.Events()); n != 0 {
		t.Fatalf("%d events escaped the hold", n)
	}
	if err := tb.Device("M3").TriggerEvent("motion", "active"); err != nil {
		t.Fatal(err)
	}
	tb.Clock.RunFor(2 * time.Second)
	evs := tb.Integration.Events()
	if len(evs) != 2 || evs[0].Device != "C2" || evs[1].Device != "M3" {
		t.Fatalf("events = %v, want the held C2 event, then the watched M3 event", evs)
	}
}

func TestBaselineWithoutAttackRulesBehave(t *testing.T) {
	// The no-attack control for both Type-III scenarios.
	tb, err := experiment.NewTestbed(experiment.TestbedConfig{
		Seed:    80,
		Devices: []string{"P1", "LK1"},
	})
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
	tb.Device("LK1").TriggerEvent("lock", "locked")
	tb.Device("P1").TriggerEvent("presence", "present")
	tb.Clock.RunFor(5 * time.Second)
	tb.Device("LK1").TriggerEvent("lock", "unlocked")
	tb.Clock.RunFor(5 * time.Second)
	tb.Device("P1").TriggerEvent("presence", "away")
	tb.Clock.RunFor(30 * time.Second)
	if got := tb.Device("LK1").State("lock"); got != "locked" {
		t.Fatalf("lock = %q; without attack the rule must lock the door", got)
	}
}
