package cloud_test

import (
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/experiment"
	"repro/internal/proto"
	"repro/internal/rules"
)

func build(t *testing.T, cfg cloud.IntegrationConfig, labels ...string) *experiment.Testbed {
	t.Helper()
	tb, err := experiment.NewTestbed(experiment.TestbedConfig{
		Seed:        321,
		Devices:     labels,
		Integration: cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	tb.Start()
	return tb
}

func TestEndpointForwardsEventsWithGenerationTime(t *testing.T) {
	tb := build(t, cloud.IntegrationConfig{}, "C2")
	tb.Clock.RunUntil(30 * time.Second)
	if err := tb.Device("C2").TriggerEvent("contact", "open"); err != nil {
		t.Fatal(err)
	}
	tb.Clock.RunFor(2 * time.Second)
	evs := tb.Integration.Events()
	if len(evs) != 1 {
		t.Fatalf("events = %d", len(evs))
	}
	ev := evs[0]
	if ev.GeneratedAt != 30*time.Second {
		t.Fatalf("GeneratedAt = %v, want 30s", ev.GeneratedAt)
	}
	if ev.ReceivedAt <= ev.GeneratedAt {
		t.Fatal("ReceivedAt should trail GeneratedAt by transit + cloud-to-cloud latency")
	}
	if ev.ReceivedAt-ev.GeneratedAt > time.Second {
		t.Fatalf("unattacked transit took %v", ev.ReceivedAt-ev.GeneratedAt)
	}
}

func TestCommandForUnknownDeviceFails(t *testing.T) {
	tb := build(t, cloud.IntegrationConfig{}, "C2")
	ep := tb.Endpoints["ring.com"]
	if err := ep.SendCommand("ghost", "x", "y", nil); err == nil {
		t.Fatal("command for unregistered device should fail")
	}
}

func TestCommandOutcomeCarriesDuration(t *testing.T) {
	tb := build(t, cloud.IntegrationConfig{}, "K1")
	ep := tb.Endpoints["ring.com"]
	var got proto.CommandResult
	done := false
	if err := ep.SendCommand("K1", "mode", "away", func(r proto.CommandResult) { got, done = r, true }); err != nil {
		t.Fatal(err)
	}
	tb.Clock.RunFor(5 * time.Second)
	if !done || !got.Acked || got.ID == 0 {
		t.Fatalf("outcome = %+v done=%v", got, done)
	}
	if got.Duration <= 0 || got.Duration > time.Second {
		t.Fatalf("duration = %v", got.Duration)
	}
}

func TestNotificationLatency(t *testing.T) {
	tb := build(t, cloud.IntegrationConfig{}, "C2")
	if err := tb.Integration.AddRule(rules.Rule{
		Name:    "n",
		Trigger: rules.Trigger{Device: "C2", Attribute: "contact", Value: "open"},
		Actions: []rules.Action{{Kind: rules.ActionNotify, Message: "open!"}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := tb.Device("C2").TriggerEvent("contact", "open"); err != nil {
		t.Fatal(err)
	}
	tb.Clock.RunFor(2 * time.Second)
	ns := tb.Integration.Notifications()
	if len(ns) != 1 {
		t.Fatalf("notifications = %d", len(ns))
	}
	if lat := ns[0].Latency(); lat <= 0 || lat > time.Second {
		t.Fatalf("latency = %v", lat)
	}
}

func TestStalePoliciesSideBySide(t *testing.T) {
	// The same stale event under the three policies.
	mkEvent := func() rules.Event {
		return rules.Event{
			Device: "X", Attribute: "a", Value: "v",
			GeneratedAt: 0,
		}
	}
	run := func(cfg cloud.IntegrationConfig) (accepted, discarded, alarms int) {
		tb := build(t, cfg, "C2")
		tb.Clock.RunUntil(2 * time.Minute) // event will be 2 minutes old
		tb.Integration.Ingest(mkEvent())
		return len(tb.Integration.Events()), len(tb.Integration.Discarded()), len(tb.Integration.Alarms())
	}

	if a, d, al := run(cloud.IntegrationConfig{}); a != 1 || d != 0 || al != 0 {
		t.Fatalf("accept policy: %d/%d/%d", a, d, al)
	}
	cfgDiscard := cloud.IntegrationConfig{Policy: cloud.StaleDiscardSilently, MaxEventAge: 30 * time.Second}
	if a, d, al := run(cfgDiscard); a != 0 || d != 1 || al != 0 {
		t.Fatalf("discard policy: %d/%d/%d", a, d, al)
	}
	cfgReject := cloud.IntegrationConfig{Policy: cloud.StaleRejectAlert, MaxEventAge: 30 * time.Second}
	if a, d, al := run(cfgReject); a != 0 || d != 1 || al != 1 {
		t.Fatalf("reject policy: %d/%d/%d", a, d, al)
	}
}

func TestFreshEventPassesStrictPolicy(t *testing.T) {
	cfg := cloud.IntegrationConfig{Policy: cloud.StaleRejectAlert, MaxEventAge: 30 * time.Second}
	tb := build(t, cfg, "C2")
	if err := tb.Device("C2").TriggerEvent("contact", "open"); err != nil {
		t.Fatal(err)
	}
	tb.Clock.RunFor(2 * time.Second)
	if len(tb.Integration.Events()) != 1 || len(tb.Integration.Discarded()) != 0 {
		t.Fatal("fresh event should pass the strict policy")
	}
}

func TestLocalHubRulesAndCommands(t *testing.T) {
	tb := build(t, cloud.IntegrationConfig{}, "A1", "A6")
	if err := tb.LocalHub.AddRule(rules.Rule{
		Name:      "night-light",
		Trigger:   rules.Trigger{Device: "A1", Attribute: "contact", Value: "open"},
		Condition: rules.Eq{Device: "A6", Attribute: "switch", Value: "off"},
		Actions: []rules.Action{
			{Kind: rules.ActionCommand, Device: "A6", Attribute: "switch", Value: "on"},
			{Kind: rules.ActionNotify, Message: "door opened at night"},
		},
	}); err != nil {
		t.Fatal(err)
	}
	_ = tb.Device("A6").TriggerEvent("switch", "off")
	tb.Clock.RunFor(time.Second)
	_ = tb.Device("A1").TriggerEvent("contact", "open")
	tb.Clock.RunFor(2 * time.Second)

	if got := tb.Device("A6").State("switch"); got != "on" {
		t.Fatalf("bulb = %q", got)
	}
	if len(tb.LocalHub.Notifications()) != 1 {
		t.Fatalf("hub notifications = %d", len(tb.LocalHub.Notifications()))
	}
	cmds := tb.LocalHub.Commands()
	if len(cmds) != 1 || cmds[0].Outcome == nil || !cmds[0].Outcome.Acked {
		t.Fatalf("hub commands = %+v", cmds)
	}
}

func TestLocalHubCommandToUnknownAccessory(t *testing.T) {
	tb := build(t, cloud.IntegrationConfig{}, "A1")
	if err := tb.LocalHub.SendCommand("ghost", "x", "y", nil); err == nil {
		t.Fatal("command to unknown accessory should fail")
	}
}

func TestStalenessPolicyStrings(t *testing.T) {
	tests := []struct {
		p    cloud.StalenessPolicy
		want string
	}{
		{cloud.StaleAccept, "accept"},
		{cloud.StaleDiscardSilently, "discard-silently"},
		{cloud.StaleRejectAlert, "reject-alert"},
		{cloud.StalenessPolicy(0), "unknown"},
	}
	for _, tt := range tests {
		if got := tt.p.String(); got != tt.want {
			t.Errorf("policy %d = %q, want %q", tt.p, got, tt.want)
		}
	}
}

func TestCommandRecordOutcomeResolution(t *testing.T) {
	tb := build(t, cloud.IntegrationConfig{}, "C2", "LK1")
	if err := tb.Integration.AddRule(rules.Rule{
		Name:    "lock",
		Trigger: rules.Trigger{Device: "C2", Attribute: "contact", Value: "closed"},
		Actions: []rules.Action{{Kind: rules.ActionCommand, Device: "LK1", Attribute: "lock", Value: "locked"}},
	}); err != nil {
		t.Fatal(err)
	}
	_ = tb.Device("C2").TriggerEvent("contact", "closed")
	tb.Clock.RunFor(3 * time.Second)
	cmds := tb.Integration.Commands()
	if len(cmds) != 1 {
		t.Fatalf("commands = %d", len(cmds))
	}
	rec := cmds[0]
	if rec.Outcome == nil || !rec.Outcome.Acked {
		t.Fatalf("outcome = %+v", rec.Outcome)
	}
	if rec.IssuedAt <= 0 || rec.Device != "LK1" {
		t.Fatalf("record = %+v", rec)
	}
}
