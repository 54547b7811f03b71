package experiment

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"repro/internal/rules"
)

// resetScenario is one home configuration plus a driver that exercises it.
type resetScenario struct {
	name  string
	cfg   TestbedConfig
	drive func(tb *Testbed) error
}

// resetScenarios covers the deployment shapes a rebuilt testbed must
// reproduce: a cloud home with hubs and multiple vendors, a local HAP home,
// an attacked home (pending hold timers when Reset discards it), and a
// home with its flight recorder on.
func resetScenarios() []resetScenario {
	return []resetScenario{
		{
			name: "cloud",
			cfg:  TestbedConfig{Seed: 11, Devices: []string{"C2", "LK1", "P2", "M7"}},
			drive: func(tb *Testbed) error {
				if err := tb.Integration.AddRule(rules.Rule{
					Name:    "lock-on-close",
					Trigger: rules.Trigger{Device: "C2", Attribute: "contact", Value: "closed"},
					Actions: []rules.Action{
						{Kind: rules.ActionCommand, Device: "LK1", Attribute: "lock", Value: "locked"},
						{Kind: rules.ActionNotify, Message: "door closed; locking"},
					},
				}); err != nil {
					return err
				}
				tb.Start()
				if err := tb.Device("C2").TriggerEvent("contact", "closed"); err != nil {
					return err
				}
				tb.Clock.RunFor(5 * time.Second)
				if err := tb.Device("M7").TriggerEvent("motion", "active"); err != nil {
					return err
				}
				tb.Clock.RunFor(30 * time.Second)
				return nil
			},
		},
		{
			name: "local",
			cfg:  TestbedConfig{Seed: 12, Devices: []string{"A1", "A6"}},
			drive: func(tb *Testbed) error {
				if err := tb.LocalHub.AddRule(rules.Rule{
					Name:    "light-on-open",
					Trigger: rules.Trigger{Device: "A1", Attribute: "contact", Value: "open"},
					Actions: []rules.Action{{Kind: rules.ActionCommand, Device: "A6", Attribute: "switch", Value: "on"}},
				}); err != nil {
					return err
				}
				tb.Start()
				if err := tb.Device("A1").TriggerEvent("contact", "open"); err != nil {
					return err
				}
				tb.Clock.RunFor(10 * time.Second)
				return nil
			},
		},
		{
			name: "attacked",
			cfg:  TestbedConfig{Seed: 13, Devices: []string{"P2", "M7"}},
			drive: func(tb *Testbed) error {
				atk, err := tb.NewAttacker()
				if err != nil {
					return err
				}
				h, err := tb.Hijack(atk, "P2")
				if err != nil {
					return err
				}
				tb.Start()
				op := h.DelayKeepAlive()
				tb.Clock.RunFor(30 * time.Second)
				op.Release()
				// Stop short of full recovery so sessions still hold pending
				// keep-alive and retransmission timers when the testbed resets.
				tb.Clock.RunFor(2 * time.Second)
				return nil
			},
		},
		{
			name: "traced",
			cfg:  TestbedConfig{Seed: 14, Devices: []string{"M7"}, TraceCap: 4096},
			drive: func(tb *Testbed) error {
				tb.Start()
				if err := tb.Device("M7").TriggerEvent("motion", "active"); err != nil {
					return err
				}
				tb.Clock.RunFor(5 * time.Second)
				return nil
			},
		},
	}
}

// homeFingerprint captures everything observable about a driven testbed:
// the full metrics snapshot (counters, gauges with maxima, histograms),
// the flight recorder's events, address assignments, alarm totals and the
// clock position.
func homeFingerprint(t *testing.T, tb *Testbed) string {
	t.Helper()
	snap, err := json.Marshal(tb.Metrics.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	trace, err := json.Marshal(tb.Metrics.Trace().Events())
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("addrs=%v servers=%v alarms=%d now=%v snap=%s trace=%s",
		tb.DeviceAddrs, tb.ServerAddrs, tb.TotalAlarmCount(), tb.Clock.Now(), snap, trace)
}

func firstDiff(a, b string) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := i - 60
			if lo < 0 {
				lo = 0
			}
			hiA, hiB := i+120, i+120
			if hiA > len(a) {
				hiA = len(a)
			}
			if hiB > len(b) {
				hiB = len(b)
			}
			return fmt.Sprintf("at byte %d:\n fresh: …%s…\n reset: …%s…", i, a[lo:hiA], b[lo:hiB])
		}
	}
	return fmt.Sprintf("length %d vs %d", len(a), len(b))
}

// TestTestbedResetByteIdentity drives each scenario on a new testbed and on
// one testbed Reset through every scenario twice — including
// cloud→local→attacked transitions — and requires identical fingerprints:
// Reset must leave nothing of the previous home behind.
func TestTestbedResetByteIdentity(t *testing.T) {
	scenarios := resetScenarios()
	fresh := make([]string, len(scenarios))
	for i, sc := range scenarios {
		tb, err := NewTestbed(sc.cfg)
		if err != nil {
			t.Fatalf("%s: fresh build: %v", sc.name, err)
		}
		if err := sc.drive(tb); err != nil {
			t.Fatalf("%s: fresh drive: %v", sc.name, err)
		}
		fresh[i] = homeFingerprint(t, tb)
	}

	// Reset one testbed through the scenarios in an order that crosses every
	// deployment shape, then revisit each scenario to prove a second
	// generation is still identical.
	order := []int{0, 1, 2, 3, 1, 2, 0, 3}
	var tb *Testbed
	for step, i := range order {
		sc := scenarios[i]
		if tb == nil {
			var err error
			if tb, err = NewTestbed(sc.cfg); err != nil {
				t.Fatalf("step %d (%s): build: %v", step, sc.name, err)
			}
		} else if err := tb.Reset(sc.cfg); err != nil {
			t.Fatalf("step %d (%s): reset: %v", step, sc.name, err)
		}
		if err := sc.drive(tb); err != nil {
			t.Fatalf("step %d (%s): drive: %v", step, sc.name, err)
		}
		if got := homeFingerprint(t, tb); got != fresh[i] {
			t.Errorf("step %d (%s): reset home diverged from fresh\n%s", step, sc.name, firstDiff(fresh[i], got))
		}
	}
}

// TestTestbedResetQueueDrained proves Reset leaves no pending events
// behind: after a Reset the clock's queue depth gauge reads zero and the
// rebuilt home starts from simulated time zero.
func TestTestbedResetQueueDrained(t *testing.T) {
	sc := resetScenarios()[2] // attacked: pending timers guaranteed at reset
	tb, err := NewTestbed(sc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.drive(tb); err != nil {
		t.Fatal(err)
	}
	if err := tb.Reset(TestbedConfig{Seed: 99, Devices: []string{"M7"}}); err != nil {
		t.Fatal(err)
	}
	if now := tb.Clock.Now(); now != 0 {
		t.Fatalf("clock after reset = %v, want 0", now)
	}
	for _, g := range tb.Metrics.Snapshot().Gauges {
		if g.Name == "simtime_queue_depth" && g.Value != 0 {
			t.Fatalf("simtime_queue_depth after reset = %d, want 0", g.Value)
		}
	}
}
