package defense_test

import (
	"testing"
	"time"

	"repro/internal/defense"
	"repro/internal/device"
	"repro/internal/experiment"
)

// TestRTTMonitorDetectsTakeover: the extension defense. A clean session
// shows WAN-scale RTT; after a mid-session takeover the attacker's nearby
// ACKs collapse it, and the monitor (with a persisted baseline) alerts.
func TestRTTMonitorDetectsTakeover(t *testing.T) {
	tb, err := experiment.NewTestbed(experiment.TestbedConfig{Seed: 95, Devices: []string{"C2"}})
	if err != nil {
		t.Fatal(err)
	}
	atk, err := tb.NewAttacker()
	if err != nil {
		t.Fatal(err)
	}
	capture := tb.NewCapture(0)
	tb.Start()

	// Clean phase: keep-alives produce RTT samples against the real cloud.
	conn := tb.Device("H3").TCPConn()
	if conn == nil {
		t.Fatal("no transport connection")
	}
	mon := defense.NewRTTMonitor(tb.Clock, conn)
	tb.Clock.RunFor(6 * time.Minute)
	baseline, ok := mon.Baseline()
	if !ok {
		t.Fatal("baseline never established")
	}
	// LAN 2ms + WAN 10ms each way, twice: about 24ms.
	if baseline < 20*time.Millisecond || baseline > 30*time.Millisecond {
		t.Fatalf("baseline = %v, want about 24ms (WAN-scale)", baseline)
	}
	if mon.Alerted() {
		t.Fatal("false positive on the clean session")
	}

	// The attacker strikes mid-session.
	h, err := tb.Hijack(atk, "C2")
	if err != nil {
		t.Fatal(err)
	}
	if err := h.TakeOver(capture); err != nil {
		t.Fatal(err)
	}
	tb.Clock.RunFor(30 * time.Second) // reconnect lands on the attacker
	mon.Stop()

	newConn := tb.Device("H3").TCPConn()
	if newConn == nil || newConn == conn {
		t.Fatal("device did not reconnect onto a new transport connection")
	}
	// Firmware persists the baseline across reconnects.
	alerted := false
	mon2 := defense.NewRTTMonitor(tb.Clock, newConn)
	mon2.SetBaseline(baseline)
	mon2.OnAlert = func(base, cur time.Duration) {
		alerted = true
		if cur >= base/2 {
			t.Fatalf("alert with current %v not below half of baseline %v", cur, base)
		}
	}
	tb.Clock.RunFor(5 * time.Minute)
	if !alerted {
		srtt, n := defense.SRTTOf(newConn)
		t.Fatalf("takeover undetected: srtt=%v over %d samples, baseline=%v", srtt, n, baseline)
	}
}

// TestRTTMonitorNoFalsePositiveOnCleanReconnect: a device that reconnects
// without an attacker keeps WAN-scale RTT and must not alert.
func TestRTTMonitorNoFalsePositiveOnCleanReconnect(t *testing.T) {
	tb, err := experiment.NewTestbed(experiment.TestbedConfig{Seed: 96, Devices: []string{"C2"}})
	if err != nil {
		t.Fatal(err)
	}
	tb.Start()
	conn := tb.Device("H3").TCPConn()
	mon := defense.NewRTTMonitor(tb.Clock, conn)
	tb.Clock.RunFor(6 * time.Minute)
	baseline, ok := mon.Baseline()
	if !ok {
		t.Fatal("no baseline")
	}
	mon.Stop()

	// Clean reconnect (e.g. a router reboot): abort and let it re-dial.
	conn.Abort()
	tb.Clock.RunFor(30 * time.Second)
	newConn := tb.Device("H3").TCPConn()
	if newConn == nil {
		t.Fatal("device did not reconnect")
	}
	mon2 := defense.NewRTTMonitor(tb.Clock, newConn)
	mon2.SetBaseline(baseline)
	tb.Clock.RunFor(5 * time.Minute)
	if mon2.Alerted() {
		t.Fatal("false positive after a clean reconnect")
	}
}

// TestHardenProfileMonotone: hardening never widens any window.
func TestHardenProfileMonotone(t *testing.T) {
	for _, label := range []string{"H1", "H2", "H3", "CM1", "K2", "P2"} {
		p, err := lookup(label)
		if err != nil {
			t.Fatal(err)
		}
		loStock, hiStock, stockBounded := experiment.MeasuredFromProfile(p).EventWindow()
		for _, to := range []time.Duration{30 * time.Second, 10 * time.Second, 2 * time.Second} {
			lo, hi, bounded := experiment.MeasuredFromProfile(defense.HardenProfile(p, to)).EventWindow()
			if !bounded {
				t.Fatalf("%s@%v: hardened window unbounded", label, to)
			}
			if stockBounded && (lo > loStock || hi > hiStock) {
				t.Fatalf("%s@%v: hardening widened window [%v,%v] beyond [%v,%v]",
					label, to, lo, hi, loStock, hiStock)
			}
			if hi > to {
				t.Fatalf("%s@%v: residual max %v exceeds the mandated timeout", label, to, hi)
			}
		}
	}
}

// TestKeepAliveTrafficInverseToPeriod: halving the interval doubles the
// bytes per hour.
func TestKeepAliveTrafficInverseToPeriod(t *testing.T) {
	p, err := lookup("H3")
	if err != nil {
		t.Fatal(err)
	}
	base := defense.KeepAliveTrafficPerHour(p)
	p.KeepAlivePeriod /= 2
	if got := defense.KeepAliveTrafficPerHour(p); got != 2*base {
		t.Fatalf("traffic at half period = %d, want %d", got, 2*base)
	}
	p.KeepAlivePeriod = 0
	if got := defense.KeepAliveTrafficPerHour(p); got != 0 {
		t.Fatalf("no keep-alive should cost nothing, got %d", got)
	}
}

// lookup resolves a catalog profile for the tests.
func lookup(label string) (device.Profile, error) { return device.Lookup(label) }
