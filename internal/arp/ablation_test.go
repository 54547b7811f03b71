package arp

import (
	"testing"
	"time"

	"repro/internal/simtime"
)

// poisonCoverage measures the fraction of time a victim's cache points at
// the attacker while the legitimate gateway re-announces itself every
// healPeriod and the spoofer re-poisons every repoisonPeriod.
func poisonCoverage(t *testing.T, repoisonPeriod, healPeriod time.Duration) float64 {
	t.Helper()
	e := newEnv()
	victim := e.addHost("victim", "192.168.1.10")
	gw := e.addHost("gw", "192.168.1.1")
	attacker := e.addHost("attacker", "192.168.1.66")

	simtime.NewTicker(e.clk, healPeriod, gw.client.Announce)

	sp := NewSpoofer(e.clk, attacker.client, repoisonPeriod)
	sp.Start()
	sp.Poison(victim.client.Self(), gw.client.Self())
	e.clk.RunFor(2 * time.Second) // let the first poison land

	poisoned, samples := 0, 0
	simtime.NewTicker(e.clk, time.Second, func() {
		samples++
		if m, ok := victim.client.Lookup(gw.client.Self()); ok && m == attacker.nic.MAC() {
			poisoned++
		}
	})
	e.clk.RunFor(10 * time.Minute)
	sp.Stop()
	if samples == 0 {
		t.Fatal("no samples")
	}
	return float64(poisoned) / float64(samples)
}

// TestRepoisonPeriodAblation charts the design trade-off behind the
// spoofer's re-poison interval: against a gateway that re-announces every
// 30s, a 1s re-poison keeps the victim poisoned essentially always, while
// a multi-minute interval leaves large healed gaps.
func TestRepoisonPeriodAblation(t *testing.T) {
	// Periods deliberately misaligned with the 30s healing schedule so the
	// deterministic tick ordering cannot mask the gaps.
	heal := 30 * time.Second
	fast := poisonCoverage(t, time.Second, heal)
	medium := poisonCoverage(t, 50*time.Second, heal)
	slow := poisonCoverage(t, 5*time.Minute, heal)

	if fast < 0.95 {
		t.Errorf("1s re-poison coverage = %.2f, want >= 0.95", fast)
	}
	if !(fast > medium && medium > slow) {
		t.Errorf("coverage should fall with the re-poison interval: %.2f, %.2f, %.2f", fast, medium, slow)
	}
	if slow > 0.3 {
		t.Errorf("5m re-poison coverage = %.2f, want a clearly degraded position", slow)
	}
}

// TestNoHealingMeansPermanentPoison: with a silent gateway (the common
// case — hosts rarely re-announce), even a slow re-poison holds forever.
func TestNoHealingMeansPermanentPoison(t *testing.T) {
	e := newEnv()
	victim := e.addHost("victim", "192.168.1.10")
	gw := e.addHost("gw", "192.168.1.1")
	attacker := e.addHost("attacker", "192.168.1.66")

	sp := NewSpoofer(e.clk, attacker.client, 5*time.Minute)
	sp.Start()
	sp.Poison(victim.client.Self(), gw.client.Self())
	e.clk.RunFor(time.Hour)
	if m, ok := victim.client.Lookup(gw.client.Self()); !ok || m != attacker.nic.MAC() {
		t.Fatal("poison did not persist against a silent gateway")
	}
	sp.Stop()
}
