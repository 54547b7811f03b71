package experiment

import (
	"testing"
	"time"
)

// TestCasesRobustAcrossSeeds: the qualitative Table III outcomes must not
// depend on the seed (they drive jitter and ISNs, nothing else).
func TestCasesRobustAcrossSeeds(t *testing.T) {
	cases := Table3Cases()
	for _, seed := range []int64{1, 424242, 99991} {
		results := RunCases(cases, seed)
		for _, r := range results {
			if r.Err != nil {
				t.Errorf("seed %d case %d: %v", seed, r.Case.ID, r.Err)
				continue
			}
			if !r.Succeeded() {
				t.Errorf("seed %d case %d: baseline=%v attacked=%v alarms=%d",
					seed, r.Case.ID, r.BaselineConsequence, r.AttackConsequence, r.AttackAlarms)
			}
		}
	}
}

// TestDeterministicReplay: identical configuration and seed reproduce the
// identical event stream, byte for byte.
func TestDeterministicReplay(t *testing.T) {
	run := func() []string {
		tb, err := NewTestbed(TestbedConfig{Seed: 4242, Devices: []string{"C2", "P2"}, Jitter: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		tb.Start()
		_ = tb.Device("C2").TriggerEvent("contact", "open")
		tb.Clock.RunFor(10 * time.Second)
		_ = tb.Device("P2").TriggerEvent("switch", "on")
		tb.Clock.RunFor(10 * time.Second)
		var out []string
		for _, ev := range tb.Integration.Events() {
			out = append(out, ev.String())
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d:\n%s\n%s", i, a[i], b[i])
		}
	}
}

// TestAttackerNetworkFootprint quantifies a detectability angle the paper
// leaves implicit: the relay doubles the victim flow's bytes on the WiFi
// segment (each frame crosses twice), and the ARP re-poison chatter can
// dominate everything at aggressive intervals — observable by a wired IDS
// even though no protocol layer complains. A patient attacker on a quiet
// LAN tunes the re-poison down and approaches the 2x floor.
func TestAttackerNetworkFootprint(t *testing.T) {
	measure := func(attack bool, repoison time.Duration) uint64 {
		tb, err := NewTestbed(TestbedConfig{Seed: 4300, Devices: []string{"C2"}})
		if err != nil {
			t.Fatal(err)
		}
		if attack {
			atk, err := tb.NewAttacker()
			if err != nil {
				t.Fatal(err)
			}
			atk.Spoofer.SetPeriod(repoison)
			if _, err := tb.Hijack(atk, "C2"); err != nil {
				t.Fatal(err)
			}
		}
		tb.Start()
		start := tb.LAN.Stats().BytesSent
		tb.Clock.RunFor(10 * time.Minute)
		return tb.LAN.Stats().BytesSent - start
	}
	clean := measure(false, 0)
	noisy := float64(measure(true, time.Second)) / float64(clean)
	quiet := float64(measure(true, 5*time.Minute)) / float64(clean)
	if noisy < 5 {
		t.Fatalf("1s re-poison footprint = %.2fx; expected ARP chatter to dominate", noisy)
	}
	if quiet < 1.8 || quiet > 3.0 {
		t.Fatalf("patient footprint = %.2fx; the relay floor is about 2x", quiet)
	}
	if quiet >= noisy {
		t.Fatalf("slower re-poison should cost less: %.2fx vs %.2fx", quiet, noisy)
	}
}

// TestAttackerSniffsOnlyForAReader: joining the WiFi and hijacking a flow
// put no tap on the LAN. A capture is passive and reports nothing without
// a registry, so only the tap count shows one that no attack reads; the
// one tap comes from NewCapture, made by the attack that reads it.
func TestAttackerSniffsOnlyForAReader(t *testing.T) {
	tb, err := NewTestbed(TestbedConfig{Seed: 4300, Devices: []string{"C2"}})
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
	tb.Start()
	tb.Clock.RunFor(time.Minute)
	if len(h.Bridges()) == 0 {
		t.Fatal("the hijacker bridged no connection")
	}
	if n := tb.LAN.Taps(); n != 0 {
		t.Fatalf("LAN has %d taps after an attacker joined and hijacked, want 0", n)
	}
	tb.NewCapture(0)
	if n := tb.LAN.Taps(); n != 1 {
		t.Fatalf("LAN has %d taps after NewCapture, want 1", n)
	}
}
