package fleet

import (
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/experiment"
)

// TestProfilerMatchesPopulationGroundTruth runs the §IV-C profiler
// (core.Lab.Profile) against every contact and motion sensor — the
// default campaign's target classes — in the first 64 homes of the seed-1
// population, each in its own home's testbed, and compares what it
// measures with the home's jittered session-owner profile: keep-alive
// period, pattern and timeout, and event timeout, each within 3 s. As in
// the table reproduction's check, an event timeout at or above the
// keep-alive bound (period plus timeout) never manifests, so it counts as
// none.
func TestProfilerMatchesPopulationGroundTruth(t *testing.T) {
	const homes, tol = 64, 3 * time.Second
	spec := DefaultSpec()
	pc := PopulationConfig{Seed: 1, TimingJitter: spec.TimingJitter, RulesPerHome: spec.RulesPerHome}
	byLabel := device.Index()
	approx := func(a, b time.Duration) bool { return a-b <= tol && b-a <= tol }
	targets := 0
	for i := 0; i < homes; i++ {
		home := GenerateHome(pc, i)
		for _, label := range home.Devices {
			if p := byLabel[label]; !spec.Targets.matches(p.Label, p.Class) {
				continue
			}
			targets++
			tb, err := experiment.NewTestbed(experiment.TestbedConfig{
				Seed:       home.Seed,
				Devices:    home.Devices,
				LANLatency: home.LANLatency,
				WANLatency: home.WANLatency,
				Jitter:     home.LinkJitter,
				Overrides:  home.Overrides,
			})
			if err != nil {
				t.Fatal(err)
			}
			_, lab, err := tb.HijackLab(label)
			if err != nil {
				t.Fatalf("home %d %s: %v", i, label, err)
			}
			m, err := lab.Profile()
			if err != nil {
				t.Fatalf("home %d %s: profile: %v", i, label, err)
			}
			owner := tb.SessionOwnerProfile(label)
			eventTimeout := owner.EventTimeout
			if owner.KeepAlivePeriod > 0 && eventTimeout >= owner.KeepAlivePeriod+owner.KeepAliveTimeout {
				eventTimeout = 0
			}
			if !approx(m.KeepAlivePeriod, owner.KeepAlivePeriod) || m.Pattern != owner.KeepAlivePattern ||
				!approx(m.KeepAliveTimeout, owner.KeepAliveTimeout) || !approx(m.EventTimeout, eventTimeout) {
				t.Errorf("home %d %s (session owner %s): measured keep-alive %v/%v/%v, event timeout %v; truth %v/%v/%v, %v",
					i, label, owner.Label, m.KeepAlivePeriod, m.Pattern, m.KeepAliveTimeout, m.EventTimeout,
					owner.KeepAlivePeriod, owner.KeepAlivePattern, owner.KeepAliveTimeout, eventTimeout)
			}
		}
	}
	if targets == 0 {
		t.Fatal("no sensor targets in the population")
	}
	t.Logf("%d sensors profiled in %d homes", targets, homes)
}
