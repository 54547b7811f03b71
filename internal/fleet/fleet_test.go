package fleet

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/device"
	"repro/internal/experiment"
	"repro/internal/obs"
)

func TestParseSpecDefaults(t *testing.T) {
	s, err := ParseSpec([]byte(`{"attack":"edelay"}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "edelay" || s.Trials != 1 || s.Targets.PerHome != 1 {
		t.Fatalf("defaults not applied: %+v", s)
	}
	if s.MarginSecs != 2 || s.HoldSecs != 60 || s.TimingJitter != 0.1 || s.RulesPerHome != 2 {
		t.Fatalf("defaults not applied: %+v", s)
	}
	if len(s.Targets.Classes) != 2 {
		t.Fatalf("default target classes not applied: %+v", s.Targets)
	}
}

// zeroSpec sets three numeric knobs to an explicit zero: no timing
// jitter, no release margin and no synthetic rules.
const zeroSpec = `{"attack":"edelay","timingJitter":0,"marginSecs":0,"rulesPerHome":0}`

func TestParseSpecExplicitZeros(t *testing.T) {
	s, err := ParseSpec([]byte(zeroSpec))
	if err != nil {
		t.Fatal(err)
	}
	if s.TimingJitter != 0 || s.MarginSecs != 0 || s.RulesPerHome != 0 {
		t.Fatalf("explicit zeros replaced by defaults: %+v", s)
	}
	// The keys the spec omits still take their defaults.
	if s.Trials != 1 || s.HoldSecs != 60 || s.Targets.PerHome != 1 {
		t.Fatalf("omitted keys did not take their defaults: %+v", s)
	}
}

// TestZeroSpecCampaign runs zeroSpec over 20 homes. The result echoes the
// zeros, the homes carry no timing overrides and no rules, and every hold
// lasts exactly its model's catalog window: the zero margin releases at
// the predicted close (C1 47 s, C2 60 s, C3 80 s), and an unbounded model
// holds for holdSecs.
func TestZeroSpecCampaign(t *testing.T) {
	spec, err := ParseSpec([]byte(zeroSpec))
	if err != nil {
		t.Fatal(err)
	}
	c := Campaign{Spec: spec, Homes: 20, Workers: 2, Seed: 1}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Spec.TimingJitter != 0 || res.Spec.MarginSecs != 0 || res.Spec.RulesPerHome != 0 {
		t.Fatalf("result spec does not echo the zeros: %+v", res.Spec)
	}
	pop := PopulationConfig{Seed: c.Seed, TimingJitter: res.Spec.TimingJitter, RulesPerHome: res.Spec.RulesPerHome}
	for i := 0; i < c.Homes; i++ {
		if h := GenerateHome(pop, i); len(h.Overrides) != 0 || len(h.Rules) != 0 {
			t.Fatalf("home %d: %d overrides and %d rules, want none", i, len(h.Overrides), len(h.Rules))
		}
	}
	if res.HomesFailed != 0 || len(res.PerModel) == 0 {
		t.Fatalf("%d homes failed (%v), %d models attacked", res.HomesFailed, res.Errors, len(res.PerModel))
	}
	byLabel := device.Index()
	seen := map[string]bool{}
	for _, m := range res.PerModel {
		p := byLabel[m.Model]
		if p.Transport == device.TransportViaHub {
			p = byLabel[p.ViaHub]
		}
		lo, hi, bounded := experiment.MeasuredFromProfile(p).EventWindow()
		want := res.Spec.Hold()
		if bounded {
			if lo != hi {
				continue // the window depends on the keep-alive phase
			}
			want = hi
		}
		if m.MeanDelaySecs != want.Seconds() || m.MaxDelaySecs != want.Seconds() {
			t.Errorf("%s held for %vs on average and %vs at most, want exactly %v", m.Model, m.MeanDelaySecs, m.MaxDelaySecs, want)
		}
		seen[m.Model] = true
	}
	for _, l := range []string{"C1", "C2", "C3"} {
		if !seen[l] {
			t.Errorf("no %s target in the population", l)
		}
	}
}

// TestDelayTrialNeedsAcceptance: in a C1 home whose server silently
// discards events older than 30 s, the campaign's 45 s hold releases, no
// alarm is raised, and the trial still fails, because the event never
// took effect.
func TestDelayTrialNeedsAcceptance(t *testing.T) {
	tb, err := experiment.NewTestbed(experiment.TestbedConfig{
		Seed:        5,
		Devices:     []string{"C1"},
		Integration: cloud.IntegrationConfig{Policy: cloud.StaleDiscardSilently, MaxEventAge: 30 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	h, lab, err := tb.HijackLab("C1")
	if err != nil {
		t.Fatal(err)
	}
	m := experiment.MeasuredFromProfile(tb.SessionOwnerProfile("C1"))
	h.ArmPredictor(m)
	held, success, err := delayTrial(tb, h, lab, DefaultSpec(), m)
	if err != nil {
		t.Fatal(err)
	}
	if success || held != 45*time.Second {
		t.Fatalf("trial held %v, success %v; want a 45s hold and no success", held, success)
	}
	if n, alarms := len(tb.Integration.Discarded()), tb.TotalAlarmCount(); n != 1 || alarms != 0 {
		t.Fatalf("%d events discarded and %d alarms, want 1 and 0", n, alarms)
	}
}

func TestParseSpecRejects(t *testing.T) {
	cases := []struct {
		name string
		data string
		want string
	}{
		{"empty object", `{}`, "no attack family"},
		{"unknown family", `{"attack":"ddos"}`, "unknown attack family"},
		{"unknown field", `{"attack":"edelay","margin":2}`, "unknown field"},
		{"trailing data", `{"attack":"edelay"}{"attack":"cdelay"}`, "trailing data"},
		{"not json", `nope`, "parse campaign spec"},
		{"wrong type", `[]`, "parse campaign spec"},
		{"negative trials", `{"attack":"edelay","trials":-1}`, "negative trials"},
		{"zero trials", `{"attack":"edelay","trials":0}`, "trials is 0"},
		{"negative perHome", `{"attack":"edelay","targets":{"perHome":-1}}`, "negative targets.perHome"},
		{"zero perHome", `{"attack":"edelay","targets":{"perHome":0}}`, "targets.perHome is 0"},
		{"negative hold", `{"attack":"offline","holdSecs":-1}`, "negative holdSecs"},
		{"zero hold", `{"attack":"offline","holdSecs":0}`, "holdSecs is 0"},
		{"negative margin", `{"attack":"edelay","marginSecs":-5}`, "negative marginSecs"},
		{"jitter too big", `{"attack":"edelay","timingJitter":0.9}`, "timingJitter"},
		{"absurd hold", `{"attack":"offline","holdSecs":1e9}`, "beyond one week"},
		{"absurd trials", `{"attack":"edelay","trials":5000}`, "sanity bound"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseSpec([]byte(c.data))
			if err == nil {
				t.Fatalf("accepted %q", c.data)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestGenerateHomeDeterministic(t *testing.T) {
	cfg := PopulationConfig{Seed: 42, TimingJitter: 0.2, RulesPerHome: 3}
	for idx := 0; idx < 20; idx++ {
		a := GenerateHome(cfg, idx)
		b := GenerateHome(cfg, idx)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("home %d not deterministic", idx)
		}
	}
	// Neighbouring homes must not share the same stream.
	a, b := GenerateHome(cfg, 0), GenerateHome(cfg, 1)
	if a.Seed == b.Seed {
		t.Fatalf("homes 0 and 1 share seed %d", a.Seed)
	}
}

func TestCampaignRejectsBadConfig(t *testing.T) {
	if _, err := (Campaign{Spec: DefaultSpec()}).Run(); err == nil {
		t.Fatal("zero homes accepted")
	}
	bad := DefaultSpec()
	bad.Attack = "nope"
	if _, err := (Campaign{Spec: bad, Homes: 1}).Run(); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestCheckpointGuards(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.json")
	c := Campaign{Spec: DefaultSpec(), Homes: 4, ShardSize: 2, Seed: 1, CheckpointPath: path}.withDefaults()
	c.Spec.fill()
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	// Same campaign resumes cleanly (everything cached, nothing re-runs).
	if _, err := c.Run(); err != nil {
		t.Fatalf("resume of identical campaign: %v", err)
	}
	// A different campaign must refuse the stale checkpoint.
	other := c
	other.Seed = 2
	if _, err := other.Run(); err == nil || !strings.Contains(err.Error(), "different campaign") {
		t.Fatalf("stale checkpoint not rejected: %v", err)
	}
}

// TestOfflineCampaignSkipsOnDemandSensors pins offline target selection.
// An offline hold blackholes a live session, so it needs a device that
// keeps one. The on-demand HTTP sensors (M7, C5) open a session per event
// and close it; selecting them failed homes 14, 40 and 58 of this
// population with "no live bridge for offline hold". Such a home now
// targets its next sensor that keeps a session, or has no target.
func TestOfflineCampaignSkipsOnDemandSensors(t *testing.T) {
	spec, err := ParseSpec([]byte(`{"attack":"offline","holdSecs":60}`))
	if err != nil {
		t.Fatal(err)
	}
	c := Campaign{Spec: spec, Homes: 64, Seed: 1, Workers: 2}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("attacked/no-target/failed: %d/%d/%d", res.HomesAttacked, res.HomesNoTarget, res.HomesFailed)
	if res.HomesFailed != 0 {
		t.Fatalf("%d homes failed: %v", res.HomesFailed, res.Errors)
	}
	if res.HomesNoTarget == 0 || res.HomesAttacked+res.HomesNoTarget != c.Homes {
		t.Fatalf("attacked %d + no-target %d != %d homes", res.HomesAttacked, res.HomesNoTarget, c.Homes)
	}
	byLabel := device.Index()
	pop := PopulationConfig{Seed: c.Seed, TimingJitter: spec.TimingJitter, RulesPerHome: spec.RulesPerHome}
	for i := 0; i < c.Homes; i++ {
		for _, l := range selectTargets(spec, GenerateHome(pop, i)) {
			if byLabel[l].Transport == device.TransportHTTPOnDemand {
				t.Errorf("home %d: offline hold targets on-demand sensor %s", i, l)
			}
		}
	}
}

// TestHomeFoldAllocFree guards the per-home metrics fold: once a shard's
// accumulator holds a home's series, folding the home's registry into it
// by series id allocates nothing.
func TestHomeFoldAllocFree(t *testing.T) {
	spec := DefaultSpec()
	spec.fill()
	pc := PopulationConfig{Seed: 1, TimingJitter: spec.TimingJitter, RulesPerHome: spec.RulesPerHome}
	var hr homeResult
	for i := 0; hr.metrics == nil; i++ {
		hr = runHome(spec, GenerateHome(pc, i))
	}
	if hr.err != nil {
		t.Fatal(hr.err)
	}
	acc := obs.NewAccumulator()
	acc.AddRegistry(hr.metrics)
	if n := testing.AllocsPerRun(100, func() { acc.AddRegistry(hr.metrics) }); n != 0 {
		t.Fatalf("AddRegistry of a warmed home registry made %.0f allocations, want 0", n)
	}
}
