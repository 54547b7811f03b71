package fleet

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/device"
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
