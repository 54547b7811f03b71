package fleet

import (
	"fmt"
	"time"

	"repro/internal/device"
	"repro/internal/rules"
	"repro/internal/simtime"
)

// PopulationConfig parameterises synthetic home generation. A (config,
// home index) pair fully determines a home: its device mix, its jittered
// timing parameters, its link latencies and its automation rules.
type PopulationConfig struct {
	// Seed is the population master seed.
	Seed int64
	// TimingJitter perturbs each home's profile timing parameters.
	TimingJitter float64
	// RulesPerHome bounds the synthetic TCA rules installed per home.
	RulesPerHome int
}

// HomeSpec is one generated home, ready to build as a testbed.
type HomeSpec struct {
	// Index is the home's position in the population.
	Index int
	// Seed drives the home's testbed (network, TCP ISNs, device phases).
	Seed int64
	// Devices lists the home's catalog labels in deployment order.
	Devices []string
	// Overrides carries the jittered profiles deployed instead of the
	// stock catalog entries.
	Overrides []device.Profile
	// LANLatency and WANLatency are the home's link latencies.
	LANLatency time.Duration
	WANLatency time.Duration
	// LinkJitter perturbs per-frame latencies inside the simulation.
	LinkJitter float64
	// Rules are the home's automation rules.
	Rules []rules.Rule
}

// homeSeed mixes the population seed and a home index into an independent
// stream seed (splitmix64 finalizer), so neighbouring homes do not share
// correlated randomness.
func homeSeed(seed int64, index int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(index)*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z & 0x7FFFFFFFFFFFFFFF)
}

// GenerateHome derives home number index of the population — a pure
// function of (cfg, index).
func GenerateHome(cfg PopulationConfig, index int) HomeSpec {
	seed := homeSeed(cfg.Seed, index)
	rng := simtime.NewRand(seed)
	home := HomeSpec{
		Index:      index,
		Seed:       seed,
		Devices:    device.SampleDevices(rng),
		LANLatency: rng.DurationRange(time.Millisecond, 5*time.Millisecond),
		WANLatency: rng.DurationRange(5*time.Millisecond, 30*time.Millisecond),
		LinkJitter: 0.05 + 0.1*rng.Float64(),
	}
	if cfg.TimingJitter > 0 {
		byLabel := device.Index()
		for _, l := range home.Devices {
			home.Overrides = append(home.Overrides, byLabel[l].WithTimingJitter(rng, cfg.TimingJitter))
		}
	}
	home.Rules = sampleRules(rng, home, cfg.RulesPerHome)
	return home
}

// sampleRules builds up to max notify rules over the home's reportable
// devices — every home runs its own slice of automation so campaigns
// exercise the rule engine at population scale.
func sampleRules(rng *simtime.Rand, home HomeSpec, max int) []rules.Rule {
	if max <= 0 {
		return nil
	}
	byLabel := device.Index()
	var out []rules.Rule
	n := rng.Intn(max + 1)
	for i := 0; i < n; i++ {
		l := home.Devices[rng.Intn(len(home.Devices))]
		p := byLabel[l]
		if p.EventAttr == "" || len(p.EventValues) == 0 {
			continue
		}
		v := p.EventValues[rng.Intn(len(p.EventValues))]
		out = append(out, rules.Rule{
			Name:    fmt.Sprintf("fleet-%d-%d", home.Index, i),
			Trigger: rules.Trigger{Device: l, Attribute: p.EventAttr, Value: v},
			Actions: []rules.Action{{Kind: rules.ActionNotify,
				Message: fmt.Sprintf("%s %s=%s", l, p.EventAttr, v)}},
		})
	}
	return out
}
