// Command probe times single layers of a fleet home through their exported
// entry points and prints the samples as one JSON object of name → values.
//
// Over the first sampleHomes homes of the population it times
// fleet.GenerateHome, experiment.NewTestbed with the config the fleet
// builds (tracing off), Testbed.Start, Testbed.Reset on the previous home's
// started testbed, and the metrics snapshot and accumulation the fleet does
// per home. It also times the unit costs of simtime.NewRand plus
// Rand.Reseed, and of one schedule plus fire on a bare simtime.Clock, in
// batches.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiment"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/simtime"
)

const (
	// sampleHomes is how many homes, from the start of the population, the
	// per-home spans sample: enough that each p95 has ten samples beyond it.
	sampleHomes = 200
	// batches is the sample count of each unit-cost probe: enough that its
	// p95 has ten samples beyond it.
	batches    = 200
	seedsPer   = 10
	eventsPer  = 1000
	eventRange = 1000 // distinct firing times, in milliseconds, per batch
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "probe:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("probe", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "population master seed")
	campaign := fs.String("campaign", "", "campaign spec JSON file (default: built-in edelay-sensors)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec := fleet.DefaultSpec()
	if *campaign != "" {
		data, err := os.ReadFile(*campaign)
		if err != nil {
			return fmt.Errorf("campaign spec: %w", err)
		}
		if spec, err = fleet.ParseSpec(data); err != nil {
			return err
		}
	}
	samples, err := probeHomes(fleet.PopulationConfig{
		Seed:         *seed,
		TimingJitter: spec.TimingJitter,
		RulesPerHome: spec.RulesPerHome,
	}, sampleHomes)
	if err != nil {
		return err
	}
	samples["simtime.rand_seed_us"] = probeRandSeed(*seed)
	if samples["simtime.event_ns"], err = probeEvents(); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(samples)
}

// ms is the wall time since start in milliseconds.
func ms(start time.Time) float64 { return float64(time.Since(start).Nanoseconds()) / 1e6 }

func probeHomes(pc fleet.PopulationConfig, n int) (map[string][]float64, error) {
	s := make(map[string][]float64)
	add := func(name string, v float64) { s[name] = append(s[name], v) }
	acc := obs.NewAccumulator()
	// The first recycled arena is the started testbed of the home just past
	// the sample, so every sampled home has a Reset sample.
	arena, err := experiment.NewTestbed(testbedConfig(fleet.GenerateHome(pc, n)))
	if err != nil {
		return nil, fmt.Errorf("home %d: %w", n, err)
	}
	arena.Start()
	for i := 0; i < n; i++ {
		t := time.Now()
		home := fleet.GenerateHome(pc, i)
		add("fleet.generate_home_ms", ms(t))
		cfg := testbedConfig(home)
		t = time.Now()
		tb, err := experiment.NewTestbed(cfg)
		add("experiment.new_testbed_ms", ms(t))
		if err != nil {
			return nil, fmt.Errorf("home %d: %w", i, err)
		}
		t = time.Now()
		tb.Start()
		add("experiment.start_ms", ms(t))
		t = time.Now()
		snap := tb.Metrics.Snapshot()
		add("obs.snapshot_ms", ms(t))
		t = time.Now()
		acc.Add(snap)
		add("obs.accumulate_ms", ms(t))
		t = time.Now()
		err = arena.Reset(cfg)
		add("experiment.reset_testbed_ms", ms(t))
		if err != nil {
			return nil, fmt.Errorf("home %d: reset: %w", i, err)
		}
		arena = tb
	}
	return s, nil
}

// testbedConfig is the config the fleet builds for a home: tracing off.
func testbedConfig(home fleet.HomeSpec) experiment.TestbedConfig {
	return experiment.TestbedConfig{
		Seed:       home.Seed,
		Devices:    home.Devices,
		LANLatency: home.LANLatency,
		WANLatency: home.WANLatency,
		Jitter:     home.LinkJitter,
		Overrides:  home.Overrides,
		TraceCap:   -1,
	}
}

// probeRandSeed samples the per-call cost of NewRand and Reseed, half each.
func probeRandSeed(seed int64) []float64 {
	out := make([]float64, 0, batches)
	for b := 0; b < batches; b++ {
		t := time.Now()
		for i := 0; i < seedsPer; i++ {
			r := simtime.NewRand(seed + int64(i))
			r.Reseed(seed - int64(i))
		}
		out = append(out, float64(time.Since(t).Nanoseconds())/1e3/(2*seedsPer))
	}
	return out
}

// probeEvents samples the per-event cost of scheduling eventsPer callbacks
// at scattered times on a fresh clock and running them all.
func probeEvents() ([]float64, error) {
	out := make([]float64, 0, batches)
	fired := 0
	fn := func() { fired++ }
	for b := 0; b < batches; b++ {
		t := time.Now()
		c := simtime.NewClock()
		for i := 0; i < eventsPer; i++ {
			c.Schedule(time.Duration(i*7919%eventRange)*time.Millisecond, fn)
		}
		c.Run()
		out = append(out, float64(time.Since(t).Nanoseconds())/eventsPer)
	}
	if fired != batches*eventsPer {
		return nil, fmt.Errorf("%d of %d scheduled events fired", fired, batches*eventsPer)
	}
	return out, nil
}
