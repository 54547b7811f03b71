package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// traced measures the per-layer metrics. A third of the budget goes to
// untraced reps, the baseline of trace.overhead_frac, and a third to reps
// under a CPU profile, each counted at the nominal rep time. Then come the
// workload's own extra checks and spans. Every rep's output must equal the
// first untraced rep's. CPU figures are at the machine's nominal speed, as
// the end-to-end ones are.
func (b *bench) traced(budget time.Duration) (map[string]metric, error) {
	n := b.w.reps(budget/3, minTracedReps)
	plain, err := b.loop(n, repOptions{})
	if err != nil {
		return nil, err
	}
	profiled, err := b.loop(n, repOptions{profile: true})
	if err != nil {
		return nil, err
	}
	m := make(map[string]metric)
	for _, def := range perLayerDefs() {
		m[def.Name] = metric{0, def.Unit}
	}
	plain, profiled = okReps(plain), okReps(profiled)
	if len(plain) == 0 || len(profiled) == 0 {
		return m, nil // the failed reps are already counted and reported
	}
	base := median(column(plain, repResult.unitsPerSec))
	m["trace.overhead_frac"] = metric{1 - median(column(profiled, repResult.unitsPerSec))/base, "ratio"}

	var paths []string
	units, cpuMs := 0, 0.0
	var gcCycles, allocBytes, allocs float64
	for _, r := range profiled {
		paths = append(paths, r.profiles...)
		units += r.report.Units
		cpuMs += r.nomCPUS * 1000
		gcCycles += float64(r.report.GCCycles)
		allocBytes += float64(r.report.AllocBytes)
		allocs += float64(r.report.Allocs)
	}
	shares, samples, err := moduleShares(paths)
	if err != nil {
		return nil, err
	}
	for mod, share := range shares {
		m[mod+".cpu_ms_per_unit"] = metric{share * cpuMs / float64(units), "ms"}
	}
	m["trace.profile_samples"] = metric{float64(samples), "count"}
	m["gc.cycles_per_unit"] = metric{gcCycles / float64(units), "count"}
	m["gc.alloc_kb_per_unit"] = metric{allocBytes / 1024 / float64(units), "KB"}
	m["gc.allocs_per_unit"] = metric{allocs / float64(units), "count"}

	if b.w.paper {
		err = b.tracedPaper(m, plain, profiled[0])
	} else {
		err = b.tracedFleet(m, base, profiled[0])
	}
	if err != nil {
		return nil, err
	}
	if n := len(perLayerDefs()); len(m) != n {
		return nil, fmt.Errorf("internal: traced run reports %d metrics, not the %d of perLayerDefs", len(m), n)
	}
	fmt.Printf("%d untraced and %d profiled reps, %s\n", len(plain), len(profiled), b.describe())
	fmt.Printf("digest %s\n", digest(b.want))
	for _, k := range sortedKeys(m) {
		fmt.Printf("  %-42s %12.6g %s\n", k, m[k].Value, m[k].Unit)
	}
	return m, nil
}

// tracedFleet adds the fleet's work counts, the probe's spans and the
// parallel efficiency. The 1-worker side of the efficiency is phantomlab
// itself on the same homes, whose result must equal the worker's 2-worker
// result byte for byte: one run checks both that the worker does what the
// CLI does and that the worker count changes no result.
func (b *bench) tracedFleet(m map[string]metric, base float64, profiled repResult) error {
	workCounts(m, profiled.fleet.Metrics, b.w.homes)

	spec, err := b.campaignFile()
	if err != nil {
		return err
	}
	out := b.file(".json")
	args := []string{"fleet", "-homes", strconv.Itoa(b.w.homes), "-workers", "1",
		"-seed", strconv.FormatInt(b.seed, 10), "-out", out}
	probeArgs := []string{"-seed", strconv.FormatInt(b.seed, 10)}
	if spec != "" {
		args = append(args, "-campaign", spec)
		probeArgs = append(probeArgs, "-campaign", spec)
	}
	start := time.Now()
	_, err = b.command("phantomlab", args...)
	elapsed := time.Since(start)
	slowdown := b.bracket()
	if err != nil {
		b.fail("%v", err)
	} else if got, err := os.ReadFile(out); err != nil || !bytes.Equal(got, b.want) {
		b.fail("phantomlab fleet -workers 1 result differs from the worker's %d-worker result (digest %s vs %s)",
			workers, digest(got), digest(b.want))
	} else {
		oneWorker := float64(b.w.homes) / elapsed.Seconds() * slowdown
		m["fleet.parallel_eff"] = metric{base / (workers * oneWorker), "ratio"}
	}

	stdout, err := b.command("probe", probeArgs...)
	if err != nil {
		b.fail("%v", err)
		return nil
	}
	var samples map[string][]float64
	if err := json.Unmarshal(stdout, &samples); err != nil {
		b.fail("probe output: %v", err)
		return nil
	}
	for _, s := range probeSpans {
		spans(m, s.name, s.unit, samples[s.name])
	}
	return nil
}

// tracedPaper adds the reproduction's work counts, its section spans from
// the untraced reps and their gap to the untraced wall time. It also runs
// `phantomlab all` itself: its stdout and metrics must equal the worker's
// byte for byte.
func (b *bench) tracedPaper(m map[string]metric, plain []repResult, profiled repResult) error {
	snap, err := readSnapshot(profiled.metricsFile)
	if err != nil {
		return err
	}
	workCounts(m, snap, 1)

	for _, s := range sectionNames {
		var v []float64
		for _, r := range plain {
			if r.report.Paper != nil {
				if x, ok := r.report.Paper.Seconds[s]; ok {
					v = append(v, x)
				}
			}
		}
		m["experiment."+s+"_s_p50"] = metric{median(v), "s"}
		m["experiment."+s+"_s_count"] = metric{float64(len(v)), "count"}
	}
	// The gap is taken within each rep, where the spans and the wall time
	// were measured together, and its median reported.
	gap := column(plain, func(r repResult) float64 {
		sum := 0.0
		if r.report.Paper != nil {
			for _, s := range sectionNames {
				sum += r.report.Paper.Seconds[s]
			}
		}
		return 1 - sum/r.timedS
	})
	m["experiment.span_gap_frac"] = metric{median(gap), "ratio"}

	metricsOut := b.file(".json")
	stdout, err := b.command("phantomlab", "-seed", strconv.FormatInt(b.seed, 10), "-trials", "20", "-recovery", "2m",
		"-metrics", metricsOut, "all")
	if err != nil {
		b.fail("%v", err)
		return nil
	}
	if !bytes.Equal(stdout, b.want) {
		b.fail("phantomlab all output differs from the worker's (digest %s vs %s)", digest(stdout), digest(b.want))
	}
	got, err1 := os.ReadFile(metricsOut)
	want, err2 := os.ReadFile(profiled.metricsFile)
	if err1 != nil || err2 != nil || !bytes.Equal(got, want) {
		b.fail("phantomlab all -metrics differs from the worker's (digest %s vs %s)", digest(got), digest(want))
	}
	return nil
}

// command runs one of the built binaries and returns its stdout.
func (b *bench) command(name string, args ...string) ([]byte, error) {
	cmd := exec.Command(filepath.Join(b.bin, name), args...)
	cmd.Env = b.env
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %v: %s", name, err, lastLine(stderr.String()))
	}
	return stdout.Bytes(), nil
}

func okReps(reps []repResult) []repResult {
	var out []repResult
	for _, r := range reps {
		if r.ok {
			out = append(out, r)
		}
	}
	return out
}

func column(reps []repResult, f func(repResult) float64) []float64 {
	v := make([]float64, len(reps))
	for i, r := range reps {
		v[i] = f(r)
	}
	return v
}
