// Command bench is the benchmark's entry point, started by run.sh once
// the binaries are built:
//
//	bench -bin DIR --workload NAME --seed N --seconds S --trace 0|1
//
// A run with --trace 0 measures the end-to-end metrics. It starts one
// workload process after another (a rep), as many as fill S seconds at the
// workload's nominal rep time, and at least minReps. Every rep does the
// same work on inputs made from the seed, so the same seed and seconds
// always attempt, and fail, the same units. The run reports the median of
// each metric over its reps, so that one slow rep on a busy machine does
// not move the result. Reps are sized so that at least three fit in the
// run. Time figures are reported at the machine's nominal speed, measured
// by a reference job around every workload process; see speed.go.
//
// A run with --trace 1 measures the per-layer metrics at the same seed and
// rep size: CPU profiles charged to modules, the workload's own metrics
// counters, spans around the benchmark's calls into exported functions,
// and Go runtime counts. It never reports end-to-end numbers.
//
// Every rep's outputs are checked, and the last stdout line is the JSON
// result. A broken output check makes the run incorrect and counts all its
// units as failed.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	// paper selects `phantomlab -trials 20 -recovery 2m all`, one complete
	// reproduction per rep. Otherwise the rep is `phantomlab fleet`.
	paper bool
	// homes is the fleet population size of one rep.
	homes int
	// parts is how many range workers a fleet rep runs the campaign as,
	// one after another; 0 runs it in one process.
	parts int
	// campaign is the fleet campaign spec. Empty selects the built-in
	// edelay-sensors campaign.
	campaign string
	// repSeconds is how long one timed rep, with its set-up samples and
	// reference jobs, takes on the 2-vCPU machine the benchmark was sized
	// on. It sets how many reps a run makes; see reps.
	repSeconds float64
}

// reps returns how many reps fill budget at the workload's nominal rep
// time, and at least min. The count depends on the arguments alone, not on
// how fast the machine runs at the moment: a run whose rep count followed
// the clock would attempt more units, and fail more of the known-defect
// homes, on a fast machine than on a slow one.
func (w workload) reps(budget time.Duration, min int) int {
	return max(min, int(budget.Seconds()/w.repSeconds))
}

// workers is the fleet worker-pool size the worker runs campaigns with:
// the 2 vCPUs of the machine the benchmark was sized on, so 2 homes are in
// flight. fleet.parallel_eff compares against it.
const workers = 2

// minReps is the fewest reps a timed run makes, so that its median is the
// middle one of at least three.
const minReps = 3

// minTracedReps is the fewest reps each phase of a traced run makes. Its
// figures carry no bound, so two suffice and the traced run stays short.
const minTracedReps = 2

var workloads = map[string]workload{
	// Per-home fixed costs dominate: testbed build, RNG seeding and the
	// TCP+TLS session set-up in Testbed.Start.
	"fleet_edelay": {homes: 1000, repSeconds: 1.5},
	// Each home holds its session blackholed for one simulated hour, so the
	// per-event path dominates: netsim delivery, ARP re-poisoning, the
	// scheduler heap and attacker capture. The work per home varies with
	// its target, so a rep needs many homes for its mean to hold still
	// across seeds (events per home spread 6.2% over ten seeds at 512
	// homes, 3.5% at 1024), yet few enough that four reps fit in a run. A
	// rep runs as three range workers of 256 homes, so that the reference
	// job measures the machine's speed every 2 s of it, not every 6 s.
	"fleet_offline_hour": {homes: 768, parts: 3, campaign: `{"attack":"offline","holdSecs":3600}`, repSeconds: 5},
	// The paper's procedure: the profiler, Table III cases, defenses and
	// the replay assessment, serially on one testbed at a time.
	"paper_all": {paper: true, repSeconds: 1.9},
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	bin := fs.String("bin", "", "directory holding the built phantomlab, worker and probe binaries")
	name := fs.String("workload", "", "workload to run: fleet_edelay, fleet_offline_hour or paper_all")
	seed := fs.Int64("seed", 1, "seed of the workload's inputs, passed on as -seed")
	seconds := fs.Int("seconds", 10, "how long the run measures")
	trace := fs.Int("trace", 0, "1 measures the per-layer metrics instead of the end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown --workload %q", *name)
	}
	if *bin == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need -bin, --seconds >= 1 and --trace 0 or 1")
	}
	for _, b := range []string{"phantomlab", "worker"} {
		if _, err := os.Stat(filepath.Join(*bin, b)); err != nil {
			return fmt.Errorf("binary missing, did its build fail? %w", err)
		}
	}
	b, err := newBench(*bin, w, *seed)
	if err != nil {
		return err
	}
	defer os.RemoveAll(b.dir)

	budget := time.Duration(*seconds) * time.Second
	var metrics map[string]metric
	if *trace == 1 {
		metrics, err = b.traced(budget)
	} else {
		metrics, err = b.timed(budget)
	}
	if err != nil {
		return err
	}
	return b.printResult(metrics)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one benchmark run: its workload, seed, scratch files and
// correctness account.
type bench struct {
	bin  string
	dir  string // per-run scratch directory, removed at exit
	w    workload
	seed int64
	env  []string
	n    int // files made so far, for unique names

	// attempted counts units over every rep of the run: homes for fleet
	// reps, checked items for paper reps. homesFailed counts the fleet's
	// failed homes, which are failed units but no broken check.
	attempted, homesFailed int
	broken                 []string  // broken output checks, for the report
	want                   []byte    // the first rep's output, which all others must match
	setups                 []float64 // set-up times of every process, at nominal speed
	lastReference          float64   // the reference job's latest time; see bracket
}

func newBench(bin string, w workload, seed int64) (*bench, error) {
	dir := filepath.Join(filepath.Dir(bin), "runs", strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &bench{bin: bin, dir: dir, w: w, seed: seed, env: userEnv(os.Environ())}, nil
}

// userEnv drops the Go runtime overrides, so workload processes run with
// the defaults users get.
func userEnv(env []string) []string {
	var out []string
	for _, kv := range env {
		switch strings.SplitN(kv, "=", 2)[0] {
		case "GOGC", "GOMAXPROCS", "GODEBUG", "GOMEMLIMIT":
			continue
		}
		out = append(out, kv)
	}
	return out
}

// file returns a fresh path in the run directory.
func (b *bench) file(suffix string) string {
	b.n++
	return filepath.Join(b.dir, strconv.Itoa(b.n)+suffix)
}

// fail records a broken output check.
func (b *bench) fail(format string, args ...any) {
	b.broken = append(b.broken, fmt.Sprintf(format, args...))
}

// campaignFile writes the fleet campaign spec once and returns its path,
// or "" for the built-in campaign.
func (b *bench) campaignFile() (string, error) {
	if b.w.campaign == "" {
		return "", nil
	}
	p := filepath.Join(b.dir, "campaign.json")
	if _, err := os.Stat(p); err == nil {
		return p, nil
	}
	return p, os.WriteFile(p, []byte(b.w.campaign), 0o644)
}

// repOptions vary a rep away from the timed default.
type repOptions struct {
	profile bool // take a CPU profile; paper reps also write their metrics
	setups  int  // extra set-up samples to take before the rep
}

// setupsPerRep is how many set-up-only processes a timed rep adds to the
// set-up samples. Set-up takes milliseconds, so a median over many
// samples costs little and steadies setup_s.
const setupsPerRep = 4

// rep runs one rep's workload processes and checks their outputs. A fleet
// rep of a workload with parts > 1 runs the campaign as that many range
// workers over consecutive shard ranges, one after another, as a
// multi-process fleet does, and merges their partials with `phantomlab
// fleet -merge`. The reference job runs after each process, so that each
// is measured at the machine's speed around it.
func (b *bench) rep(o repOptions) (repResult, error) {
	args := []string{"-seed", strconv.FormatInt(b.seed, 10)}
	if b.w.paper {
		args = append(args, "-mode", "paper")
	} else {
		args = append(args, "-mode", "fleet", "-homes", strconv.Itoa(b.w.homes))
		spec, err := b.campaignFile()
		if err != nil {
			return repResult{}, err
		}
		if spec != "" {
			args = append(args, "-campaign", spec)
		}
	}
	worker := filepath.Join(b.bin, "worker")
	var setups []float64
	for i := 0; i < o.setups; i++ {
		var s repResult
		if err := runProcess(&s, worker, append(args, "-out", b.file(".out"), "-setup-only"), b.env); err != nil {
			b.fail("set-up sample: %v", err)
			break
		}
		setups = append(setups, s.setupS)
	}

	r := repResult{ok: true}
	var outs []string
	for i := 0; i < max(1, b.w.parts); i++ {
		pargs := append([]string(nil), args...)
		out := b.file(".out")
		outs = append(outs, out)
		pargs = append(pargs, "-out", out)
		if b.w.parts > 1 {
			pargs = append(pargs, "-part", fmt.Sprintf("%d/%d", i, b.w.parts))
		}
		if o.profile {
			prof := b.file(".pprof")
			r.profiles = append(r.profiles, prof)
			pargs = append(pargs, "-cpuprofile", prof)
			if b.w.paper {
				r.metricsFile = b.file(".json")
				pargs = append(pargs, "-metrics", r.metricsFile)
			}
		}
		var p repResult
		err := runProcess(&p, worker, pargs, b.env)
		if err == nil && (p.report.Units <= 0 || p.report.DoneNs <= p.report.ReadyNs || p.report.PeakRSSKB <= 0) {
			err = fmt.Errorf("worker report without timed units or peak RSS: %+v", p.report)
		}
		slowdown := b.bracket()
		if errors.Is(err, errStart) {
			return repResult{}, err
		}
		if err != nil {
			b.failRep(err)
			return repResult{}, nil
		}
		if i == 0 {
			// The set-up samples ran in the same span as the first process.
			for _, s := range setups {
				b.setups = append(b.setups, s/slowdown)
			}
		}
		r.add(p, slowdown)
		b.setups = append(b.setups, p.setupS/slowdown)
	}

	output, err := b.output(outs)
	if err != nil {
		b.failRep(err)
		return repResult{}, nil
	}
	r.output = output
	b.account(&r)
	return r, nil
}

// failRep records a rep whose program failed, which breaks the run's
// output check. Its items unknown, a paper rep counts as one unit.
func (b *bench) failRep(err error) {
	b.fail("%v", err)
	if b.w.paper {
		b.attempted++
	} else {
		b.attempted += b.w.homes
	}
}

// output returns a rep's result: its one process's output file, or the
// merge of its range workers' partials.
func (b *bench) output(outs []string) ([]byte, error) {
	defer func() {
		for _, f := range outs {
			os.Remove(f)
		}
	}()
	if len(outs) == 1 {
		return os.ReadFile(outs[0])
	}
	merged := b.file(".json")
	defer os.Remove(merged)
	if _, err := b.command("phantomlab", append([]string{"fleet", "-merge", "-out", merged}, outs...)...); err != nil {
		return nil, err
	}
	return os.ReadFile(merged)
}

// account checks one finished rep and adds it to the run's tallies.
func (b *bench) account(r *repResult) {
	if b.w.paper {
		p := r.report.Paper
		if p == nil {
			b.fail("paper rep returned no checks")
			p = &paperChecks{Items: 1}
		}
		b.attempted += p.Items
		for _, f := range p.Failures {
			b.fail("%s", f)
		}
	} else {
		res, err := checkFleet(r.output, b.w.homes)
		if err != nil {
			b.fail("%v", err)
		}
		b.attempted += b.w.homes
		b.homesFailed += res.HomesFailed
		r.fleet = res
	}
	if b.want == nil {
		b.want = r.output
	} else if !bytes.Equal(r.output, b.want) {
		b.fail("output differs between reps of the same inputs (digest %s vs %s)", digest(r.output), digest(b.want))
	}
}

// counts returns the run's attempted and failed units. A broken output
// check fails every unit of the run; otherwise only the failed homes fail.
func (b *bench) counts() (attempted, failed int) {
	if len(b.broken) > 0 {
		return b.attempted, b.attempted
	}
	return b.attempted, b.homesFailed
}

// loop runs n reps.
func (b *bench) loop(n int, o repOptions) ([]repResult, error) {
	var reps []repResult
	reference() // warm-up: the first run also grows the heap
	b.lastReference = reference()
	for len(reps) < n {
		r, err := b.rep(o)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
	}
	return reps, nil
}

// bracket runs the reference job and returns the machine's slowdown over
// the span since the previous run of it; see speed.go.
func (b *bench) bracket() float64 {
	t := reference()
	slowdown := math.Pow((b.lastReference+t)/2/referenceNominalS, speedElasticity)
	b.lastReference = t
	return slowdown
}

// timed measures the end-to-end metrics.
func (b *bench) timed(budget time.Duration) (map[string]metric, error) {
	start := time.Now()
	reps, err := b.loop(b.w.reps(budget, minReps), repOptions{setups: setupsPerRep})
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	m := endToEnd(reps, b.setups)
	for i, r := range okReps(reps) {
		fmt.Printf("rep %d: slowdown %.4g: %.6g units/s (%.6g as measured), %.6g CPU ms/unit (%.6g as measured), %.4g MB peak\n",
			i+1, r.timedS/r.nomTimedS, r.unitsPerSec(), r.rawUnitsPerSec(), r.cpuMsPerUnit(), r.rawCPUMsPerUnit(), r.rssMB)
	}
	fmt.Printf("%d reps and %d set-up samples in %.3g s, %s\n", len(reps), len(b.setups), elapsed.Seconds(), b.describe())
	fmt.Printf("digest %s\n", digest(b.want))
	for _, k := range sortedKeys(m) {
		fmt.Printf("  %-16s %12.6g %s\n", k, m[k].Value, m[k].Unit)
	}
	attempted, failed := b.counts()
	fmt.Printf("  %-16s %12.6g ratio (%d of %d failed)\n", "failed_frac", b.failedFrac(), failed, attempted)
	return m, nil
}

func (b *bench) describe() string {
	if b.w.paper {
		return "one `phantomlab -trials 20 -recovery 2m all` reproduction each"
	}
	return fmt.Sprintf("%d homes at %d workers each", b.w.homes, workers)
}

func (b *bench) failedFrac() float64 {
	attempted, failed := b.counts()
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// endToEnd takes each metric's median over the reps that ran cleanly, and
// setup_s's over all set-up samples.
func endToEnd(reps []repResult, setups []float64) map[string]metric {
	reps = okReps(reps)
	col := func(f func(repResult) float64) float64 { return median(column(reps, f)) }
	return map[string]metric{
		"units_per_s":     {col(repResult.unitsPerSec), "1/s"},
		"cpu_ms_per_unit": {col(repResult.cpuMsPerUnit), "ms"},
		"peak_rss_mb":     {col(func(r repResult) float64 { return r.rssMB }), "MB"},
		"setup_s":         {median(setups), "s"},
	}
}

func (b *bench) printResult(metrics map[string]metric) error {
	for _, msg := range b.broken {
		fmt.Println("check failed:", msg)
	}
	attempted, failed := b.counts()
	line, err := json.Marshal(result{
		Correct:   len(b.broken) == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// digest is a short hash of a simulated output: two runs that leave every
// simulated statistic unchanged print the same digest.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
