// Command phantomlab reproduces the paper's evaluation: the Table I/II
// timeout measurements, the Table III proof-of-concept attacks, the
// verification test, the three session-behaviour findings, the
// countermeasure studies, the record-and-replay vulnerability assessment,
// and fleet-scale attack campaigns over synthetic home populations.
//
// Usage:
//
//	phantomlab [flags] <table1|table2|table3|verify|findings|defense|recon|ablation|replay|all>
//	phantomlab fleet [-homes N] [-workers W] [-seed S] [-campaign spec.json]
//	                 [-checkpoint state.json] [-out results.json] [-serve ADDR]
//	                 [-metrics F] [-metrics-format X]
//	phantomlab fleet ...campaign flags... -shard-range A:B -partial part.json
//	phantomlab fleet -merge [-out results.json] [-metrics F] part1.json part2.json ...
//
// A fleet campaign can be split across processes: each worker process runs
// `-shard-range A:B` over its slice of the shard index space and writes a
// mergeable partial; `-merge` folds the partials — for any split — into a
// result byte-identical to a single-process run.
//
// Flags:
//
//	-seed N            deterministic seed (default 1)
//	-trials N          measurement trials per message class (default 3; paper: 20)
//	-recovery D        inter-trial recovery (default 30s; paper: 2m)
//	-json              emit JSON rows instead of rendered tables (table1, table2, table3)
//	-metrics F         write the run's merged metrics snapshot to F
//	-metrics-format X  metrics encoding: json (default) or openmetrics
//	-trace F           write the run's attack flight-recorder timeline to F
//	-trace-format X    trace encoding: chrome (default, Perfetto-loadable) or text
//	-serve ADDR        serve the live observability plane (/metrics, /progress,
//	                   /trace, /healthz, /debug/pprof) on ADDR while the run executes
//	-cpuprofile F      write a CPU profile of the run to F (go tool pprof)
//	-memprofile F      write a heap profile taken at exit to F
//
// Before the fleet command word only -serve, -metrics, -metrics-format,
// -cpuprofile and -memprofile apply; fleet refuses the other flags there
// and takes its own -seed after the word. Every flag is checked against
// the command before anything runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/device"
	"repro/internal/experiment"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/obs/serve"
	"repro/internal/obs/timeline"
)

// metricsCommands lists every command whose run produces observability
// snapshots, i.e. the commands -metrics accepts. traceCommands is the
// subset whose per-run results carry flight-recorder events when asked
// to, i.e. the commands -trace accepts, and jsonCommands the commands
// -json renders. fleetInherits lists the top-level flags fleet honours;
// it refuses every other one, since it takes its own -seed.
var (
	metricsCommands = []string{"table1", "table2", "table3", "verify", "findings", "defense", "replay", "all", "fleet"}
	traceCommands   = []string{"table1", "table2", "table3", "verify", "replay", "all"}
	jsonCommands    = []string{"table1", "table2", "table3"}
	fleetInherits   = []string{"serve", "metrics", "metrics-format", "cpuprofile", "memprofile"}
)

// cliTraceCap sizes the flight-recorder ring for -trace runs: large enough
// that a whole table row survives without eviction, small enough to stay
// cheap.
const cliTraceCap = 65536

// writeHeapProfile records an end-of-run allocation profile. A GC first
// makes the live-heap numbers exact rather than whatever the last cycle
// left behind.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}

func supports(cmds []string, cmd string) bool {
	for _, c := range cmds {
		if c == cmd {
			return true
		}
	}
	return false
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "phantomlab:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("phantomlab", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "deterministic seed")
	trials := fs.Int("trials", 3, "trials per message class (paper uses 20)")
	recovery := fs.Duration("recovery", 30*time.Second, "inter-trial recovery (paper uses 2m)")
	jsonOut := fs.Bool("json", false, "emit JSON instead of rendered tables (table1/table2/table3)")
	metricsOut := fs.String("metrics", "", "write merged metrics snapshot to this file ("+strings.Join(metricsCommands, "/")+")")
	metricsFormat := fs.String("metrics-format", "json", "metrics encoding: json or openmetrics")
	traceOut := fs.String("trace", "", "write attack flight-recorder timeline to this file ("+strings.Join(traceCommands, "/")+")")
	traceFormat := fs.String("trace-format", "chrome", "trace encoding: chrome (Perfetto-loadable) or text")
	serveAddr := fs.String("serve", "", "serve the live observability plane on this address (e.g. :9090) while the run executes")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile taken at exit to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *metricsFormat {
	case "json", "openmetrics":
	default:
		return fmt.Errorf("-metrics-format: unknown format %q (supported: json, openmetrics)", *metricsFormat)
	}
	switch *traceFormat {
	case "chrome", "text":
	default:
		return fmt.Errorf("-trace-format: unknown format %q (supported: chrome, text)", *traceFormat)
	}
	// Flag parsing stops at the first positional, so subcommand flags
	// arrive in fs.Args()[1:].
	cmd := fs.Arg(0)
	if cmd != "fleet" && fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("expected one command: table1|table2|table3|verify|findings|defense|recon|ablation|replay|all|fleet")
	}
	// Check every flag against the command before anything runs.
	if cmd == "fleet" {
		var refused []string
		fs.Visit(func(f *flag.Flag) {
			if !supports(fleetInherits, f.Name) {
				refused = append(refused, "-"+f.Name)
			}
		})
		if len(refused) > 0 {
			return fmt.Errorf("%s does not apply to fleet; fleet's own flags follow the command word (phantomlab fleet -seed N)", strings.Join(refused, ", "))
		}
	}
	if *jsonOut && !supports(jsonCommands, cmd) {
		return fmt.Errorf("-json: command %q has no JSON form (supported: %s)", cmd, strings.Join(jsonCommands, ", "))
	}
	if *metricsOut != "" && !supports(metricsCommands, cmd) {
		return fmt.Errorf("-metrics: command %q produces no metrics (supported: %s)", cmd, strings.Join(metricsCommands, ", "))
	}
	if *traceOut != "" && !supports(traceCommands, cmd) {
		return fmt.Errorf("-trace: command %q records no timeline (supported: %s)", cmd, strings.Join(traceCommands, ", "))
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			if err := writeHeapProfile(*memProfile); err != nil {
				fmt.Fprintln(os.Stderr, "phantomlab: -memprofile:", err)
			}
		}()
	}
	if cmd == "fleet" {
		return runFleet(fs.Args()[1:], *serveAddr, *metricsOut, *metricsFormat)
	}

	opts := experiment.TableOptions{Seed: *seed, Trials: *trials, Recovery: *recovery}
	// -serve engages the flight recorder like -trace does: the live /trace
	// endpoint is only useful if rows record events.
	if *traceOut != "" || *serveAddr != "" {
		opts.TraceCap = cliTraceCap
	}
	out := os.Stdout

	// Metrics snapshots from every command of this invocation stream into
	// one accumulator, the single source behind both the -metrics file and
	// the live /metrics endpoint. Trace sources are the per-run event
	// streams behind -trace and /trace, one named timeline per table row /
	// case / verified device; the store is mutex-guarded because the serve
	// plane reads it mid-run.
	acc := obs.NewAccumulator()
	var traceSrcs traceStore

	if *serveAddr != "" {
		srv, err := serve.Start(*serveAddr, serve.Plane{
			Metrics:      acc.State,
			TraceSources: traceSrcs.snapshot,
		})
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "phantomlab: serving observability plane on http://%s\n", srv.Addr())
	}

	rowSources := func(rows []experiment.TableRow) {
		for _, r := range rows {
			if len(r.Trace) > 0 {
				traceSrcs.add(timeline.Source{Name: r.Label, Events: r.Trace})
			}
		}
	}

	runOne := func(name string) error {
		switch name {
		case "table1":
			rows := experiment.RunTable1(opts)
			acc.Add(experiment.MergedMetrics(rows))
			rowSources(rows)
			if *jsonOut {
				return experiment.WriteRowsJSON(out, rows)
			}
			experiment.FormatRows(out, "Table I — cloud-connected devices (33)", rows)
		case "table2":
			t2 := opts
			t2.UnboundedDemo = 2 * time.Hour
			rows := experiment.RunTable2(t2)
			acc.Add(experiment.MergedMetrics(rows))
			rowSources(rows)
			if *jsonOut {
				return experiment.WriteRowsJSON(out, rows)
			}
			experiment.FormatRows(out, "Table II — HomeKit accessories on a local hub (17)", rows)
		case "table3":
			cases := experiment.Table3Cases()
			for i := range cases {
				cases[i].TraceCap = opts.TraceCap
			}
			results := experiment.RunCases(cases, *seed+500)
			for _, r := range results {
				acc.Add(r.Metrics)
				if len(r.Trace) > 0 {
					traceSrcs.add(timeline.Source{Name: fmt.Sprintf("case-%d", r.Case.ID), Events: r.Trace})
				}
			}
			if *jsonOut {
				return experiment.WriteCasesJSON(out, results)
			}
			experiment.FormatCaseResults(out, results)
		case "verify":
			labels := []string{"C1", "L2", "CM1", "K2", "M7", "A1"}
			results := experiment.RunVerification(labels, experiment.VerifyOptions{
				Seed: *seed + 600, Trials: *trials, TraceCap: opts.TraceCap,
			})
			for _, r := range results {
				acc.Add(r.Metrics)
				if len(r.Trace) > 0 {
					traceSrcs.add(timeline.Source{Name: r.Label, Events: r.Trace})
				}
			}
			experiment.FormatVerifyResults(out, results)
		case "findings":
			results := experiment.RunFindings(*seed + 700)
			for _, r := range results {
				acc.Add(r.Metrics)
			}
			experiment.FormatFindings(out, results)
		case "defense":
			ack := experiment.RunAckTimeoutDefense("C2",
				[]time.Duration{20 * time.Second, 10 * time.Second, 5 * time.Second}, *seed+800)
			ts := experiment.RunTimestampDefense(*seed + 820)
			for _, r := range ack {
				acc.Add(r.Metrics)
			}
			acc.Add(ts.Metrics)
			experiment.FormatDefenseResults(out, ack, ts)
		case "recon":
			labels := []string{"C1", "M1", "L2", "M2", "C2", "M3", "LK1", "P2", "CM1", "K2", "SD1", "P4"}
			results := experiment.RunReconCoverage(labels, []int{3, 6, 10, 100}, *seed+1200)
			experiment.FormatRecon(out, results)
		case "replay":
			results := experiment.RunReplayAssessment(catalogLabels(), experiment.ReplayOptions{
				Seed: *seed + 1300, TraceCap: opts.TraceCap,
			})
			for _, r := range results {
				acc.Add(r.Metrics)
				if len(r.Trace) > 0 {
					traceSrcs.add(timeline.Source{Name: "replay-" + r.Label, Events: r.Trace})
				}
			}
			experiment.FormatReplayTable(out, results)
		case "ablation":
			margins := experiment.RunMarginAblation("C1",
				[]time.Duration{time.Second, 2 * time.Second, 5 * time.Second, 10 * time.Second}, *trials, *seed+900)
			boundary := experiment.RunDetectionBoundary("C1",
				[]time.Duration{40 * time.Second, 45 * time.Second, 50 * time.Second, 60 * time.Second}, *seed+910)
			experiment.FormatAblation(out, margins, boundary)
		default:
			return fmt.Errorf("unknown command %q", name)
		}
		fmt.Fprintln(out)
		return nil
	}

	if cmd == "all" {
		for _, name := range []string{"table1", "table2", "table3", "verify", "findings", "defense", "recon", "ablation", "replay"} {
			if err := runOne(name); err != nil {
				return err
			}
		}
	} else if err := runOne(cmd); err != nil {
		return err
	}
	if err := writeMetrics(*metricsOut, *metricsFormat, acc.State()); err != nil {
		return err
	}
	return writeTrace(*traceOut, *traceFormat, cmd, traceSrcs.snapshot())
}

// runFleet executes the fleet subcommand: a sharded attack campaign over a
// synthetic population of homes — whole, one shard range of it, or a merge
// of completed range partials. inheritServe/inheritMetrics carry -serve,
// -metrics and -metrics-format given before the subcommand word; fleet's
// own flags override them.
func runFleet(args []string, inheritServe, inheritMetrics, inheritMetricsFormat string) error {
	fs := flag.NewFlagSet("phantomlab fleet", flag.ContinueOnError)
	homes := fs.Int("homes", 100, "population size")
	workers := fs.Int("workers", 1, "worker-pool size (wall-clock only; results are identical for any value)")
	seed := fs.Int64("seed", 1, "population master seed")
	campaignPath := fs.String("campaign", "", "campaign spec JSON file (default: built-in edelay-sensors campaign)")
	checkpointPath := fs.String("checkpoint", "", "persist the campaign's compacted partial aggregate to this JSON file and resume from it")
	outPath := fs.String("out", "", "write aggregated results JSON to this file (default stdout)")
	shardSize := fs.Int("shard-size", fleet.DefaultShardSize, "homes per checkpoint shard")
	serveAddr := fs.String("serve", inheritServe, "serve the live observability plane on this address (e.g. :9090) while the campaign runs")
	metricsOut := fs.String("metrics", inheritMetrics, "write the campaign's merged metrics snapshot to this file")
	metricsFormat := fs.String("metrics-format", inheritMetricsFormat, "metrics encoding: json or openmetrics")
	shardRange := fs.String("shard-range", "", "run only shards [A,B) of the campaign and write a mergeable partial (requires -partial)")
	partialPath := fs.String("partial", "", "write the completed shard range's partial to this file (with -shard-range)")
	merge := fs.Bool("merge", false, "merge partial files (the positional arguments) into the final result instead of running")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *metricsFormat {
	case "json", "openmetrics":
	default:
		return fmt.Errorf("-metrics-format: unknown format %q (supported: json, openmetrics)", *metricsFormat)
	}

	if *merge {
		var clash []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "homes", "workers", "seed", "campaign", "checkpoint", "shard-size", "shard-range", "partial":
				clash = append(clash, "-"+f.Name)
			}
		})
		if len(clash) > 0 {
			return fmt.Errorf("fleet -merge reconstructs the campaign from the partial files themselves; drop %s", strings.Join(clash, ", "))
		}
		if fs.NArg() == 0 {
			return fmt.Errorf("fleet -merge needs the partial files to merge as arguments")
		}
		return mergeFleet(fs.Args(), *outPath, *metricsOut, *metricsFormat)
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("fleet takes no positional arguments, got %q", fs.Args())
	}

	rangeFirst, rangeLast := 0, 0
	if *shardRange != "" {
		var err error
		if rangeFirst, rangeLast, err = parseShardRange(*shardRange); err != nil {
			return err
		}
		if *partialPath == "" {
			return fmt.Errorf("-shard-range needs -partial FILE for the range's mergeable output")
		}
		if *outPath != "" {
			return fmt.Errorf("-out does not apply to a shard range: a range worker emits a partial (-partial), and `fleet -merge` emits the result")
		}
		if *metricsOut != "" {
			return fmt.Errorf("-metrics does not apply to a shard range: the partial carries the exact metric state, and `fleet -merge` emits the merged snapshot")
		}
	} else if *partialPath != "" {
		return fmt.Errorf("-partial only applies with -shard-range")
	}

	spec := fleet.DefaultSpec()
	if *campaignPath != "" {
		data, err := os.ReadFile(*campaignPath)
		if err != nil {
			return fmt.Errorf("campaign spec: %w", err)
		}
		if spec, err = fleet.ParseSpec(data); err != nil {
			return err
		}
	}

	// The tracker keeps the campaign's last observation of its own
	// aggregate: the stderr progress line, /progress and /metrics all read
	// it. It sits on the wall-clock side: the serve plane reads it
	// concurrently while the collector writes, and it cannot perturb the
	// aggregate — results stay byte-identical with -serve on or off.
	trackHomes := *homes
	if *shardRange != "" {
		trackHomes = rangeHomes(rangeFirst, rangeLast, *shardSize, *homes)
	}
	tracker := fleet.NewProgressTracker(time.Now(), trackHomes)
	c := fleet.Campaign{
		Spec:           spec,
		Homes:          *homes,
		Workers:        *workers,
		ShardSize:      *shardSize,
		Seed:           *seed,
		CheckpointPath: *checkpointPath,
		Observe: func(p fleet.Progress) {
			tracker.Observe(p)
			fmt.Fprintln(os.Stderr, tracker.ReportAt(time.Now()).Line())
		},
	}

	if *serveAddr != "" {
		// Fleet homes run traceless, so the plane serves no /trace.
		srv, err := serve.Start(*serveAddr, serve.Plane{
			Metrics:  tracker.Metrics,
			Progress: func() any { return tracker.ReportAt(time.Now()) },
		})
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "phantomlab: serving observability plane on http://%s\n", srv.Addr())
	}

	if *shardRange != "" {
		p, err := c.RunRange(rangeFirst, rangeLast)
		if err != nil {
			return err
		}
		return c.SavePartial(*partialPath, p)
	}

	res, err := c.Run()
	if err != nil {
		return err
	}
	if err := writeResult(*outPath, res); err != nil {
		return err
	}
	return writeMetrics(*metricsOut, *metricsFormat, res.Metrics)
}

// mergeFleet folds completed -shard-range partials into the final campaign
// result. The campaign identity travels inside every partial file, so the
// merge needs no flags beyond where to write.
func mergeFleet(paths []string, outPath, metricsOut, metricsFormat string) error {
	c, parts, err := fleet.LoadPartials(paths)
	if err != nil {
		return err
	}
	res, err := c.MergePartials(parts)
	if err != nil {
		return err
	}
	if err := writeResult(outPath, res); err != nil {
		return err
	}
	return writeMetrics(metricsOut, metricsFormat, res.Metrics)
}

// parseShardRange parses the -shard-range A:B flag value.
func parseShardRange(s string) (first, last int, err error) {
	a, b, ok := strings.Cut(s, ":")
	if ok {
		if first, err = strconv.Atoi(a); err == nil {
			last, err = strconv.Atoi(b)
		}
	}
	if !ok || err != nil {
		return 0, 0, fmt.Errorf("-shard-range: want FIRST:LAST shard indexes (half-open), got %q", s)
	}
	return first, last, nil
}

// rangeHomes counts the homes shards [first, last) cover, for progress
// totals. Bad ranges come out ≤ 0 here and are rejected by RunRange.
func rangeHomes(first, last, shardSize, homes int) int {
	if shardSize <= 0 {
		shardSize = fleet.DefaultShardSize
	}
	hi := last * shardSize
	if hi > homes {
		hi = homes
	}
	n := hi - first*shardSize
	if n < 0 {
		n = 0
	}
	return n
}

// writeResult writes the aggregated campaign result to path, or stdout.
func writeResult(path string, res fleet.Result) error {
	var w io.Writer = os.Stdout
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("fleet output: %w", err)
		}
		defer f.Close()
		w = f
	}
	return res.WriteJSON(w)
}

// traceStore collects the run's per-timeline event streams. The run loop
// appends; the serve plane's /trace handler snapshots concurrently, so
// access is mutex-guarded.
type traceStore struct {
	mu   sync.Mutex
	srcs []timeline.Source
}

func (t *traceStore) add(s timeline.Source) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.srcs = append(t.srcs, s)
}

func (t *traceStore) snapshot() []timeline.Source {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]timeline.Source(nil), t.srcs...)
}

// writeMetrics dumps the run's merged metrics snapshot to path, in the
// requested encoding.
func writeMetrics(path, format string, snap obs.Snapshot) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("metrics output: %w", err)
	}
	if format == "openmetrics" {
		err = obs.WriteOpenMetrics(f, snap)
	} else {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		err = enc.Encode(snap)
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("metrics output: %w", err)
	}
	return f.Close()
}

// writeTrace reconstructs per-run timelines from the collected flight-
// recorder streams and writes them to path. A -trace run whose results
// carried no events means tracing never engaged — surface that instead of
// writing an empty file.
func writeTrace(path, format, cmd string, srcs []timeline.Source) error {
	if path == "" {
		return nil
	}
	if len(srcs) == 0 {
		return fmt.Errorf("-trace: command %q produced no flight-recorder events", cmd)
	}
	tls := timeline.BuildAll(srcs)
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	if format == "text" {
		err = timeline.WriteText(f, tls)
	} else {
		err = timeline.WriteChromeTrace(f, tls)
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("trace output: %w", err)
	}
	return f.Close()
}

// catalogLabels lists every catalog device in declaration order — the
// replay assessment probes the whole population, hub children included.
func catalogLabels() []string {
	var out []string
	for _, p := range device.Catalog() {
		out = append(out, p.Label)
	}
	return out
}
