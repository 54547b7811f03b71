// Command worker is one workload process of the benchmark. It runs a fleet
// campaign, one range worker's share of a multi-process campaign, or one
// complete paper reproduction, through the same exported entry points and
// arguments that phantomlab uses, and writes what phantomlab would write.
// It leaves out only the fleet's per-shard progress line on stderr.
//
// Its last stdout line is a JSON report. ReadyNs is the wall clock just
// before the first timed unit, and DoneNs the wall clock after the last one.
// The benchmark measures set-up and the timed phase against those stamps. GC
// and allocation counts cover the timed phase. PeakRSSKB is the process's
// peak resident set so far, from /proc/self/status (VmHWM), so the worker
// runs on Linux only.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
)

// report is the worker's stdout contract with the benchmark.
type report struct {
	ReadyNs    int64   `json:"readyNs"`
	DoneNs     int64   `json:"doneNs"`
	Units      int     `json:"units"`
	GCCycles   uint32  `json:"gcCycles"`
	AllocBytes uint64  `json:"allocBytes"`
	Allocs     uint64  `json:"allocs"`
	PeakRSSKB  int64   `json:"peakRssKB"`
	Paper      *checks `json:"paper,omitempty"`
}

// workers is the fleet worker-pool size: 2 homes in flight, one per vCPU of
// the 2-vCPU machine the benchmark was sized on.
const workers = 2

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "worker:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("worker", flag.ContinueOnError)
	mode := fs.String("mode", "fleet", "fleet (phantomlab fleet) or paper (phantomlab all)")
	seed := fs.Int64("seed", 1, "seed, passed on as phantomlab's -seed")
	homes := fs.Int("homes", 100, "fleet: population size")
	campaign := fs.String("campaign", "", "fleet: campaign spec JSON file (default: built-in edelay-sensors)")
	out := fs.String("out", "", "file for the fleet result JSON or the paper's rendered tables")
	metricsOut := fs.String("metrics", "", "paper: file for the merged metrics snapshot")
	cpuProfile := fs.String("cpuprofile", "", "file for a CPU profile of the process")
	part := fs.String("part", "", "fleet: I/N runs the I-th (from 0) of N consecutive shard ranges, as `phantomlab fleet -shard-range` does, and writes its partial to -out")
	setupOnly := fs.Bool("setup-only", false, "exit at the first timed unit, to sample set-up time")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("-out is required")
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	var rep report
	var before runtime.MemStats
	// ready stamps the start of the timed phase. With -setup-only it
	// reports at once and tells the caller to stop.
	ready := func() (stop bool) {
		runtime.ReadMemStats(&before)
		rep.ReadyNs = time.Now().UnixNano()
		if *setupOnly {
			printReport(rep)
		}
		return *setupOnly
	}
	done := func() {
		rep.DoneNs = time.Now().UnixNano()
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		rep.GCCycles = after.NumGC - before.NumGC
		rep.AllocBytes = after.TotalAlloc - before.TotalAlloc
		rep.Allocs = after.Mallocs - before.Mallocs
	}

	var output []byte
	switch *mode {
	case "fleet":
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
		c := fleet.Campaign{Spec: spec, Homes: *homes, Workers: workers, Seed: *seed}
		if *part != "" {
			first, last, err := shardRange(*part, *homes)
			if err != nil {
				return err
			}
			if ready() {
				return nil
			}
			p, err := c.RunRange(first, last)
			done()
			if err != nil {
				return err
			}
			if err := c.SavePartial(*out, p); err != nil {
				return err
			}
			rep.Units = p.Homes()
			printReport(rep)
			return nil
		}
		if ready() {
			return nil
		}
		res, err := c.Run()
		done()
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf); err != nil {
			return err
		}
		output = buf.Bytes()
		rep.Units = *homes
	case "paper":
		var buf bytes.Buffer
		acc := obs.NewAccumulator()
		if ready() {
			return nil
		}
		results := reproduce(&buf, acc, *seed)
		done()
		rep.Paper = check(results)
		rep.Units = 1
		output = buf.Bytes()
		if *metricsOut != "" {
			data, err := json.MarshalIndent(acc.State(), "", "  ")
			if err != nil {
				return err
			}
			// phantomlab's -metrics file is a json.Encoder stream: one
			// trailing newline.
			if err := os.WriteFile(*metricsOut, append(data, '\n'), 0o644); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("unknown -mode %q", *mode)
	}
	if err := os.WriteFile(*out, output, 0o644); err != nil {
		return err
	}
	printReport(rep)
	return nil
}

// shardRange returns the I-th of N consecutive, near-equal shard ranges
// of a campaign of the given homes, from the -part value "I/N".
func shardRange(part string, homes int) (first, last int, err error) {
	var i, n int
	if _, err := fmt.Sscanf(part, "%d/%d", &i, &n); err != nil || i < 0 || i >= n {
		return 0, 0, fmt.Errorf("-part: want I/N with 0 <= I < N, got %q", part)
	}
	shards := (homes + fleet.DefaultShardSize - 1) / fleet.DefaultShardSize
	return i * shards / n, (i + 1) * shards / n, nil
}

func printReport(rep report) {
	rep.PeakRSSKB = peakRSSKB()
	line, err := json.Marshal(rep)
	if err != nil {
		panic(err) // the report holds only numbers and strings
	}
	fmt.Println(string(line))
}

// peakRSSKB returns the process's peak resident set in KiB, or 0 if the
// system does not say.
func peakRSSKB() int64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			return kb
		}
	}
	return 0
}
