// Package bench turns `go test -bench` output into a canonical,
// byte-stable JSON document and compares two such documents under a
// tolerance — the repo's perf-regression harness.
//
// The pipeline is: `make bench-json` runs the tier-1 benchmarks with
// -benchmem, pipes the text output through cmd/benchjson, and writes
// BENCH_hotpath.json. The committed copy of that file is the perf
// trajectory; CI re-runs the benchmarks and diffs the fresh document
// against the committed one with Compare, so an allocation or throughput
// regression fails loudly instead of rotting silently.
//
// Byte stability: the emitted JSON is a pure function of the parsed
// samples. Environment lines (goos, cpu, date) are dropped, benchmarks are
// sorted by (package, name), custom metrics by unit, and the GOMAXPROCS
// suffix (`-8`) is stripped from names so documents from machines with
// different core counts stay comparable.
package bench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Schema identifies the document layout.
const Schema = "phantomlab-bench/v1"

// Metric is one custom benchmark metric (b.ReportMetric), e.g. homes/s.
type Metric struct {
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

// Result is one benchmark's measurements.
type Result struct {
	// Pkg is the Go package the benchmark ran in (from the `pkg:` header).
	Pkg string `json:"pkg"`
	// Name is the benchmark name with the -GOMAXPROCS suffix stripped.
	Name string `json:"name"`
	// Iterations is b.N for the reported run.
	Iterations int64 `json:"iterations"`
	// NsPerOp is wall time per iteration.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp come from -benchmem. Allocation counts
	// are machine-independent, which makes AllocsPerOp the comparison
	// anchor that survives CI-runner speed differences.
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Metrics holds custom units (eDelay-s/device, homes/s, …), sorted.
	Metrics []Metric `json:"metrics,omitempty"`
}

// key identifies a benchmark across documents.
func (r Result) key() string { return r.Pkg + "." + r.Name }

// Metric returns the value of a custom metric and whether it exists.
func (r Result) Metric(unit string) (float64, bool) {
	for _, m := range r.Metrics {
		if m.Unit == unit {
			return m.Value, true
		}
	}
	return 0, false
}

// Suite is a full benchmark document.
type Suite struct {
	Schema     string   `json:"schema"`
	Benchmarks []Result `json:"benchmarks"`
}

// Find returns the named benchmark in the suite.
func (s Suite) Find(pkg, name string) (Result, bool) {
	for _, r := range s.Benchmarks {
		if r.Pkg == pkg && r.Name == name {
			return r, true
		}
	}
	return Result{}, false
}

// Parse reads `go test -bench -benchmem` text output (one or more
// packages) and returns the benchmark results in input order.
func Parse(r io.Reader) ([]Result, error) {
	var out []Result
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "pkg:") {
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		res, ok, err := parseBenchLine(pkg, line)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, res)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// parseBenchLine parses one result line:
//
//	BenchmarkFoo-8   	  12	  95034052 ns/op	  14.60 eDelay-s/device	  45 B/op	  3 allocs/op
//
// Lines that start with "Benchmark" but don't follow the shape (e.g. a
// benchmark's own log output) are skipped, not errors.
func parseBenchLine(pkg, line string) (Result, bool, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return Result{}, false, nil
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false, nil
	}
	res := Result{Pkg: pkg, Name: stripProcs(fields[0]), Iterations: iters}
	seenNs := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false, fmt.Errorf("bench: bad value %q in %q", fields[i], line)
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			res.NsPerOp = v
			seenNs = true
		case "B/op":
			res.BytesPerOp = v
		case "allocs/op":
			res.AllocsPerOp = v
		default:
			res.Metrics = append(res.Metrics, Metric{Unit: unit, Value: v})
		}
	}
	if !seenNs {
		return Result{}, false, nil
	}
	sort.Slice(res.Metrics, func(i, j int) bool { return res.Metrics[i].Unit < res.Metrics[j].Unit })
	return res, true, nil
}

// stripProcs removes the trailing -GOMAXPROCS suffix from a benchmark
// name, so the canonical name is core-count independent.
func stripProcs(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// NewSuite builds a canonical suite: results sorted by (pkg, name), later
// duplicates of the same benchmark (e.g. -count>1) replaced by the last
// occurrence.
func NewSuite(results []Result) Suite {
	byKey := make(map[string]Result, len(results))
	for _, r := range results {
		byKey[r.key()] = r
	}
	s := Suite{Schema: Schema, Benchmarks: make([]Result, 0, len(byKey))}
	for _, r := range byKey {
		s.Benchmarks = append(s.Benchmarks, r)
	}
	sort.Slice(s.Benchmarks, func(i, j int) bool { return s.Benchmarks[i].key() < s.Benchmarks[j].key() })
	return s
}

// WriteJSON emits the suite as indented JSON with a trailing newline. The
// output is byte-deterministic for equal suites: field order is fixed by
// the struct definitions and all slices are sorted by NewSuite/Parse.
func (s Suite) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadSuite parses a JSON document produced by WriteJSON.
func ReadSuite(r io.Reader) (Suite, error) {
	var s Suite
	dec := json.NewDecoder(r)
	if err := dec.Decode(&s); err != nil {
		return Suite{}, fmt.Errorf("bench: bad suite document: %w", err)
	}
	if s.Schema != Schema {
		return Suite{}, fmt.Errorf("bench: unknown schema %q (want %s)", s.Schema, Schema)
	}
	return s, nil
}

// Tolerance bounds how much worse the current suite may be before Compare
// reports a regression. Fractions are relative increases: 0.25 allows
// +25%. A negative fraction disables that dimension entirely — CI runs on
// unknown hardware disable ns/op and lean on allocs/op, which is
// machine-independent.
type Tolerance struct {
	NsFrac float64
	// AllocFrac bounds allocs/op growth; AllocSlack is an absolute
	// allocs/op floor below which differences are noise (first-iteration
	// setup, map growth) and never flagged.
	AllocFrac  float64
	AllocSlack float64
}

// DefaultTolerance suits same-machine runs: ns/op may wobble ±40% across
// runs of macro benchmarks, allocation counts barely at all. The
// allocation budget is deliberately tight (5% + 32 allocs/op of noise
// floor): allocation counts are deterministic for a given benchmark, so
// even small per-op allocation creep is a real regression.
var DefaultTolerance = Tolerance{NsFrac: 0.40, AllocFrac: 0.05, AllocSlack: 32}

// CITolerance is for foreign hardware: timing is not comparable at all,
// allocation counts are, with headroom for Go-version drift.
var CITolerance = Tolerance{NsFrac: -1, AllocFrac: 0.25, AllocSlack: 64}

// Compare diffs current against baseline and describes every regression.
// Outcome metrics, every custom metric whose unit is not a rate ending in
// "/s" (alarms, success-frac, eDelay-s/device, …), must match the
// baseline exactly under any tolerance: each recorded benchmark runs one
// seed, so its outcomes do not depend on the machine or on -benchtime.
// The two documents must agree on the benchmark set: a benchmark present
// only in the baseline is lost coverage, one present only in the current
// run means the committed baseline is stale. Both directions fail loudly
// with the offending names, so set drift can never hide inside a green
// run — the fix is always explicit (restore the benchmark, or re-run
// `make bench-json` and commit the refreshed document).
func Compare(baseline, current Suite, tol Tolerance) []string {
	var regs []string
	cur := make(map[string]Result, len(current.Benchmarks))
	for _, r := range current.Benchmarks {
		cur[r.key()] = r
	}
	base := make(map[string]bool, len(baseline.Benchmarks))
	for _, b := range baseline.Benchmarks {
		base[b.key()] = true
	}
	for _, c := range current.Benchmarks {
		if !base[c.key()] {
			regs = append(regs, fmt.Sprintf("%s: present in current run but missing from baseline (stale baseline: re-run `make bench-json` and commit the result)", c.key()))
		}
	}
	for _, b := range baseline.Benchmarks {
		c, ok := cur[b.key()]
		if !ok {
			regs = append(regs, fmt.Sprintf("%s: present in baseline but missing from current run (coverage loss: restore the benchmark or refresh the baseline)", b.key()))
			continue
		}
		if tol.NsFrac >= 0 && b.NsPerOp > 0 {
			limit := b.NsPerOp * (1 + tol.NsFrac)
			if c.NsPerOp > limit {
				regs = append(regs, fmt.Sprintf("%s: ns/op %.0f exceeds baseline %.0f by more than %.0f%%",
					b.key(), c.NsPerOp, b.NsPerOp, tol.NsFrac*100))
			}
		}
		if tol.AllocFrac >= 0 {
			limit := b.AllocsPerOp*(1+tol.AllocFrac) + tol.AllocSlack
			if c.AllocsPerOp > limit {
				regs = append(regs, fmt.Sprintf("%s: allocs/op %.0f exceeds baseline %.0f (limit %.0f)",
					b.key(), c.AllocsPerOp, b.AllocsPerOp, limit))
			}
		}
		for _, m := range b.Metrics {
			if strings.HasSuffix(m.Unit, "/s") {
				continue
			}
			if v, ok := c.Metric(m.Unit); !ok {
				regs = append(regs, fmt.Sprintf("%s: outcome %s missing from current run (baseline %g)", b.key(), m.Unit, m.Value))
			} else if v != m.Value {
				regs = append(regs, fmt.Sprintf("%s: outcome %s %g differs from baseline %g", b.key(), m.Unit, v, m.Value))
			}
		}
	}
	return regs
}

// Render writes a one-line-per-benchmark human summary, used by
// cmd/benchjson to narrate what it recorded.
func Render(w io.Writer, s Suite) {
	var buf bytes.Buffer
	for _, r := range s.Benchmarks {
		fmt.Fprintf(&buf, "%-55s %14.0f ns/op %10.0f allocs/op", r.Pkg+"."+r.Name, r.NsPerOp, r.AllocsPerOp)
		for _, m := range r.Metrics {
			fmt.Fprintf(&buf, "  %g %s", m.Value, m.Unit)
		}
		buf.WriteByte('\n')
	}
	_, _ = w.Write(buf.Bytes())
}
