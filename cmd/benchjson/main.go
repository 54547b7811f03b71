// Command benchjson is the perf-regression harness CLI.
//
// Record mode (default): parse `go test -bench -benchmem` text from stdin
// (or -in) and write the canonical byte-stable JSON document to -out:
//
//	go test -run '^$' -bench . -benchmem ./... | benchjson -out BENCH_hotpath.json
//
// Compare mode: diff a freshly recorded document against a committed
// baseline and exit nonzero on regression:
//
//	benchjson -compare BENCH_hotpath.json -current fresh.json -ci
//
// Tolerances: -tol-ns / -tol-allocs are fractional increases (0.40 =
// +40%); a negative -tol-ns disables timing comparison. -ci selects the
// foreign-hardware preset (timing disabled, allocations within 25%),
// because allocation counts are the only costs comparable across
// machines. Under any tolerance, outcome metrics (every custom unit that
// is not a rate ending in /s) must equal the baseline's.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/bench"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	in := fs.String("in", "", "bench text input file (default stdin)")
	out := fs.String("out", "", "JSON output file (default stdout)")
	compare := fs.String("compare", "", "baseline JSON document; enables compare mode")
	current := fs.String("current", "", "current JSON document to diff against -compare")
	ci := fs.Bool("ci", false, "use the foreign-hardware tolerance preset (allocs only)")
	tolNs := fs.Float64("tol-ns", bench.DefaultTolerance.NsFrac, "allowed fractional ns/op increase (<0 disables)")
	tolAllocs := fs.Float64("tol-allocs", bench.DefaultTolerance.AllocFrac, "allowed fractional allocs/op increase (<0 disables)")
	allocSlack := fs.Float64("alloc-slack", bench.DefaultTolerance.AllocSlack, "absolute allocs/op noise floor")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *compare != "" {
		return runCompare(*compare, *current, toleranceFrom(*ci, *tolNs, *tolAllocs, *allocSlack), stderr)
	}
	return runRecord(*in, *out, stdin, stderr)
}

func toleranceFrom(ci bool, tolNs, tolAllocs, allocSlack float64) bench.Tolerance {
	if ci {
		return bench.CITolerance
	}
	return bench.Tolerance{NsFrac: tolNs, AllocFrac: tolAllocs, AllocSlack: allocSlack}
}

func runRecord(inPath, outPath string, stdin io.Reader, stderr io.Writer) error {
	r := stdin
	if inPath != "" {
		f, err := os.Open(inPath)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	// Echo the bench text through so the harness stays observable when run
	// in a pipeline (`go test` output would otherwise vanish).
	results, err := bench.Parse(io.TeeReader(r, stderr))
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("no benchmark results in input (did the bench run fail?)")
	}
	suite := bench.NewSuite(results)
	w := io.Writer(os.Stdout)
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := suite.WriteJSON(w); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "benchjson: recorded %d benchmarks\n", len(suite.Benchmarks))
	bench.Render(stderr, suite)
	return nil
}

func runCompare(basePath, curPath string, tol bench.Tolerance, stderr io.Writer) error {
	if curPath == "" {
		return fmt.Errorf("-compare requires -current")
	}
	baseline, err := readSuiteFile(basePath)
	if err != nil {
		return err
	}
	cur, err := readSuiteFile(curPath)
	if err != nil {
		return err
	}
	regs := bench.Compare(baseline, cur, tol)
	if len(regs) == 0 {
		fmt.Fprintf(stderr, "benchjson: %d benchmarks within tolerance of %s\n", len(baseline.Benchmarks), basePath)
		return nil
	}
	for _, r := range regs {
		fmt.Fprintln(stderr, "REGRESSION:", r)
	}
	return fmt.Errorf("%d benchmark regression(s) against %s", len(regs), basePath)
}

func readSuiteFile(path string) (bench.Suite, error) {
	f, err := os.Open(path)
	if err != nil {
		return bench.Suite{}, err
	}
	defer f.Close()
	s, err := bench.ReadSuite(f)
	if err != nil {
		return bench.Suite{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
