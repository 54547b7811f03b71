// Command phantomlint runs the repository's custom determinism and
// zero-tax-tracing analyzers (internal/analysis/...) over Go packages:
//
//	go run ./cmd/phantomlint ./...            # analyze everything
//	go run ./cmd/phantomlint -run maporder ./internal/sniff/
//	go run ./cmd/phantomlint -json ./...      # machine-readable findings
//	go run ./cmd/phantomlint -list            # describe the suite
//
// The matched packages are type-checked from source against their
// dependencies' export data in the build cache, then analyzed in
// `go list -deps` order (imports before importers) so cross-package facts
// — taint summaries, wall-clock-boundary marks — are complete when a
// package is reached.
//
// Exit status is 0 when no findings survive //lint:allow suppression,
// 1 when findings are reported, 2 on usage or load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/analysis/determinism"
	"repro/internal/analysis/goroutineguard"
	"repro/internal/analysis/load"
	"repro/internal/analysis/maporder"
	"repro/internal/analysis/timerguard"
	"repro/internal/analysis/traceguard"
)

// suite is the phantomlint analyzer set, in reporting order.
var suite = []*analysis.Analyzer{
	determinism.Analyzer,
	goroutineguard.Analyzer,
	maporder.Analyzer,
	timerguard.Analyzer,
	traceguard.Analyzer,
}

func main() {
	listFlag := flag.Bool("list", false, "list the analyzers and exit")
	runFlag := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	jsonFlag := flag.Bool("json", false, "emit findings as JSON (suppressed findings included, marked)")
	verboseFlag := flag.Bool("v", false, "report the package count and wall times to stderr")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: phantomlint [-list] [-run name,name] [-json] [-v] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *listFlag {
		for _, a := range suite {
			fmt.Printf("%s: %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers, err := selectAnalyzers(*runFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "phantomlint:", err)
		os.Exit(2)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "phantomlint:", err)
		os.Exit(2)
	}
	start := time.Now()
	pkgs, err := load.Packages(wd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "phantomlint:", err)
		os.Exit(2)
	}
	loaded := time.Now()

	// JSON output keeps suppressed findings (flagged) so downstream
	// tooling can audit //lint:allow usage; only live findings fail.
	findings, err := analysis.RunGraph(pkgs, analyzers, analysis.GraphOptions{
		IncludeSuppressed: *jsonFlag,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "phantomlint:", err)
		os.Exit(2)
	}
	done := time.Now()

	if *verboseFlag {
		fmt.Fprintf(os.Stderr, "phantomlint: %d packages\n", len(pkgs))
		fmt.Fprintf(os.Stderr, "phantomlint: load %.2fs, analysis %.2fs, total %.2fs\n",
			loaded.Sub(start).Seconds(), done.Sub(loaded).Seconds(), done.Sub(start).Seconds())
	}

	live := 0
	for _, f := range findings {
		if !f.Suppressed {
			live++
		}
	}

	if *jsonFlag {
		if err := writeJSON(os.Stdout, findings); err != nil {
			fmt.Fprintln(os.Stderr, "phantomlint:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Printf("%s: %s (%s)\n", f.Pos, f.Message, f.Analyzer)
		}
	}
	if live > 0 {
		fmt.Fprintf(os.Stderr, "phantomlint: %d finding(s)\n", live)
		os.Exit(1)
	}
}

// jsonFinding is one diagnostic in -json output. The schema is stable:
// tooling (CI annotations, editors) may rely on these field names.
type jsonFinding struct {
	Analyzer   string `json:"analyzer"`
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed,omitempty"`
}

// jsonReport is the -json document: versioned so consumers can detect
// schema changes.
type jsonReport struct {
	Version  int           `json:"version"`
	Findings []jsonFinding `json:"findings"`
}

func writeJSON(w *os.File, findings []analysis.Finding) error {
	report := jsonReport{Version: 1, Findings: []jsonFinding{}}
	for _, f := range findings {
		report.Findings = append(report.Findings, jsonFinding{
			Analyzer:   f.Analyzer,
			File:       f.Pos.Filename,
			Line:       f.Pos.Line,
			Col:        f.Pos.Column,
			Message:    f.Message,
			Suppressed: f.Suppressed,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "\t")
	return enc.Encode(report)
}

func selectAnalyzers(names string) ([]*analysis.Analyzer, error) {
	if names == "" {
		return suite, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(suite))
	for _, a := range suite {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		a := byName[n]
		if a == nil {
			return nil, fmt.Errorf("unknown analyzer %q (try -list)", n)
		}
		out = append(out, a)
	}
	return out, nil
}
