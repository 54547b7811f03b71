package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/obs"
)

func TestRunRejectsBadInput(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Fatal("no command should fail")
	}
	if err := run([]string{"bogus"}); err == nil {
		t.Fatal("unknown command should fail")
	}
	if err := run([]string{"-seed", "x", "table1"}); err == nil {
		t.Fatal("bad flag should fail")
	}
	// fleet takes its own -seed; a top-level flag it does not inherit is
	// refused by name, not ignored.
	for _, args := range [][]string{
		{"-seed", "5", "fleet", "-homes", "20"},
		{"-trials", "1", "fleet"},
		{"-json", "fleet"},
		{"-trace-format", "text", "fleet"},
	} {
		err := run(args)
		if err == nil || !strings.Contains(err.Error(), args[0]) {
			t.Errorf("%v: err = %v, want a refusal naming %s", args, err, args[0])
		}
	}
	// -json renders only the three tables.
	for _, cmd := range []string{"verify", "findings", "all", "fleet"} {
		if err := run([]string{"-json", cmd}); err == nil {
			t.Errorf("-json %s accepted", cmd)
		}
	}
	// -trials and -recovery are refused, before anything runs, by the
	// commands that never read them.
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-trials", []string{"-trials", "7", "findings"}},
		{"-trials", []string{"-trials", "7", "defense"}},
		{"-trials", []string{"-trials", "7", "table3"}},
		{"-trials", []string{"-trials", "7", "replay"}},
		{"-trials", []string{"-trials", "7", "recon"}},
		{"-recovery", []string{"-recovery", "5m", "findings"}},
		{"-recovery", []string{"-recovery", "5m", "defense"}},
		{"-recovery", []string{"-recovery", "5m", "table3"}},
		{"-recovery", []string{"-recovery", "5m", "replay"}},
		{"-recovery", []string{"-recovery", "5m", "recon"}},
		{"-recovery", []string{"-trials", "1", "-recovery", "5m", "verify"}},
		{"-recovery", []string{"-trials", "1", "-recovery", "5m", "ablation"}},
	} {
		if err := run(tc.args); err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("%v: err = %v, want a refusal naming %s", tc.args, err, tc.flag)
		}
	}
}

func TestRunTableWithMetricsOutput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	if err := run([]string{"-seed", "5", "-trials", "1", "-metrics", path, "table2"}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Counters) == 0 || len(snap.Histograms) == 0 {
		t.Fatalf("merged snapshot looks empty: %d counters, %d histograms",
			len(snap.Counters), len(snap.Histograms))
	}
	for _, name := range []string{
		"simtime_events_total", "netsim_frames_sent_total",
		"tcpsim_segments_sent_total", "core_bridges_total",
	} {
		found := false
		for _, f := range snap.Families() {
			if f == name {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("metric family %s missing from merged snapshot", name)
		}
	}
	if snap.Counter("core_bridges_total") == 0 {
		t.Fatal("merged bridge count is zero across a whole table run")
	}
}

func TestRunFindingsCommand(t *testing.T) {
	if err := run([]string{"-seed", "3", "findings"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunVerifyCommand(t *testing.T) {
	if err := run([]string{"-seed", "3", "-trials", "1", "verify"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunFindingsMetricsOutput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	if err := run([]string{"-seed", "3", "-metrics", path, "findings"}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Counters) == 0 {
		t.Fatal("findings metrics snapshot is empty")
	}
}

func TestRunMetricsOpenMetricsFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.om")
	if err := run([]string{"-seed", "3", "-metrics", path, "-metrics-format", "openmetrics", "findings"}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte("# TYPE ")) || !bytes.HasSuffix(raw, []byte("# EOF\n")) {
		t.Fatalf("not OpenMetrics exposition:\n%.400s", raw)
	}
}

func TestRunTraceOutput(t *testing.T) {
	dir := t.TempDir()
	chrome := filepath.Join(dir, "trace.json")
	if err := run([]string{"-seed", "5", "-trials", "1", "-trace", chrome, "verify"}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	if len(file.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}

	text := filepath.Join(dir, "trace.txt")
	if err := run([]string{"-seed", "5", "-trials", "1", "-trace", text, "-trace-format", "text", "verify"}); err != nil {
		t.Fatal(err)
	}
	txt, err := os.ReadFile(text)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(txt, []byte("=== C1 ===")) {
		t.Fatalf("text trace missing per-device section:\n%.400s", txt)
	}
}

func TestRunTraceDeterministic(t *testing.T) {
	dir := t.TempDir()
	outA := filepath.Join(dir, "a.json")
	outB := filepath.Join(dir, "b.json")
	for _, p := range []string{outA, outB} {
		if err := run([]string{"-seed", "5", "-trials", "1", "-trace", p, "verify"}); err != nil {
			t.Fatal(err)
		}
	}
	a, err := os.ReadFile(outA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(outB)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same-seed trace files differ")
	}
}

func TestRunTraceRejectsBadUsage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.json")
	if err := run([]string{"-trace", path, "recon"}); err == nil {
		t.Fatal("-trace on a traceless command accepted")
	}
	if err := run([]string{"-trace", path, "-trace-format", "svg", "verify"}); err == nil {
		t.Fatal("bad -trace-format accepted")
	}
	if err := run([]string{"-metrics", path, "-metrics-format", "yaml", "findings"}); err == nil {
		t.Fatal("bad -metrics-format accepted")
	}
	if err := run([]string{"-trace", path, "fleet"}); err == nil {
		t.Fatal("-trace on fleet accepted")
	}
	if _, statErr := os.Stat(path); statErr == nil {
		t.Fatal("rejected run still wrote a file")
	}
}

// TestWriteMetricsRejectsEmpty: a command that produces no snapshots has
// nothing meaningful to write, so -metrics on it is a usage error, found
// before the command runs, and no file is written.
func TestWriteMetricsRejectsEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	for _, cmd := range []string{"recon", "ablation"} {
		if err := run([]string{"-metrics", path, cmd}); err == nil {
			t.Errorf("-metrics %s accepted", cmd)
		}
	}
	if _, statErr := os.Stat(path); statErr == nil {
		t.Fatal("rejected -metrics run still wrote a file")
	}
}

func TestRunFleetCommand(t *testing.T) {
	dir := t.TempDir()
	outA := filepath.Join(dir, "a.json")
	outB := filepath.Join(dir, "b.json")
	if err := run([]string{"fleet", "-homes", "6", "-workers", "1", "-seed", "9", "-out", outA,
		"-checkpoint", filepath.Join(dir, "ck-a.json")}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"fleet", "-homes", "6", "-workers", "3", "-seed", "9", "-out", outB,
		"-checkpoint", filepath.Join(dir, "ck-b.json")}); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(outA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(outB)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("fleet results differ across worker counts")
	}
	var res fleet.Result
	if err := json.Unmarshal(a, &res); err != nil {
		t.Fatal(err)
	}
	if res.TotalTrials == 0 || len(res.PerModel) == 0 {
		t.Fatalf("fleet result looks empty: %+v", res)
	}
}

// TestRunFleetServeIdentity is the acceptance gate for -serve: a campaign
// scraped live over HTTP writes byte-identical results to one run dark.
func TestRunFleetServeIdentity(t *testing.T) {
	dir := t.TempDir()
	outDark := filepath.Join(dir, "dark.json")
	outServed := filepath.Join(dir, "served.json")
	if err := run([]string{"fleet", "-homes", "8", "-workers", "2", "-seed", "11",
		"-out", outDark}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"fleet", "-homes", "8", "-workers", "2", "-seed", "11",
		"-serve", "127.0.0.1:0", "-out", outServed}); err != nil {
		t.Fatal(err)
	}
	dark, err := os.ReadFile(outDark)
	if err != nil {
		t.Fatal(err)
	}
	served, err := os.ReadFile(outServed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dark, served) {
		t.Fatal("fleet results differ with -serve on")
	}
}

func TestRunReplayCommand(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "metrics.json")
	trace := filepath.Join(dir, "trace.json")
	if err := run([]string{"-seed", "2", "-metrics", metrics, "-trace", trace, "replay"}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"replay_injected_total", "replay_accepted_total", "replay_rejected_total"} {
		found := false
		for _, f := range snap.Families() {
			if f == name {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("metric family %s missing from replay snapshot", name)
		}
	}
	tr, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(tr, &file); err != nil {
		t.Fatalf("replay trace not valid JSON: %v", err)
	}
	if len(file.TraceEvents) == 0 {
		t.Fatal("replay trace has no events")
	}
}

func TestRunFleetReplayCampaign(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "spec.json")
	spec := `{"attack":"replay","targets":{"classes":["plug","thermostat","water sensor"],"perHome":2}}`
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out.json")
	if err := run([]string{"fleet", "-homes", "8", "-seed", "11", "-campaign", specPath, "-out", out}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var res fleet.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if res.TotalTrials == 0 {
		t.Fatalf("replay campaign ran no trials: %+v", res)
	}
}

// TestRunFleetMultiProcessMerge drives the whole multi-process flow
// through the CLI: three -shard-range invocations (distinct worker
// counts, as three separate processes would have) write partials, -merge
// folds them, and both the result and the -metrics snapshot are
// byte-identical to one single-process run.
func TestRunFleetMultiProcessMerge(t *testing.T) {
	dir := t.TempDir()
	campaign := []string{"-homes", "40", "-shard-size", "4", "-seed", "13"}

	single := filepath.Join(dir, "single.json")
	singleMetrics := filepath.Join(dir, "single-metrics.json")
	args := append([]string{"fleet"}, campaign...)
	if err := run(append(args, "-out", single, "-metrics", singleMetrics)); err != nil {
		t.Fatal(err)
	}

	var parts []string
	for i, r := range []string{"0:4", "4:7", "7:10"} {
		p := filepath.Join(dir, "part"+r[0:1]+".json")
		workerArgs := append([]string{"fleet", "-workers", []string{"1", "2", "3"}[i]}, campaign...)
		if err := run(append(workerArgs, "-shard-range", r, "-partial", p)); err != nil {
			t.Fatalf("range %s: %v", r, err)
		}
		parts = append(parts, p)
	}

	merged := filepath.Join(dir, "merged.json")
	mergedMetrics := filepath.Join(dir, "merged-metrics.json")
	mergeArgs := append([]string{"fleet", "-merge", "-out", merged, "-metrics", mergedMetrics}, parts...)
	if err := run(mergeArgs); err != nil {
		t.Fatal(err)
	}

	for _, pair := range [][2]string{{single, merged}, {singleMetrics, mergedMetrics}} {
		a, err := os.ReadFile(pair[0])
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s and %s differ — multi-process merge is not byte-identical", pair[0], pair[1])
		}
	}
}

// TestRunFleetShardRangeResume: a range worker's -checkpoint resumes mid-
// range and still writes the identical partial file.
func TestRunFleetShardRangeResume(t *testing.T) {
	dir := t.TempDir()
	campaign := []string{"-homes", "24", "-shard-size", "4", "-seed", "7"}
	clean := filepath.Join(dir, "clean.json")
	args := append([]string{"fleet"}, campaign...)
	if err := run(append(args, "-shard-range", "2:5", "-partial", clean)); err != nil {
		t.Fatal(err)
	}
	// Checkpointed worker: first run writes its final checkpoint; a rerun
	// resumes from it (everything cached) and must emit the same partial.
	ck := filepath.Join(dir, "ck.json")
	resumed := filepath.Join(dir, "resumed.json")
	for i := 0; i < 2; i++ {
		if err := run(append(args, "-shard-range", "2:5", "-partial", resumed, "-checkpoint", ck)); err != nil {
			t.Fatalf("pass %d: %v", i, err)
		}
	}
	a, err := os.ReadFile(clean)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("checkpoint-resumed range partial differs from a clean worker's")
	}
}

func TestRunFleetRejectsBadRangeUsage(t *testing.T) {
	dir := t.TempDir()
	part := filepath.Join(dir, "p.json")
	// A complete partial, so the -serve merges below fail for -serve alone.
	whole := filepath.Join(dir, "whole.json")
	if err := run([]string{"fleet", "-homes", "8", "-shard-size", "4", "-shard-range", "0:2", "-partial", whole}); err != nil {
		t.Fatal(err)
	}
	for name, args := range map[string][]string{
		"range without -partial":   {"fleet", "-shard-range", "0:2"},
		"partial without range":    {"fleet", "-partial", part},
		"malformed range":          {"fleet", "-shard-range", "2", "-partial", part},
		"non-numeric range":        {"fleet", "-shard-range", "a:b", "-partial", part},
		"range with -out":          {"fleet", "-shard-range", "0:2", "-partial", part, "-out", filepath.Join(dir, "o.json")},
		"range with -metrics":      {"fleet", "-shard-range", "0:2", "-partial", part, "-metrics", filepath.Join(dir, "m.json")},
		"out-of-campaign range":    {"fleet", "-homes", "8", "-shard-size", "4", "-shard-range", "0:5", "-partial", part},
		"merge without files":      {"fleet", "-merge"},
		"merge with campaign":      {"fleet", "-merge", "-homes", "8", part},
		"merge with missing file":  {"fleet", "-merge", filepath.Join(dir, "nope.json")},
		"merge with -serve after":  {"fleet", "-merge", "-serve", "127.0.0.1:0", "-out", filepath.Join(dir, "m.json"), whole},
		"merge with -serve before": {"-serve", "127.0.0.1:0", "fleet", "-merge", "-out", filepath.Join(dir, "m.json"), whole},
	} {
		if err := run(args); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestRunFleetRejectsBadSpec(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(specPath, []byte(`{"attack":"ddos"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"fleet", "-homes", "1", "-campaign", specPath}); err == nil {
		t.Fatal("invalid campaign spec accepted")
	}
	if err := run([]string{"fleet", "-campaign", filepath.Join(dir, "missing.json")}); err == nil {
		t.Fatal("missing campaign spec accepted")
	}
	if err := run([]string{"fleet", "extra"}); err == nil {
		t.Fatal("positional arg accepted")
	}
}
