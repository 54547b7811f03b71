package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"sort"
	"testing"

	"repro/internal/fleet"
	"repro/internal/obs"
)

// TestWorkCountsMatchSnapshot maps the counters of a real campaign's
// result JSON and checks every work count against the snapshot's own
// counter values.
func TestWorkCountsMatchSnapshot(t *testing.T) {
	const homes = 12
	res, err := fleet.Campaign{Spec: fleet.DefaultSpec(), Homes: homes, Workers: 2, Seed: 3}.Run()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := checkFleet(buf.Bytes(), homes)
	if err != nil {
		t.Fatal(err)
	}
	m := map[string]metric{}
	workCounts(m, decoded.Metrics, homes)

	total := func(s obs.Snapshot, name string) uint64 {
		var n uint64
		for _, c := range s.Counters {
			if c.Name == name {
				n += c.Value
			}
		}
		return n
	}
	for _, c := range workCounters {
		want := float64(total(res.Metrics, c.counter)) / homes
		if got := m[c.metric].Value; got != want {
			t.Errorf("%s = %v, want %v", c.metric, got, want)
		}
	}
	for _, name := range []string{"simtime_events_total", "netsim_frames_delivered_total", "tcpsim_conns_opened_total", "fleet_trials_total"} {
		if total(res.Metrics, name) == 0 {
			t.Errorf("campaign snapshot has no %s: the mapping would read 0", name)
		}
	}
	if got, want := m["fleet.trials_per_unit"].Value, float64(res.TotalTrials)/homes; got != want {
		t.Errorf("fleet.trials_per_unit = %v, want totalTrials/homes = %v", got, want)
	}
	if got, want := m["fleet.success_frac"].Value, float64(res.TotalSuccesses)/float64(res.TotalTrials); got != want {
		t.Errorf("fleet.success_frac = %v, want %v", got, want)
	}
}

var (
	validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	validUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesValid(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEndDefs...), perLayerDefs()...) {
		if !validName.MatchString(d.Name) {
			t.Errorf("invalid metric name %q", d.Name)
		}
		if !validUnit.MatchString(d.Unit) {
			t.Errorf("%s: invalid unit %q", d.Name, d.Unit)
		}
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("metric %s defined twice", d.Name)
		}
		seen[d.Name] = true
	}
	for name := range workloads {
		if !validName.MatchString(name) {
			t.Errorf("invalid workload name %q", name)
		}
	}
}

// TestBenchmarkJSONMatchesBench keeps BENCHMARK.json's metric and
// workload lists equal to what the benchmark reports.
func TestBenchmarkJSONMatchesBench(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, the benchmark has %v", names, want)
	}
	if !slices.Equal(b.EndToEnd, endToEndDefs) {
		t.Errorf("BENCHMARK.json end_to_end %v, the benchmark reports %v", b.EndToEnd, endToEndDefs)
	}
	if !slices.Equal(b.PerLayer, perLayerDefs()) {
		t.Errorf("BENCHMARK.json per_layer differs; the benchmark reports:\n%s", mustJSON(perLayerDefs()))
	}
}

func mustJSON(v any) string {
	b, _ := json.MarshalIndent(v, "", "  ")
	return string(b)
}

func TestEndToEndReportsItsDefs(t *testing.T) {
	r := repResult{ok: true, timedS: 2, cpuS: 4, nomTimedS: 2, nomCPUS: 4, rssMB: 12, report: workerReport{Units: 1000}}
	m := endToEnd([]repResult{r, {}}, []float64{0.002})
	if len(m) != len(endToEndDefs) {
		t.Fatalf("endToEnd reports %v, want the %d metrics of endToEndDefs", m, len(endToEndDefs))
	}
	for _, d := range endToEndDefs {
		if got, ok := m[d.Name]; !ok || got.Unit != d.Unit || got.Value == 0 {
			t.Errorf("%s: got %+v, want a non-zero value in %s", d.Name, got, d.Unit)
		}
	}
	if got := m["units_per_s"].Value; got != 500 {
		t.Errorf("units_per_s = %v from 1000 units in 2s; the failed rep must not count", got)
	}
}

func TestSpansReportP95OnlyWithTenBeyond(t *testing.T) {
	m := map[string]metric{}
	v := make([]float64, 199)
	for i := range v {
		v[i] = float64(i)
	}
	spans(m, "x_ms", "ms", v)
	if m["x_ms_p95"].Value != 0 || m["x_ms_count"].Value != 199 || m["x_ms_p50"].Value != 99 {
		t.Errorf("199 samples: got %v", m)
	}
	spans(m, "x_ms", "ms", append(v, 199))
	if m["x_ms_p95"].Value == 0 {
		t.Errorf("200 samples: no p95: %v", m)
	}
}
