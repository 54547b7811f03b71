package main

import (
	"encoding/json"
	"os"
	"sort"
)

// metricDef is one reported metric as BENCHMARK.json lists it.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEndDefs are the metrics of a --trace 0 run. failed_frac is printed
// beside them and carried by the result's attempted and failed counts; it
// is not one of them because it is 0 on a healthy workload.
var endToEndDefs = []metricDef{
	{"units_per_s", "1/s", "higher"},
	{"cpu_ms_per_unit", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// workCounters map the workload's own metrics counters, summed over their
// labels, to per-unit work counts.
var workCounters = []struct {
	metric, counter, unit string
}{
	{"simtime.events_per_unit", "simtime_events_total", "count"},
	{"netsim.frames_per_unit", "netsim_frames_delivered_total", "count"},
	{"netsim.bytes_per_unit", "netsim_bytes_sent_total", "bytes"},
	{"tcpsim.conns_per_unit", "tcpsim_conns_opened_total", "count"},
	{"tcpsim.segments_per_unit", "tcpsim_segments_sent_total", "count"},
	{"tcpsim.retransmits_per_unit", "tcpsim_retransmits_total", "count"},
	{"tcpsim.keepalive_probes_per_unit", "tcpsim_keepalive_probes_total", "count"},
	{"core.records_held_per_unit", "core_records_held_total", "count"},
	{"core.spoofed_sends_per_unit", "core_spoofed_sends_total", "count"},
	{"fleet.trials_per_unit", "fleet_trials_total", "count"},
	{"fleet.alarms_per_unit", "fleet_alarms_total", "count"},
}

// probeSpans are the probe's samples, by name and unit. Each is reported as
// _p50, _p95 and _count.
var probeSpans = []struct{ name, unit string }{
	{"fleet.generate_home_ms", "ms"},
	{"experiment.new_testbed_ms", "ms"},
	{"experiment.reset_testbed_ms", "ms"},
	{"experiment.start_ms", "ms"},
	{"obs.snapshot_ms", "ms"},
	{"obs.accumulate_ms", "ms"},
	{"simtime.rand_seed_us", "us"},
	{"simtime.event_ns", "ns"},
}

// sectionNames are the sections of `phantomlab all`, in its order.
var sectionNames = []string{"table1", "table2", "table3", "verify", "findings", "defense", "recon", "ablation", "replay"}

// perLayerDefs lists every metric of a --trace 1 run. Each traced run
// reports all of them; one that does not apply to the workload (a fleet
// span in paper_all, a paper section in a fleet workload) reads 0 with a
// count of 0.
func perLayerDefs() []metricDef {
	var defs []metricDef
	add := func(name, unit, better string) { defs = append(defs, metricDef{name, unit, better}) }
	for _, m := range append(append([]string{}, modules...), "gc", "other") {
		add(m+".cpu_ms_per_unit", "ms", "lower")
	}
	for _, c := range workCounters {
		better := "lower"
		if c.metric == "fleet.trials_per_unit" {
			better = "higher"
		}
		add(c.metric, c.unit, better)
	}
	add("fleet.success_frac", "ratio", "higher")
	for _, s := range probeSpans {
		add(s.name+"_p50", s.unit, "lower")
		add(s.name+"_p95", s.unit, "lower")
		add(s.name+"_count", "count", "higher")
	}
	add("fleet.parallel_eff", "ratio", "higher")
	for _, s := range sectionNames {
		add("experiment."+s+"_s_p50", "s", "lower")
		add("experiment."+s+"_s_count", "count", "higher")
	}
	add("experiment.span_gap_frac", "ratio", "lower")
	add("gc.cycles_per_unit", "count", "lower")
	add("gc.alloc_kb_per_unit", "KB", "lower")
	add("gc.allocs_per_unit", "count", "lower")
	add("trace.overhead_frac", "ratio", "lower")
	// The sample count behind every <module>.cpu_ms_per_unit.
	add("trace.profile_samples", "count", "higher")
	return defs
}

// snapshot is the part of an obs metrics snapshot the work counts read.
type snapshot struct {
	Counters []struct {
		Name  string `json:"name"`
		Value uint64 `json:"value"`
	} `json:"counters"`
}

func readSnapshot(path string) (snapshot, error) {
	var s snapshot
	data, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(data, &s)
	}
	return s, err
}

// sum totals a counter over all its label sets.
func (s snapshot) sum(name string) float64 {
	var t uint64
	for _, c := range s.Counters {
		if c.Name == name {
			t += c.Value
		}
	}
	return float64(t)
}

// workCounts sets the per-unit work counts of a snapshot that covers units
// units.
func workCounts(m map[string]metric, s snapshot, units int) {
	for _, c := range workCounters {
		m[c.metric] = metric{s.sum(c.counter) / float64(units), c.unit}
	}
	frac := 0.0
	if trials := s.sum("fleet_trials_total"); trials > 0 {
		frac = s.sum("fleet_trials_success") / trials
	}
	m["fleet.success_frac"] = metric{frac, "ratio"}
}

// spans reports samples as name_p50, name_p95 and name_count. The p95 is
// reported only when at least ten samples lie beyond it, and reads 0
// otherwise.
func spans(m map[string]metric, name, unit string, v []float64) {
	p95 := 0.0
	if float64(len(v))*0.05 >= 10 {
		p95 = percentile(v, 95)
	}
	m[name+"_p50"] = metric{percentile(v, 50), unit}
	m[name+"_p95"] = metric{p95, unit}
	m[name+"_count"] = metric{float64(len(v)), "count"}
}

// median is the middle value, or the mean of the two middle values.
func median(v []float64) float64 { return percentile(v, 50) }

// percentile interpolates linearly between the closest ranks. It is 0 for
// no samples.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
