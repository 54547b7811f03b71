package fleet

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/obs"
)

// recordTrials registers one model's trial series in reg, as attackTarget
// does, and records a trial for each delay, the first successes of them
// successful. With no delays the series exist but hold no trial.
func recordTrials(reg *obs.Registry, model string, successes int, delays ...time.Duration) {
	l := obs.L("model", model)
	hist := reg.Histogram("fleet_delay_seconds", obs.DurationBuckets, l)
	longest := reg.Gauge("fleet_delay_ns", l)
	trials := reg.Counter("fleet_trials_total", l)
	ok := reg.Counter("fleet_trials_success", l)
	for i, d := range delays {
		trials.Inc()
		if i < successes {
			ok.Inc()
		}
		hist.Observe(d.Seconds())
		longest.Set(int64(d))
		longest.Set(0)
	}
}

// registryPartial is the Partial holding spans whose homes attacked homes
// and left the registries regs, folded through an accumulator as runShard
// folds its homes.
func registryPartial(spans []Span, homes int, regs ...*obs.Registry) Partial {
	acc := obs.NewAccumulator()
	for _, r := range regs {
		acc.AddRegistry(r)
	}
	return Partial{Spans: spans, HomesAttacked: homes, Metrics: acc.State(), MetricSums: acc.HistogramSums()}
}

// TestPerModelReadsFoldedRegistries: three home registries fold through an
// accumulator, and the result reads every model's outcome from the folded
// series. Models come out in label order; a model whose series were
// registered but saw no trial is listed with 0 trials; the longest delay
// is the largest across homes, and the mean is the histogram's sum over
// the trials. The totals and the alarm count come from the same metrics.
func TestPerModelReadsFoldedRegistries(t *testing.T) {
	a, b, c := obs.NewRegistry(), obs.NewRegistry(), obs.NewRegistry()
	recordTrials(a, "M2", 1, 178*time.Second, 170100*time.Millisecond)
	recordTrials(a, "C1", 1, 45*time.Second)
	recordTrials(b, "C1", 2, 44900*time.Millisecond, 49500*time.Millisecond)
	recordTrials(b, "C3", 0)
	recordTrials(c, "C1", 0, 46300*time.Millisecond)
	a.Counter("fleet_alarms_total").Add(0)
	b.Counter("fleet_alarms_total").Add(2)
	c.Counter("fleet_alarms_total").Add(1)
	p := registryPartial([]Span{{First: 0, Last: 1}}, 3, a, b, c)

	mean := func(model string, trials int) float64 {
		h, ok := p.Metrics.Histogram("fleet_delay_seconds", obs.L("model", model))
		if !ok {
			t.Fatalf("no delay histogram for %s", model)
		}
		return h.Sum / float64(trials)
	}
	want := []ModelSummary{
		{Model: "C1", Trials: 4, Successes: 3, SuccessRate: 0.75, MeanDelaySecs: mean("C1", 4), MaxDelaySecs: 49.5},
		{Model: "C3"},
		{Model: "M2", Trials: 2, Successes: 1, SuccessRate: 0.5, MeanDelaySecs: mean("M2", 2), MaxDelaySecs: 178},
	}
	res := Campaign{Spec: DefaultSpec(), Homes: 4, ShardSize: 4}.result(p)
	if !reflect.DeepEqual(res.PerModel, want) {
		t.Fatalf("per-model\n got %+v\nwant %+v", res.PerModel, want)
	}
	if res.TotalTrials != 6 || res.TotalSuccesses != 4 || res.Alarms != 3 {
		t.Fatalf("totals: %d trials, %d successes, %d alarms; want 6, 4, 3", res.TotalTrials, res.TotalSuccesses, res.Alarms)
	}
	// The gauge keeps each home's longest delay in its high-water mark and
	// returns to 0, so the merged gauge reads 0 with the longest as max.
	if g := p.Metrics.Gauge("fleet_delay_ns", obs.L("model", "C1")); g.Value != 0 || g.Max != int64(49500*time.Millisecond) {
		t.Fatalf("C1 delay gauge %+v, want value 0 and max 49.5 s", g)
	}
}

// TestCampaignDelayGaugesReturnToZero: in a real two-trial campaign every
// home's delay gauge falls back to 0 after each trial, so the merged
// gauges read 0, while each model's longest delay is at least its mean
// and its histogram counts one observation per trial.
func TestCampaignDelayGaugesReturnToZero(t *testing.T) {
	c := testCampaign(t)
	c.Spec.Trials = 2
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerModel) == 0 {
		t.Fatal("campaign attacked no model")
	}
	for _, g := range res.Metrics.Gauges {
		if g.Name == "fleet_delay_ns" && g.Value != 0 {
			t.Errorf("%s%v reads %d after the campaign, want 0", g.Name, g.Labels, g.Value)
		}
	}
	for _, m := range res.PerModel {
		h, _ := res.Metrics.Histogram("fleet_delay_seconds", obs.L("model", m.Model))
		if h.Count != uint64(m.Trials) || m.MeanDelaySecs <= 0 || m.MaxDelaySecs < m.MeanDelaySecs {
			t.Errorf("%s: %d trials, %d delays observed, mean %v s, longest %v s", m.Model, m.Trials, h.Count, m.MeanDelaySecs, m.MaxDelaySecs)
		}
	}
}
