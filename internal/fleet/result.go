package fleet

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/obs"
)

// ModelSummary is one device model's aggregated campaign outcome.
type ModelSummary struct {
	Model       string  `json:"model"`
	Trials      int     `json:"trials"`
	Successes   int     `json:"successes"`
	SuccessRate float64 `json:"successRate"`
	// MeanDelaySecs and MaxDelaySecs summarise the achieved phantom delay
	// across all trials against this model.
	MeanDelaySecs float64 `json:"meanDelaySecs"`
	MaxDelaySecs  float64 `json:"maxDelaySecs"`
}

// Result is a campaign's aggregated outcome. It is a pure function of the
// campaign identity: any worker count, and any interrupt/resume split,
// produces byte-identical JSON.
type Result struct {
	Campaign  string `json:"campaign"`
	Homes     int    `json:"homes"`
	Seed      int64  `json:"seed"`
	ShardSize int    `json:"shardSize"`
	Spec      Spec   `json:"spec"`

	// HomesAttacked counts homes with at least one matching target;
	// HomesNoTarget counts homes the spec's target selector skipped
	// entirely; HomesFailed counts homes whose run errored.
	HomesAttacked int `json:"homesAttacked"`
	HomesNoTarget int `json:"homesNoTarget"`
	HomesFailed   int `json:"homesFailed"`

	TotalTrials    int `json:"totalTrials"`
	TotalSuccesses int `json:"totalSuccesses"`
	// Alarms counts offline alarms raised across the whole population —
	// the campaign's stealth bill.
	Alarms int `json:"alarms"`

	// Errors samples per-home failures (up to maxShardErrors per shard),
	// in home order.
	Errors []string `json:"errors,omitempty"`

	// PerModel is sorted by model label.
	PerModel []ModelSummary `json:"perModel"`

	// Metrics merges every home testbed's observability snapshot: the
	// per-model trial series that PerModel and the totals are read from
	// (fleet_trials_total, fleet_trials_success, fleet_delay_seconds and
	// fleet_delay_ns), fleet_alarms_total, plus the simulators' own
	// counters.
	Metrics obs.Snapshot `json:"metrics"`
}

// aggregator is the campaign aggregation: Partials fold into it as they
// land — a shard from the worker pool, a resumed checkpoint, every merge
// input — and are then released, so nothing is retained per shard. Every
// field of a Partial folds commutatively, so no fold waits for another and
// the aggregate depends only on which shards it holds. Its complete state
// exports as a Partial (partial()), exact float sums included: that is
// what a checkpoint saves, what a range worker emits and what an observer
// of a running campaign sees.
type aggregator struct {
	p       Partial // spans, counts and errors; the metrics live below
	metrics *obs.Accumulator
}

func newAggregator() *aggregator {
	return &aggregator{metrics: obs.NewAccumulator()}
}

// absorb folds p into the aggregate. It refuses a partial holding a shard
// the aggregate already holds, naming the shard.
func (g *aggregator) absorb(p Partial) error {
	spans, err := joinSpans(g.p.Spans, p.Spans)
	if err != nil {
		return err
	}
	if err := g.metrics.Absorb(p.Metrics, p.MetricSums); err != nil {
		return err
	}
	g.p.Spans = spans
	g.p.HomesAttacked += p.HomesAttacked
	g.p.HomesNoTarget += p.HomesNoTarget
	g.p.HomesFailed += p.HomesFailed
	g.p.Errors = append(g.p.Errors, p.Errors...)
	slices.SortFunc(g.p.Errors, func(a, b HomeError) int { return cmp.Compare(a.Home, b.Home) })
	return nil
}

// joinSpans returns the union of two valid span lists, with spans that
// touch joined into one, or an error naming a shard both lists hold.
func joinSpans(a, b []Span) ([]Span, error) {
	all := slices.Concat(a, b)
	slices.SortFunc(all, func(x, y Span) int { return cmp.Compare(x.First, y.First) })
	out := all[:0]
	for _, s := range all {
		n := len(out)
		switch {
		case n > 0 && s.First < out[n-1].Last:
			return nil, fmt.Errorf("fleet: shard %d is held twice", s.First)
		case n > 0 && s.First == out[n-1].Last:
			out[n-1].Last = s.Last
		default:
			out = append(out, s)
		}
	}
	return out, nil
}

// partial exports the aggregator's complete state. The value shares
// nothing mutable with the aggregator, so an observer may keep it.
func (g *aggregator) partial() Partial {
	p := g.p
	p.Spans = slices.Clone(p.Spans)
	p.Errors = slices.Clone(p.Errors)
	p.Metrics = g.metrics.State()
	p.MetricSums = g.metrics.HistogramSums()
	return p
}

// result assembles the campaign Result from the aggregate of all its
// shards.
func (c Campaign) result(p Partial) Result {
	res := Result{
		Campaign:      c.Spec.Name,
		Homes:         c.Homes,
		Seed:          c.Seed,
		ShardSize:     c.ShardSize,
		Spec:          c.Spec,
		HomesAttacked: p.HomesAttacked,
		HomesNoTarget: p.HomesNoTarget,
		HomesFailed:   p.HomesFailed,
		Alarms:        int(p.Metrics.Counter("fleet_alarms_total")),
		PerModel:      perModel(p.Metrics),
		Metrics:       p.Metrics,
	}
	for _, e := range p.Errors {
		res.Errors = append(res.Errors, e.Err)
	}
	for _, m := range res.PerModel {
		res.TotalTrials += m.Trials
		res.TotalSuccesses += m.Successes
	}
	return res
}

// perModel reads each attacked model's outcome from fleet metrics, the
// series attackTarget records: trials and successes from its counters,
// the mean delay from its delay histogram's sum, and the longest delay
// from its delay gauge's high-water mark. A model is listed once its
// series exist, with or without a trial, and in label order, since a
// snapshot lists each name's series in label order.
func perModel(s obs.Snapshot) []ModelSummary {
	var out []ModelSummary
	for _, t := range s.Counters {
		if t.Name != "fleet_trials_total" || len(t.Labels) != 1 {
			continue
		}
		m := ModelSummary{
			Model:        t.Labels[0].Value,
			Trials:       int(t.Value),
			Successes:    int(s.Counter("fleet_trials_success", t.Labels...)),
			MaxDelaySecs: time.Duration(s.Gauge("fleet_delay_ns", t.Labels...).Max).Seconds(),
		}
		if m.Trials > 0 {
			h, _ := s.Histogram("fleet_delay_seconds", t.Labels...)
			m.SuccessRate = float64(m.Successes) / float64(m.Trials)
			m.MeanDelaySecs = h.Sum / float64(m.Trials)
		}
		out = append(out, m)
	}
	return out
}

// WriteJSON writes the result as indented JSON.
func (r Result) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
