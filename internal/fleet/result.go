package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

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

	// Errors samples per-home failures (up to maxShardErrors per shard).
	Errors []string `json:"errors,omitempty"`

	// PerModel is sorted by model label.
	PerModel []ModelSummary `json:"perModel"`

	// Metrics merges every home testbed's observability snapshot in shard
	// order: fleet_delay_seconds{model=...} histograms, trial counters,
	// alarm counts, plus the simulators' own counters.
	Metrics obs.Snapshot `json:"metrics"`
}

// exactTally is the aggregation-side form of ModelTally: the cross-shard
// delay sum accumulates exactly (see obs.FloatSum) with the embedded
// rounded DelaySumSecs re-derived after every fold. Exactness is what
// makes tally aggregation independent of how the shard sequence is split
// across checkpoints and worker processes.
type exactTally struct {
	t   ModelTally
	sum obs.FloatSum
}

// fold absorbs one shard's tally for this model.
func (e *exactTally) fold(o ModelTally) {
	e.t.Trials += o.Trials
	e.t.Successes += o.Successes
	e.sum.Add(o.DelaySumSecs)
	e.t.DelaySumSecs = e.sum.Value()
	if o.MaxDelaySecs > e.t.MaxDelaySecs {
		e.t.MaxDelaySecs = o.MaxDelaySecs
	}
}

// absorb merges another aggregate's exact tally state for this model.
func (e *exactTally) absorb(p PartialTally) {
	e.t.Trials += p.Trials
	e.t.Successes += p.Successes
	e.sum.AddSum(&p.DelaySum)
	e.t.DelaySumSecs = e.sum.Value()
	if p.MaxDelaySecs > e.t.MaxDelaySecs {
		e.t.MaxDelaySecs = p.MaxDelaySecs
	}
}

// sortedExactTallies flattens the tally map into PartialTally entries
// sorted by model — the canonical order both Partial encoding and result
// summaries use.
func sortedExactTallies(m map[string]*exactTally) []PartialTally {
	out := make([]PartialTally, 0, len(m))
	for _, e := range m {
		out = append(out, PartialTally{ModelTally: e.t, DelaySum: e.sum})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Model < out[j].Model })
	return out
}

// finishTallies folds the per-model tally map into the result's sorted
// PerModel summaries and campaign totals. Shared by the retained reference
// path and the streaming aggregator so their derived numbers cannot drift.
func (res *Result) finishTallies(tallies map[string]*exactTally) {
	for _, pt := range sortedExactTallies(tallies) {
		t := pt.ModelTally
		s := ModelSummary{
			Model:        t.Model,
			Trials:       t.Trials,
			Successes:    t.Successes,
			MaxDelaySecs: t.MaxDelaySecs,
		}
		if t.Trials > 0 {
			s.SuccessRate = float64(t.Successes) / float64(t.Trials)
			s.MeanDelaySecs = t.DelaySumSecs / float64(t.Trials)
		}
		res.TotalTrials += t.Trials
		res.TotalSuccesses += t.Successes
		res.PerModel = append(res.PerModel, s)
	}
}

// aggregator is the streaming campaign aggregation: shard results fold into the running campaign result as they land and are then
// released — nothing is retained per shard. Fold order is part of the
// byte-identity contract (error sampling order), so
// results arriving out of shard-index order wait in a small reorder window
// until every lower-indexed shard has folded. With roughly uniform shard
// costs the window holds O(workers) results; a campaign's full shard set
// is never resident.
//
// The aggregator's complete state is exportable as a Partial (partial())
// and re-importable (restore()/absorb()), exact float sums included —
// that is the basis of both compact checkpoints and multi-process merges.
//
// The metrics side folds into the aggregator's own obs.Accumulator, whose
// folded prefix is, by the in-order guarantee, always a prefix of the
// final aggregate; observers see it through partial() (Campaign.Observe).
type aggregator struct {
	res     Result
	tallies map[string]*exactTally
	metrics *obs.Accumulator
	start   int                 // first shard index of this aggregate's range
	next    int                 // next shard index to fold
	window  map[int]ShardResult // out-of-order arrivals awaiting their turn
}

func (c Campaign) newAggregator(start int) *aggregator {
	return &aggregator{
		res: Result{
			Campaign:  c.Spec.Name,
			Homes:     c.Homes,
			Seed:      c.Seed,
			ShardSize: c.ShardSize,
			Spec:      c.Spec,
		},
		tallies: make(map[string]*exactTally),
		metrics: obs.NewAccumulator(),
		start:   start,
		next:    start,
		window:  make(map[int]ShardResult),
	}
}

// add accepts one shard result in any order, folding it — and any buffered
// successors it unblocks — once it is next in index order.
func (g *aggregator) add(s ShardResult) {
	if s.Index != g.next {
		g.window[s.Index] = s
		return
	}
	g.fold(s)
	for {
		h, ok := g.window[g.next]
		if !ok {
			return
		}
		delete(g.window, g.next)
		g.fold(h)
	}
}

// fold applies one in-order shard: the same statements, in the same order,
// as one iteration of aggregateRetained's loop.
func (g *aggregator) fold(s ShardResult) {
	g.res.HomesNoTarget += s.HomesNoTarget
	g.res.HomesFailed += s.HomesFailed
	g.res.HomesAttacked += s.Homes - s.HomesNoTarget - s.HomesFailed
	g.res.Alarms += s.Alarms
	g.res.Errors = append(g.res.Errors, s.Errors...)
	for _, t := range s.Tallies {
		agg, ok := g.tallies[t.Model]
		if !ok {
			agg = &exactTally{t: ModelTally{Model: t.Model}}
			g.tallies[t.Model] = agg
		}
		agg.fold(t)
	}
	g.metrics.Add(s.Metrics)
	g.next++
}

// partial exports the aggregator's complete state as a mergeable Partial:
// what a checkpoint persists after every fold, and what a finished
// -shard-range worker emits. O(aggregate + reorder window), independent of
// how many shards have folded.
func (g *aggregator) partial() Partial {
	return Partial{
		Start:         g.start,
		Watermark:     g.next,
		HomesAttacked: g.res.HomesAttacked,
		HomesNoTarget: g.res.HomesNoTarget,
		HomesFailed:   g.res.HomesFailed,
		Alarms:        g.res.Alarms,
		Errors:        append([]string(nil), g.res.Errors...),
		Tallies:       sortedExactTallies(g.tallies),
		Metrics:       g.metrics.State(),
		MetricSums:    g.metrics.HistogramSums(),
		Window:        sortedShards(g.window),
	}
}

// absorb folds a completed adjacent partial into the aggregate — the
// cross-process merge step. The partial's exact tally and metric sums
// transfer limb-for-limb, so absorbing a range's partial leaves the
// aggregator in the precise state it would hold had it folded that
// range's shards itself.
func (g *aggregator) absorb(p Partial) error {
	if p.Start != g.next {
		return fmt.Errorf("fleet: partial starts at shard %d but the aggregate is at shard %d — ranges must be contiguous", p.Start, g.next)
	}
	if len(p.Window) != 0 {
		return fmt.Errorf("fleet: partial covering shards [%d,%d) still holds %d unfolded window shards — its range is incomplete", p.Start, p.Watermark, len(p.Window))
	}
	g.res.HomesAttacked += p.HomesAttacked
	g.res.HomesNoTarget += p.HomesNoTarget
	g.res.HomesFailed += p.HomesFailed
	g.res.Alarms += p.Alarms
	g.res.Errors = append(g.res.Errors, p.Errors...)
	for _, t := range p.Tallies {
		agg, ok := g.tallies[t.Model]
		if !ok {
			agg = &exactTally{t: ModelTally{Model: t.Model}}
			g.tallies[t.Model] = agg
		}
		agg.absorb(t)
	}
	if err := g.metrics.Absorb(p.Metrics, p.MetricSums); err != nil {
		return err
	}
	g.next = p.Watermark
	return nil
}

// restore seeds a fresh aggregator from a checkpointed partial: the folded
// prefix absorbs exactly, the window shards re-enter the reorder window.
func (g *aggregator) restore(p Partial) error {
	window := p.Window
	p.Window = nil
	if err := g.absorb(p); err != nil {
		return err
	}
	for _, s := range window {
		g.window[s.Index] = s
	}
	return nil
}

// finish assembles the final Result. Every shard must have folded (the
// reorder window drained) by the time it is called.
func (g *aggregator) finish() Result {
	res := g.res
	res.finishTallies(g.tallies)
	res.Metrics = g.metrics.State()
	return res
}

// WriteJSON writes the result as indented JSON.
func (r Result) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
