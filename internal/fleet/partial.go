package fleet

import (
	"fmt"
	"os"
	"sort"

	"repro/internal/obs"
)

// PartialTally is a ModelTally whose cross-shard delay sum is carried
// exactly. DelaySumSecs inside the embedded ModelTally is always DelaySum
// rounded once; DelaySum is what lets two partials' tallies combine into
// the same bits a single serial fold would have produced.
type PartialTally struct {
	ModelTally
	DelaySum obs.FloatSum `json:"delaySum"`
}

// Partial is the checkpoint payload (format v5, and v2 to v4 before it) and the
// unit of multi-process fleet sharding: the mergeable aggregate of the
// shard range [Start, Watermark) plus the completed-but-unfolded shards
// sitting past the watermark.
//
// The invariant: every shard in [Start, Watermark) is folded into the
// aggregate fields (counts, errors, tallies, metrics) and is gone — a
// checkpoint never re-retains it. Shards that completed out of order
// beyond the watermark wait, whole, in Window (sorted by index, each index
// in (Watermark, total)); the window is bounded by the campaign's reorder
// depth — roughly Workers entries — so a checkpoint's size is O(window)
// regardless of how many shards are done. A partial with an empty window
// is a completed range and can merge with its neighbours.
//
// Tallies and MetricSums carry the exact float state behind the rounded
// aggregate (see obs.FloatSum): resuming or merging absorbs that state
// rather than re-folding rounded values, which is why any interrupt/resume
// split and any process topology produce byte-identical results.
type Partial struct {
	// Start is the first shard index the partial covers; Watermark is one
	// past the last contiguously folded shard.
	Start     int `json:"start"`
	Watermark int `json:"watermark"`

	HomesAttacked int `json:"homesAttacked"`
	HomesNoTarget int `json:"homesNoTarget"`
	HomesFailed   int `json:"homesFailed"`
	Alarms        int `json:"alarms"`

	Errors []string `json:"errors,omitempty"`

	// Tallies is the folded per-model state, sorted by model.
	Tallies []PartialTally `json:"tallies"`

	// Metrics is the folded obs aggregate (an Accumulator State) and
	// MetricSums its exact histogram sums, index-aligned with
	// Metrics.Histograms (Accumulator.HistogramSums).
	Metrics    obs.Snapshot   `json:"metrics"`
	MetricSums []obs.FloatSum `json:"metricSums"`

	// Window holds completed shards beyond the watermark, sorted by index.
	Window []ShardResult `json:"window,omitempty"`
}

// Shards reports how many completed shards the partial accounts for.
func (p Partial) Shards() int { return p.Watermark - p.Start + len(p.Window) }

// Homes reports how many homes those shards cover.
func (p Partial) Homes() int {
	n := p.HomesAttacked + p.HomesNoTarget + p.HomesFailed
	for _, s := range p.Window {
		n += s.Homes
	}
	return n
}

// validate checks the structural invariants against the campaign's shard
// count. A violation means a corrupt or hand-edited file, and names the
// offending shard index — silently dropping or last-one-wins'ing bad
// entries would quietly change results.
func (p Partial) validate(total int) error {
	if p.Start < 0 || p.Watermark < p.Start || p.Watermark > total {
		return fmt.Errorf("fleet: partial claims folded shards [%d,%d) of a %d-shard campaign", p.Start, p.Watermark, total)
	}
	prev := -1
	for _, s := range p.Window {
		switch {
		case s.Index < 0 || s.Index >= total:
			return fmt.Errorf("fleet: partial window shard index %d out of range [0,%d)", s.Index, total)
		case s.Index < p.Watermark:
			return fmt.Errorf("fleet: partial window shard index %d below the fold watermark %d", s.Index, p.Watermark)
		case s.Index == p.Watermark:
			return fmt.Errorf("fleet: partial window shard index %d equals the fold watermark — a contiguous shard left unfolded means a corrupt save", s.Index)
		case s.Index == prev:
			return fmt.Errorf("fleet: partial window has duplicate shard index %d", s.Index)
		case s.Index < prev:
			return fmt.Errorf("fleet: partial window out of order at shard index %d", s.Index)
		}
		prev = s.Index
	}
	if len(p.MetricSums) != len(p.Metrics.Histograms) {
		return fmt.Errorf("fleet: partial has %d exact metric sums for %d histograms", len(p.MetricSums), len(p.Metrics.Histograms))
	}
	return nil
}

// SavePartial writes a partial to path in the checkpoint file format —
// a finished -shard-range worker's output and an in-flight checkpoint are
// deliberately one format, so a completed campaign's checkpoint is itself
// a mergeable partial.
func (c Campaign) SavePartial(path string, p Partial) error {
	c = c.withDefaults()
	return newCheckpointer(path, c.identity()).save(p)
}

// LoadPartials reads a set of partial files for merging. Every file must
// belong to the same campaign (matching fingerprints); the campaign is
// reconstructed from the embedded identity, so the merger needs no
// out-of-band configuration. Partials are returned sorted by Start.
func LoadPartials(paths []string) (Campaign, []Partial, error) {
	if len(paths) == 0 {
		return Campaign{}, nil, fmt.Errorf("fleet: no partial files to load")
	}
	var c Campaign
	var fp string
	var total int
	parts := make([]Partial, 0, len(paths))
	for i, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return Campaign{}, nil, fmt.Errorf("fleet: read partial: %w", err)
		}
		f, err := decodeCheckpoint(data, path)
		if err != nil {
			return Campaign{}, nil, err
		}
		if i == 0 {
			c = Campaign{
				Spec:      f.Identity.Spec,
				Homes:     f.Identity.Homes,
				Seed:      f.Identity.Seed,
				ShardSize: f.Identity.ShardSize,
			}
			fp = f.Identity.fingerprint()
			if f.Fingerprint != fp {
				return Campaign{}, nil, fmt.Errorf("fleet: partial %s fingerprint does not match its own identity — corrupt file", path)
			}
			total = c.withDefaults().shardCount()
		}
		if f.Fingerprint != fp {
			return Campaign{}, nil, fmt.Errorf("fleet: partial %s belongs to a different campaign than %s", path, paths[0])
		}
		if err := f.Partial.validate(total); err != nil {
			return Campaign{}, nil, fmt.Errorf("fleet: partial %s: %w", path, err)
		}
		parts = append(parts, f.Partial)
	}
	sort.Slice(parts, func(i, j int) bool { return parts[i].Start < parts[j].Start })
	return c, parts, nil
}

// MergePartials folds completed partials covering adjacent shard ranges
// into the campaign Result — byte-identical to a single-process run of the
// whole campaign, for any way the shard range was split. The partials
// must tile [0, shardCount) exactly: sorted by Start, first at 0,
// contiguous, last watermark at the end, every window empty (a non-empty
// window is an interrupted range — resume it first).
func (c Campaign) MergePartials(parts []Partial) (Result, error) {
	c = c.withDefaults()
	c.Spec.fill()
	if err := c.validateRun(); err != nil {
		return Result{}, err
	}
	if len(parts) == 0 {
		return Result{}, fmt.Errorf("fleet: no partials to merge")
	}
	total := c.shardCount()
	sorted := append([]Partial(nil), parts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	agg := c.newAggregator(0)
	for _, p := range sorted {
		if err := p.validate(total); err != nil {
			return Result{}, err
		}
		if err := agg.absorb(p); err != nil {
			return Result{}, err
		}
	}
	if agg.next != total {
		return Result{}, fmt.Errorf("fleet: merged partials cover shards [0,%d) of %d — a range is missing", agg.next, total)
	}
	return agg.finish(), nil
}
