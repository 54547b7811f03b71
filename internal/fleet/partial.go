package fleet

import (
	"fmt"
	"os"

	"repro/internal/obs"
)

// Span is the half-open range of shard indexes [First, Last).
type Span struct {
	First int `json:"first"`
	Last  int `json:"last"`
}

// HomeError is one home's failure, keyed by the home's population index.
type HomeError struct {
	Home int    `json:"home"`
	Err  string `json:"err"`
}

// Partial is the one unit of fleet aggregation, and the checkpoint payload
// (format v7): the aggregate of the shards its Spans hold. A landed shard
// (runShard), an in-flight checkpoint and a -shard-range worker's output
// are all a Partial, and aggregator.absorb folds each the same way. Its
// metrics are the only record of trial outcomes: Result.PerModel and the
// totals are read from them.
//
// Every field folds in any order: counts add, metric sums are exact
// (obs.FloatSum), gauges add with their high-water marks taking the max,
// and errors merge by home index. So a shard folds the moment it lands,
// and any split of the shards across checkpoints, worker counts and
// processes produces byte-identical results.
type Partial struct {
	// Spans lists the shards the partial holds: half-open, sorted,
	// disjoint and never touching.
	Spans []Span `json:"spans"`

	HomesAttacked int `json:"homesAttacked"`
	HomesNoTarget int `json:"homesNoTarget"`
	HomesFailed   int `json:"homesFailed"`

	// Errors samples home failures, up to maxShardErrors per shard,
	// sorted by home.
	Errors []HomeError `json:"errors,omitempty"`

	// Metrics is the obs aggregate (an Accumulator State) and MetricSums
	// its exact histogram sums, index-aligned with Metrics.Histograms.
	Metrics    obs.Snapshot   `json:"metrics"`
	MetricSums []obs.FloatSum `json:"metricSums"`
}

// Shards reports how many shards the partial holds.
func (p Partial) Shards() int {
	n := 0
	for _, s := range p.Spans {
		n += s.Last - s.First
	}
	return n
}

// Homes reports how many homes those shards cover.
func (p Partial) Homes() int { return p.HomesAttacked + p.HomesNoTarget + p.HomesFailed }

// holds reports whether the partial holds shard i.
func (p Partial) holds(i int) bool {
	for _, s := range p.Spans {
		if s.First <= i && i < s.Last {
			return true
		}
	}
	return false
}

// validate checks the structural invariants against the campaign c, which
// is already withDefaults()'d: the spans lie inside c's shards, the home
// counts add up to the homes those spans cover, and every sampled error
// names one of those homes. A violation means a corrupt or hand-edited
// file, and names the offending shard or home — silently dropping or
// last-one-wins'ing bad entries would quietly change results.
func (p Partial) validate(c Campaign) error {
	total := c.shardCount()
	homes := 0
	for i, s := range p.Spans {
		switch {
		case s.First < 0 || s.Last > total:
			return fmt.Errorf("fleet: partial span [%d,%d) lies outside the campaign's %d shards", s.First, s.Last, total)
		case s.Last <= s.First:
			return fmt.Errorf("fleet: partial span [%d,%d) is empty", s.First, s.Last)
		case i == 0: // the first span has nothing to follow
		case s.First < p.Spans[i-1].First:
			return fmt.Errorf("fleet: partial spans out of order at shard %d", s.First)
		case s.First < p.Spans[i-1].Last:
			return fmt.Errorf("fleet: partial holds shard %d twice", s.First)
		case s.First == p.Spans[i-1].Last:
			return fmt.Errorf("fleet: partial spans touch at shard %d; touching spans are one span", s.First)
		}
		lo, hi := c.shardHomes(s.First, s.Last)
		homes += hi - lo
	}
	if p.Homes() != homes {
		return fmt.Errorf("fleet: partial counts %d homes, but its spans cover %d", p.Homes(), homes)
	}
	for i, e := range p.Errors {
		if i > 0 && e.Home <= p.Errors[i-1].Home {
			return fmt.Errorf("fleet: partial errors out of home order at home %d", e.Home)
		}
		if e.Home < 0 || e.Home >= c.Homes || !p.holds(e.Home/c.ShardSize) {
			return fmt.Errorf("fleet: partial has an error for home %d, outside its spans", e.Home)
		}
	}
	if len(p.MetricSums) != len(p.Metrics.Histograms) {
		return fmt.Errorf("fleet: partial has %d exact metric sums for %d histograms", len(p.MetricSums), len(p.Metrics.Histograms))
	}
	return nil
}

// covers reports whether spans, sorted and disjoint, hold every shard of
// [0, total); when they do not, missing is the lowest shard they lack.
func covers(spans []Span, total int) (missing int, ok bool) {
	next := 0
	for _, s := range spans {
		if s.First > next {
			return next, false
		}
		next = s.Last
	}
	return next, next == total
}

// SavePartial writes a partial to path in the checkpoint file format —
// a finished -shard-range worker's output and an in-flight checkpoint are
// deliberately one format, so a completed campaign's checkpoint is itself
// a mergeable partial.
func (c Campaign) SavePartial(path string, p Partial) error {
	c = c.withDefaults()
	return newCheckpointer(path, c.identity()).save(p)
}

// LoadPartials reads a set of partial files for merging, in the order
// given. Every file must belong to the same campaign (matching
// fingerprints); the campaign is reconstructed from the embedded identity,
// so the merger needs no out-of-band configuration.
func LoadPartials(paths []string) (Campaign, []Partial, error) {
	if len(paths) == 0 {
		return Campaign{}, nil, fmt.Errorf("fleet: no partial files to load")
	}
	var c Campaign
	var fp string
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
		}
		if f.Fingerprint != fp {
			return Campaign{}, nil, fmt.Errorf("fleet: partial %s belongs to a different campaign than %s", path, paths[0])
		}
		if err := f.Partial.validate(c.withDefaults()); err != nil {
			return Campaign{}, nil, fmt.Errorf("fleet: partial %s: %w", path, err)
		}
		parts = append(parts, f.Partial)
	}
	return c, parts, nil
}

// MergePartials folds partials into the campaign Result — byte-identical
// to a single-process run of the whole campaign, for any way the shards
// were split. The partials may come in any order and may each hold any
// shards, as long as together they hold every shard exactly once: a
// missing shard or a shard held twice is refused by name.
func (c Campaign) MergePartials(parts []Partial) (Result, error) {
	c = c.withDefaults()
	c.Spec.fill()
	if err := c.validateRun(); err != nil {
		return Result{}, err
	}
	if len(parts) == 0 {
		return Result{}, fmt.Errorf("fleet: no partials to merge")
	}
	agg := newAggregator()
	for _, p := range parts {
		if err := p.validate(c); err != nil {
			return Result{}, err
		}
		if err := agg.absorb(p); err != nil {
			return Result{}, err
		}
	}
	if missing, ok := covers(agg.p.Spans, c.shardCount()); !ok {
		return Result{}, fmt.Errorf("fleet: merged partials lack shard %d of the campaign's %d", missing, c.shardCount())
	}
	return c.result(agg.partial()), nil
}
