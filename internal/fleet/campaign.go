package fleet

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/obs"
)

// DefaultShardSize is the number of homes per checkpointable work unit.
const DefaultShardSize = 64

// Campaign binds a spec to a population and an execution budget.
type Campaign struct {
	// Spec is the attack procedure to run in every home.
	Spec Spec
	// Homes is the population size.
	Homes int
	// Workers is the worker-pool size. Workers only changes wall-clock
	// time: results are byte-identical for any value. Default 1.
	Workers int
	// ShardSize is the number of homes per shard — the unit of
	// checkpointing and of work distribution. It is part of the campaign
	// identity: resuming requires the same value. Default DefaultShardSize.
	ShardSize int
	// Seed is the population master seed.
	Seed int64
	// CheckpointPath, when non-empty, persists the campaign's partial
	// aggregate as JSON after every completed shard, so an interrupted
	// campaign resumes instead of restarting. The file holds the aggregate
	// and the spans of shards done, never the shards themselves.
	CheckpointPath string
	// Observe, when set, watches the run through the aggregator's own
	// state: the collector calls it after each landed shard's checkpoint
	// save, and once more, before any live shard, when a checkpoint seeds
	// the run. All calls happen on the collector goroutine; the observer
	// reads results only and cannot alter aggregation.
	Observe func(Progress)
}

// Progress is one observation of a running campaign or shard range.
type Progress struct {
	// Partial is the aggregate of the shards landed so far. The same
	// value the step's checkpoint saved; it is not mutated afterwards, so
	// an observer may keep it.
	Partial Partial
	// Total is the number of shards in the run's range.
	Total int
	// Resumed marks the call a checkpoint restore makes. Its Partial's
	// shards were run by an earlier process, not this one.
	Resumed bool
}

// maxShardErrors bounds how many home errors a shard records verbatim.
const maxShardErrors = 3

func (c Campaign) withDefaults() Campaign {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.ShardSize <= 0 {
		c.ShardSize = DefaultShardSize
	}
	return c
}

func (c Campaign) shardCount() int {
	return (c.Homes + c.ShardSize - 1) / c.ShardSize
}

// shardHomes returns the homes of shards [first, last) as the half-open
// range of population indexes [lo, hi); a range past the campaign's end
// is cut at its last home. The receiver is already withDefaults()'d.
func (c Campaign) shardHomes(first, last int) (lo, hi int) {
	return min(first*c.ShardSize, c.Homes), min(last*c.ShardSize, c.Homes)
}

// RangeHomes counts the homes that shards [first, last) cover: the
// progress total of a -shard-range worker. It does not check the range;
// RunRange refuses one outside the campaign.
func (c Campaign) RangeHomes(first, last int) int {
	lo, hi := c.withDefaults().shardHomes(first, last)
	return hi - lo
}

// validateRun checks the knobs shared by Run, RunRange and MergePartials.
// The receiver is already withDefaults()'d and spec-filled.
func (c Campaign) validateRun() error {
	if err := c.Spec.Validate(); err != nil {
		return err
	}
	if c.Homes <= 0 {
		return fmt.Errorf("fleet: campaign needs a positive number of homes, got %d", c.Homes)
	}
	return nil
}

// Run executes the campaign: shards the checkpoint does not hold are
// distributed over the worker pool, each worker building one home's
// testbed at a time (memory stays bounded by Workers, not Homes), and each
// shard's Partial folds into the aggregate the moment it lands, then is
// released, into a worker-count-independent Result. A checkpoint resumes
// by absorbing the persisted partial aggregate, so steady-state memory —
// and the checkpoint file itself — is the aggregate, never the shard set.
func (c Campaign) Run() (Result, error) {
	c = c.withDefaults()
	c.Spec.fill()
	if err := c.validateRun(); err != nil {
		return Result{}, err
	}
	agg, err := c.runShards(0, c.shardCount())
	if err != nil {
		return Result{}, err
	}
	return c.result(agg.partial()), nil
}

// RunRange executes only shards [first, last) of the campaign and returns
// the completed range's Partial — one worker process's share of a
// multi-process fleet. Partials from ranges tiling the whole campaign
// merge (MergePartials, `phantomlab fleet -merge`) into a Result
// byte-identical to a single-process Run. CheckpointPath works per range:
// a range worker resumes from any checkpoint whose shards all lie inside
// its range, and refuses one holding a shard outside it rather than
// silently misattributing it.
func (c Campaign) RunRange(first, last int) (Partial, error) {
	c = c.withDefaults()
	c.Spec.fill()
	if err := c.validateRun(); err != nil {
		return Partial{}, err
	}
	total := c.shardCount()
	if first < 0 || last <= first || last > total {
		return Partial{}, fmt.Errorf("fleet: shard range [%d,%d) outside the campaign's %d shards", first, last, total)
	}
	agg, err := c.runShards(first, last)
	if err != nil {
		return Partial{}, err
	}
	return agg.partial(), nil
}

// runShards is the engine shared by Run and RunRange: seed an aggregator
// from the checkpoint when one exists, then run the shards of [first,
// last) it does not hold through the worker pool. Progress totals are
// relative to the range.
func (c Campaign) runShards(first, last int) (*aggregator, error) {
	agg := newAggregator()
	var ck *checkpointer
	if c.CheckpointPath != "" {
		ck = newCheckpointer(c.CheckpointPath, c.identity())
		p, found, err := ck.load(c)
		if err != nil {
			return nil, err
		}
		if found {
			for _, s := range p.Spans {
				if s.First < first || s.Last > last {
					return nil, fmt.Errorf("fleet: checkpoint %s holds shards [%d,%d), outside this run's range [%d,%d); resume with a range that contains them or use a fresh checkpoint path", c.CheckpointPath, s.First, s.Last, first, last)
				}
			}
			if err := agg.absorb(p); err != nil {
				return nil, err
			}
			if c.Observe != nil {
				c.Observe(Progress{Partial: p, Total: last - first, Resumed: true})
			}
		}
	}
	var pending []int
	for i := first; i < last; i++ {
		if !agg.p.holds(i) {
			pending = append(pending, i)
		}
	}
	if err := c.collect(agg, ck, pending, last-first); err != nil {
		return nil, err
	}
	return agg, nil
}

// collect distributes pending shards over the worker pool and folds
// each as it lands. On a checkpoint-save failure it cancels the feeder
// and workers and drains the pool before returning, so no goroutine
// outlives the call — the previous collector returned immediately on that
// path, leaking every worker blocked on the unbuffered results channel
// plus the feeder.
//
//lint:bridge determinism -- completion order does not reach the result: every field of a shard's Partial folds commutatively, so the aggregate depends only on which shards landed
func (c Campaign) collect(agg *aggregator, ck *checkpointer, pending []int, total int) error {
	if len(pending) == 0 {
		return nil
	}
	jobs := make(chan int)
	results := make(chan Partial)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	workers := c.Workers
	if workers > len(pending) {
		workers = len(pending)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				select {
				case results <- c.runShard(idx):
				case <-stop:
					return
				}
			}
		}()
	}
	go func() {
		defer close(jobs)
		for _, idx := range pending {
			select {
			case jobs <- idx:
			case <-stop:
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(results)
	}()
	var runErr error
	// Single collector: completion order varies with the worker pool, but
	// nothing here depends on it.
	for s := range results {
		if runErr != nil {
			continue // cancelled: drain until the pool shuts down
		}
		if runErr = c.land(agg, ck, s, total); runErr != nil {
			close(stop)
		}
	}
	return runErr
}

// land absorbs one shard, then saves the checkpoint and tells the
// observer. The step's Partial is built once, for both, and not at all
// when neither is set.
func (c Campaign) land(agg *aggregator, ck *checkpointer, s Partial, total int) error {
	if err := agg.absorb(s); err != nil {
		return err
	}
	if ck == nil && c.Observe == nil {
		return nil
	}
	p := agg.partial()
	if ck != nil {
		if err := ck.save(p); err != nil {
			return err
		}
	}
	if c.Observe != nil {
		c.Observe(Progress{Partial: p, Total: total})
	}
	return nil
}

// runShard generates and runs the shard's homes sequentially and returns
// the shard's Partial, holding the one span [idx, idx+1). Everything
// inside a shard happens in home order, so the Partial is a pure function
// of (campaign identity, shard index), whichever worker runs it.
func (c Campaign) runShard(idx int) Partial {
	first, last := c.shardHomes(idx, idx+1)
	p := Partial{Spans: []Span{{First: idx, Last: idx + 1}}}
	pc := PopulationConfig{
		Seed:         c.Seed,
		TimingJitter: c.Spec.TimingJitter,
		RulesPerHome: c.Spec.RulesPerHome,
	}
	// Each home's registry folds into a per-shard accumulator by series id
	// as the home completes — the same left fold as obs.Merge over the
	// homes' snapshots, so the shard metrics are byte-identical, without
	// building a snapshot per home; the registry (the discarded testbed's
	// last reachable state) is released as soon as the next home starts.
	homes := obs.NewAccumulator()
	for i := first; i < last; i++ {
		hr := runHome(c.Spec, GenerateHome(pc, i))
		if hr.err != nil {
			p.fail(i, hr.err)
		}
		if hr.noTarget {
			p.HomesNoTarget++
		}
		homes.AddRegistry(hr.metrics)
		// Yield between homes so the GC's background mark worker gets a
		// processor. At GOMAXPROCS=2 its 25% share is one fractional
		// worker that runs only when a processor schedules, and a fleet
		// worker never blocks inside a shard: without the yield the mark
		// waits for sysmon's 10 ms preemption while both workers allocate
		// with write barriers on, pay mark assists, and count what they
		// allocate as live, which inflates the next heap goal.
		runtime.Gosched()
	}
	p.HomesAttacked = last - first - p.HomesNoTarget - p.HomesFailed
	// The shard's histogram sums enter the aggregate rounded, as the
	// shard's snapshot holds them: each histogram's rounded Sum rather than
	// the exact sum behind it (homes.HistogramSums). Campaign bytes were
	// defined by folding shard snapshots, and exact shard sums would move
	// them: one histogram sum of the 1000-home default campaign at -seed 7
	// -shard-size 16 would read 9649.356236826 instead of
	// 9649.356236825999.
	p.Metrics = homes.State()
	p.MetricSums = make([]obs.FloatSum, len(p.Metrics.Histograms))
	for i, h := range p.Metrics.Histograms {
		p.MetricSums[i].Add(h.Sum)
	}
	return p
}

// fail counts a failed home of a shard, keeping its error while the shard
// holds fewer than maxShardErrors.
func (p *Partial) fail(home int, err error) {
	p.HomesFailed++
	if len(p.Errors) < maxShardErrors {
		p.Errors = append(p.Errors, HomeError{Home: home, Err: err.Error()})
	}
}
