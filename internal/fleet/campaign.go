package fleet

import (
	"fmt"
	"runtime"
	"sort"
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
	// CheckpointPath, when non-empty, persists the campaign's compacted
	// partial aggregate as JSON after every completed shard, so an
	// interrupted campaign resumes instead of restarting. The file stays
	// O(aggregate + reorder window) no matter how many shards are done.
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
	// Partial is the aggregate so far: the folded prefix plus the
	// out-of-order window. The same value the step's checkpoint saved; it
	// is not mutated afterwards, so an observer may keep it.
	Partial Partial
	// Total is the number of shards in the run's range.
	Total int
	// Resumed marks the call a checkpoint restore makes. Its Partial's
	// shards were run by an earlier process, not this one.
	Resumed bool
}

// ShardResult is the deterministic outcome of one shard: a pure function
// of (campaign identity, shard index), independent of worker count and of
// which other shards have run.
type ShardResult struct {
	Index         int          `json:"index"`
	FirstHome     int          `json:"firstHome"`
	Homes         int          `json:"homes"`
	HomesNoTarget int          `json:"homesNoTarget"`
	HomesFailed   int          `json:"homesFailed"`
	Errors        []string     `json:"errors,omitempty"`
	Alarms        int          `json:"alarms"`
	Tallies       []ModelTally `json:"tallies"`
	Metrics       obs.Snapshot `json:"metrics"`
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

// Run executes the campaign: shards not already folded into the checkpoint
// are distributed over the worker pool, each worker building one home's
// testbed at a time (memory stays bounded by Workers, not Homes), and the
// shard results stream through an aggregator — folded in shard-index order
// as they land, then released — into a worker-count-independent Result.
// A checkpoint resumes by absorbing the persisted partial aggregate, so
// steady-state memory — and the checkpoint file itself — is the aggregate
// plus a reorder window of roughly Workers shards, never the shard set.
func (c Campaign) Run() (Result, error) {
	c = c.withDefaults()
	c.Spec.fill()
	if err := c.validateRun(); err != nil {
		return Result{}, err
	}
	total := c.shardCount()
	agg, err := c.runShards(0, total, total)
	if err != nil {
		return Result{}, err
	}
	return agg.finish(), nil
}

// RunRange executes only shards [first, last) of the campaign and returns
// the completed range's Partial — one worker process's share of a
// multi-process fleet. Partials from ranges tiling the whole campaign
// merge (MergePartials, `phantomlab fleet -merge`) into a Result
// byte-identical to a single-process Run. CheckpointPath works per range:
// an interrupted range worker resumes its own shards, and its checkpoint
// records Start so a mismatched -shard-range is rejected rather than
// silently misattributed.
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
	agg, err := c.runShards(first, last, total)
	if err != nil {
		return Partial{}, err
	}
	return agg.partial(), nil
}

// runShards is the engine shared by Run and RunRange: seed an aggregator
// for [first, last) — from the checkpoint when one exists — then fill the
// pending shards through the worker pool. Progress totals are relative to
// the range.
func (c Campaign) runShards(first, last, total int) (*aggregator, error) {
	agg := c.newAggregator(first)
	units := last - first
	var ck *checkpointer
	if c.CheckpointPath != "" {
		ck = newCheckpointer(c.CheckpointPath, c.identity())
		p, found, err := ck.load(total)
		if err != nil {
			return nil, err
		}
		if found {
			if p.Start != first {
				return nil, fmt.Errorf("fleet: checkpoint %s covers shards starting at %d but this run starts at %d; resume with the original shard range or use a fresh checkpoint path", c.CheckpointPath, p.Start, first)
			}
			if p.Watermark > last {
				return nil, fmt.Errorf("fleet: checkpoint %s is folded through shard %d, beyond this run's range end %d", c.CheckpointPath, p.Watermark, last)
			}
			if n := len(p.Window); n > 0 && p.Window[n-1].Index >= last {
				return nil, fmt.Errorf("fleet: checkpoint %s retains shard %d, beyond this run's range end %d", c.CheckpointPath, p.Window[n-1].Index, last)
			}
			if err := agg.restore(p); err != nil {
				return nil, err
			}
			if c.Observe != nil {
				c.Observe(Progress{Partial: p, Total: units, Resumed: true})
			}
		}
	}
	var pending []int
	for i := agg.next; i < last; i++ {
		if _, ok := agg.window[i]; !ok {
			pending = append(pending, i)
		}
	}
	if err := c.collect(agg, ck, pending, units); err != nil {
		return nil, err
	}
	if agg.next != last || len(agg.window) != 0 {
		return nil, fmt.Errorf("fleet: internal: aggregation stalled at shard %d with %d windowed shards", agg.next, len(agg.window))
	}
	return agg, nil
}

// collect distributes pending shards over the worker pool and folds
// results as they land. On a checkpoint-save failure it cancels the feeder
// and workers and drains the pool before returning, so no goroutine
// outlives the call — the previous collector returned immediately on that
// path, leaking every worker blocked on the unbuffered results channel
// plus the feeder.
//
//lint:bridge determinism -- completion order is reconciled here: the aggregator's reorder window folds shards in index order, so the result is order-independent
func (c Campaign) collect(agg *aggregator, ck *checkpointer, pending []int, total int) error {
	if len(pending) == 0 {
		return nil
	}
	jobs := make(chan int)
	results := make(chan ShardResult)
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
	// nothing order-sensitive happens here — the aggregator's reorder
	// window restores index order before folding, and each checkpoint save
	// persists the folded prefix plus that window. The step's Partial is
	// built once, for the save and the observer, and not at all when
	// neither is set.
	for s := range results {
		if runErr != nil {
			continue // cancelled: drain until the pool shuts down
		}
		agg.add(s)
		if ck == nil && c.Observe == nil {
			continue
		}
		p := agg.partial()
		if ck != nil {
			if err := ck.save(p); err != nil {
				runErr = err
				close(stop)
				continue
			}
		}
		if c.Observe != nil {
			c.Observe(Progress{Partial: p, Total: total})
		}
	}
	return runErr
}

// runShard generates and runs the shard's homes sequentially. Everything
// inside a shard happens in home order, so the shard result is
// deterministic no matter which worker executes it.
func (c Campaign) runShard(idx int) ShardResult {
	first := idx * c.ShardSize
	n := c.ShardSize
	if first+n > c.Homes {
		n = c.Homes - first
	}
	sr := ShardResult{Index: idx, FirstHome: first, Homes: n}
	pc := PopulationConfig{
		Seed:         c.Seed,
		TimingJitter: c.Spec.TimingJitter,
		RulesPerHome: c.Spec.RulesPerHome,
	}
	tallies := make(map[string]*ModelTally)
	// Each home's registry folds into a per-shard accumulator by series id
	// as the home completes — the same left fold as obs.Merge over the
	// homes' snapshots, so the shard metrics are byte-identical, without
	// building a snapshot per home; the registry (the discarded testbed's
	// last reachable state) is released as soon as the next home starts.
	homes := obs.NewAccumulator()
	for i := 0; i < n; i++ {
		hr := runHome(c.Spec, GenerateHome(pc, first+i))
		if hr.err != nil {
			sr.HomesFailed++
			if len(sr.Errors) < maxShardErrors {
				sr.Errors = append(sr.Errors, hr.err.Error())
			}
		}
		if hr.noTarget {
			sr.HomesNoTarget++
		}
		for model, t := range hr.tallies {
			agg, ok := tallies[model]
			if !ok {
				agg = &ModelTally{Model: model}
				tallies[model] = agg
			}
			agg.add(*t)
		}
		sr.Alarms += hr.alarms
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
	sr.Tallies = sortTallies(tallies)
	sr.Metrics = homes.State()
	return sr
}

func sortTallies(m map[string]*ModelTally) []ModelTally {
	out := make([]ModelTally, 0, len(m))
	for _, t := range m {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Model < out[j].Model })
	return out
}

func sortedShards(m map[int]ShardResult) []ShardResult {
	out := make([]ShardResult, 0, len(m))
	for _, s := range m {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}
