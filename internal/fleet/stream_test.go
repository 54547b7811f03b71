package fleet

import (
	"bytes"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

// aggregateRetained is the retain-all-then-merge reference aggregation:
// fold sorted shard results into the campaign result, combining metrics
// via obs.Merge in shard-index order. Run streams through an aggregator
// instead; the byte-identity tests compare the streaming, resumed and
// multi-process paths against this oracle.
func (c Campaign) aggregateRetained(shards []ShardResult) Result {
	res := Result{
		Campaign:  c.Spec.Name,
		Homes:     c.Homes,
		Seed:      c.Seed,
		ShardSize: c.ShardSize,
		Spec:      c.Spec,
	}
	tallies := make(map[string]*exactTally)
	snaps := make([]obs.Snapshot, 0, len(shards))
	for _, s := range shards {
		res.HomesNoTarget += s.HomesNoTarget
		res.HomesFailed += s.HomesFailed
		res.HomesAttacked += s.Homes - s.HomesNoTarget - s.HomesFailed
		res.Alarms += s.Alarms
		res.Errors = append(res.Errors, s.Errors...)
		for _, t := range s.Tallies {
			agg, ok := tallies[t.Model]
			if !ok {
				agg = &exactTally{t: ModelTally{Model: t.Model}}
				tallies[t.Model] = agg
			}
			agg.fold(t)
		}
		snaps = append(snaps, s.Metrics)
	}
	res.finishTallies(tallies)
	res.Metrics = obs.Merge(snaps...)
	return res
}

// TestStreamingAggregateMatchesRetained pins the streaming guarantee: the
// streaming aggregator (fold-as-they-land, retain nothing) produces a
// Result byte-identical to the retain-all-then-merge reference
// (aggregateRetained), across worker counts and a checkpointed resume.
func TestStreamingAggregateMatchesRetained(t *testing.T) {
	// Reference: run every shard sequentially, retain the results, and
	// aggregate them the old way.
	ref := testCampaign(t).withDefaults()
	ref.Spec.fill()
	var shards []ShardResult
	for i := 0; i < ref.shardCount(); i++ {
		shards = append(shards, ref.runShard(i))
	}
	want := resultJSON(t, ref.aggregateRetained(shards))

	for _, tc := range []struct {
		name       string
		workers    int
		checkpoint bool
	}{
		{"workers=1", 1, false},
		{"workers=4", 4, false},
		{"workers=16", 16, false},
		{"workers=4 checkpoint", 4, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := testCampaign(t)
			c.Workers = tc.workers
			if tc.checkpoint {
				c.CheckpointPath = filepath.Join(t.TempDir(), "ck.json")
			}
			res, err := c.Run()
			if err != nil {
				t.Fatal(err)
			}
			if got := resultJSON(t, res); !bytes.Equal(got, want) {
				t.Errorf("streaming aggregate differs from retained reference:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestStreamingResumeMatchesRetained replays an interrupted campaign —
// half the shards pre-folded from a checkpoint, half run live — against
// the retained reference.
func TestStreamingResumeMatchesRetained(t *testing.T) {
	ref := testCampaign(t).withDefaults()
	ref.Spec.fill()
	total := ref.shardCount()
	var shards []ShardResult
	for i := 0; i < total; i++ {
		shards = append(shards, ref.runShard(i))
	}
	want := resultJSON(t, ref.aggregateRetained(shards))

	dir := t.TempDir()
	path := filepath.Join(dir, "ck.json")
	interrupted := testCampaign(t).withDefaults()
	interrupted.Spec.fill()
	g := interrupted.newAggregator(0)
	for _, s := range shards[:total/2] {
		g.add(s)
	}
	ck := newCheckpointer(path, interrupted.identity())
	if err := ck.save(g.partial()); err != nil {
		t.Fatal(err)
	}

	resumed := testCampaign(t)
	resumed.Workers = 3
	resumed.CheckpointPath = path
	res, err := resumed.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := resultJSON(t, res); !bytes.Equal(got, want) {
		t.Errorf("resumed streaming aggregate differs from retained reference:\n got %s\nwant %s", got, want)
	}
}

// TestAggregatorReordersShards feeds shard results to the aggregator in a
// scrambled completion order and expects the in-order fold.
func TestAggregatorReordersShards(t *testing.T) {
	c := testCampaign(t).withDefaults()
	c.Spec.fill()
	total := c.shardCount()
	shards := make([]ShardResult, total)
	for i := 0; i < total; i++ {
		shards[i] = c.runShard(i)
	}
	want := resultJSON(t, c.aggregateRetained(shards))

	// Worst case: shard 0 lands last, so everything buffers in the window.
	g := c.newAggregator(0)
	for i := total - 1; i >= 0; i-- {
		g.add(shards[i])
	}
	if len(g.window) != 0 {
		t.Fatalf("reorder window not drained: %d buffered", len(g.window))
	}
	if got := resultJSON(t, g.finish()); !bytes.Equal(got, want) {
		t.Errorf("scrambled-order aggregate differs:\n got %s\nwant %s", got, want)
	}
}
