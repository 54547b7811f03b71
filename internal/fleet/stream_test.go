package fleet

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/obs"
)

// aggregateRetained is the retain-all-then-merge reference aggregation:
// fold the shard partials, in the order given, into the campaign result —
// counts added, errors appended, metrics combined by obs.Merge — without
// the aggregator. Run folds through an aggregator instead; the
// byte-identity tests compare the streaming, resumed and multi-process
// paths against this oracle.
func (c Campaign) aggregateRetained(shards []Partial) Result {
	var sum Partial
	snaps := make([]obs.Snapshot, 0, len(shards))
	for _, s := range shards {
		sum.HomesAttacked += s.HomesAttacked
		sum.HomesNoTarget += s.HomesNoTarget
		sum.HomesFailed += s.HomesFailed
		sum.Errors = append(sum.Errors, s.Errors...)
		snaps = append(snaps, s.Metrics)
	}
	sum.Metrics = obs.Merge(snaps...)
	return c.result(sum)
}

// shardPartials runs every shard of c, in index order, each on its own.
func shardPartials(c Campaign) []Partial {
	c = c.withDefaults()
	c.Spec.fill()
	shards := make([]Partial, c.shardCount())
	for i := range shards {
		shards[i] = c.runShard(i)
	}
	return shards
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
	want := resultJSON(t, ref.aggregateRetained(shardPartials(ref)))

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
// half the shards absorbed from a checkpoint, half run live — against
// the retained reference.
func TestStreamingResumeMatchesRetained(t *testing.T) {
	ref := testCampaign(t).withDefaults()
	ref.Spec.fill()
	shards := shardPartials(ref)
	want := resultJSON(t, ref.aggregateRetained(shards))

	path := filepath.Join(t.TempDir(), "ck.json")
	g := newAggregator()
	for _, s := range shards[:len(shards)/2] {
		if err := g.absorb(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := newCheckpointer(path, ref.identity()).save(g.partial()); err != nil {
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

// TestAggregatorReordersShards: shards absorbed in reverse order — shard
// 0 landing last — fold to the bytes of the retained reference, which
// folds them in index order.
func TestAggregatorReordersShards(t *testing.T) {
	c := testCampaign(t).withDefaults()
	c.Spec.fill()
	shards := shardPartials(c)
	want := resultJSON(t, c.aggregateRetained(shards))

	g := newAggregator()
	for i := len(shards) - 1; i >= 0; i-- {
		if err := g.absorb(shards[i]); err != nil {
			t.Fatal(err)
		}
	}
	if got := resultJSON(t, c.result(g.partial())); !bytes.Equal(got, want) {
		t.Errorf("reverse-order aggregate differs:\n got %s\nwant %s", got, want)
	}
}

// TestAggregatorErrorsByHome: shards whose every home failed land in
// scrambled order. Each keeps its first maxShardErrors errors, and the
// result lists the kept errors in home order whatever order the shards
// landed in.
func TestAggregatorErrorsByHome(t *testing.T) {
	const size = 4
	shard := func(idx int) Partial {
		p := Partial{Spans: []Span{{First: idx, Last: idx + 1}}}
		for h := idx * size; h < (idx+1)*size; h++ {
			p.fail(h, fmt.Errorf("home %d", h))
		}
		return p
	}
	g := newAggregator()
	for _, idx := range []int{2, 0, 3, 1} {
		if err := g.absorb(shard(idx)); err != nil {
			t.Fatal(err)
		}
	}
	res := Campaign{Spec: DefaultSpec(), Homes: 4 * size, ShardSize: size}.result(g.partial())
	want := []string{
		"home 0", "home 1", "home 2",
		"home 4", "home 5", "home 6",
		"home 8", "home 9", "home 10",
		"home 12", "home 13", "home 14",
	}
	if !reflect.DeepEqual(res.Errors, want) || res.HomesFailed != 4*size {
		t.Errorf("errors %q, %d homes failed; want %q, %d", res.Errors, res.HomesFailed, want, 4*size)
	}
}

// TestAggregatorRefusesShardHeldTwice: a shard that lands twice, alone or
// inside a wider partial, is refused by name and leaves the aggregate as
// it was.
func TestAggregatorRefusesShardHeldTwice(t *testing.T) {
	g := newAggregator()
	for _, s := range []Span{{First: 0, Last: 2}, {First: 4, Last: 5}} {
		if err := g.absorb(Partial{Spans: []Span{s}, HomesAttacked: 1}); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		span  Span
		shard int
	}{{Span{1, 2}, 1}, {Span{2, 5}, 4}, {Span{3, 6}, 4}} {
		err := g.absorb(Partial{Spans: []Span{tc.span}, HomesAttacked: 1})
		if want := fmt.Sprintf("fleet: shard %d is held twice", tc.shard); err == nil || err.Error() != want {
			t.Errorf("absorb %v: error %v, want %q", tc.span, err, want)
		}
	}
	if p := g.partial(); !reflect.DeepEqual(p.Spans, []Span{{First: 0, Last: 2}, {First: 4, Last: 5}}) || p.HomesAttacked != 2 {
		t.Errorf("refused partials changed the aggregate: spans %v, %d homes", p.Spans, p.HomesAttacked)
	}
}
