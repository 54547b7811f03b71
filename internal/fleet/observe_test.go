package fleet

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// observeRun runs the test campaign with four workers, so shards land out
// of order, and an observer, and checks the observer contract on every
// call it saw:
//
//   - only a resumed run's first call has Resumed set, and it carries the
//     checkpoint's shards;
//   - each later call adds exactly one shard to those already covered;
//   - with a checkpoint, every call follows its save: the file holds the
//     call's Partial;
//   - the last call covers the whole range, and its folded metrics are
//     the result's;
//   - the result is byte-identical to a run without an observer.
//
// With resumed > 0 the run starts from a checkpoint holding the BACK
// resumed shards of the campaign and none of the front, so the
// live/resumed accounting cannot pass by accident. observeRun returns the
// calls and, index-aligned, the shard each one added (-1 for the resumed
// call).
func observeRun(t *testing.T, checkpoint bool, resumed int) ([]Progress, []int) {
	t.Helper()
	plain := testCampaign(t)
	want, err := plain.Run()
	if err != nil {
		t.Fatal(err)
	}
	total := plain.withDefaults().shardCount()

	c := testCampaign(t)
	c.Workers = 4
	if checkpoint {
		c.CheckpointPath = filepath.Join(t.TempDir(), "ck.json")
	}
	if resumed > 0 {
		prep := c.withDefaults()
		prep.Spec.fill()
		g := newAggregator()
		for idx := total - resumed; idx < total; idx++ {
			if err := g.absorb(prep.runShard(idx)); err != nil {
				t.Fatal(err)
			}
		}
		if err := newCheckpointer(c.CheckpointPath, prep.identity()).save(g.partial()); err != nil {
			t.Fatal(err)
		}
	}

	var calls []Progress
	c.Observe = func(pr Progress) {
		if checkpoint {
			data, err := os.ReadFile(c.CheckpointPath)
			if err != nil {
				t.Fatal(err)
			}
			var f checkpointFile
			if err := json.Unmarshal(data, &f); err != nil {
				t.Fatal(err)
			}
			if saved, seen := marshal(t, f.Partial), marshal(t, pr.Partial); !bytes.Equal(saved, seen) {
				t.Errorf("call %d does not follow its save:\nsaved %s\nseen  %s", len(calls), saved, seen)
			}
		}
		calls = append(calls, pr)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resultJSON(t, res), resultJSON(t, want)) {
		t.Error("the observer changed the result")
	}

	live := total - resumed
	if resumed > 0 {
		live++
	}
	if len(calls) != live {
		t.Fatalf("%d calls, want %d", len(calls), live)
	}
	added := make([]int, len(calls))
	prev := map[int]bool{}
	for i, pr := range calls {
		if pr.Total != total {
			t.Errorf("call %d: total %d, want %d", i, pr.Total, total)
		}
		first := i == 0 && resumed > 0
		if pr.Resumed != first {
			t.Errorf("call %d: Resumed = %v", i, pr.Resumed)
		}
		cur := covered(pr.Partial)
		if len(cur) != pr.Partial.Shards() {
			t.Errorf("call %d: %d shard indices for %d shards", i, len(cur), pr.Partial.Shards())
		}
		if first {
			if want := []Span{{First: total - resumed, Last: total}}; !reflect.DeepEqual(pr.Partial.Spans, want) {
				t.Errorf("resumed call holds %v, want %v", pr.Partial.Spans, want)
			}
			added[i] = -1
			prev = cur
			continue
		}
		var fresh []int
		for idx := range cur {
			if !prev[idx] {
				fresh = append(fresh, idx)
			}
		}
		sort.Ints(fresh)
		if len(fresh) != 1 || len(cur) != len(prev)+1 {
			t.Fatalf("call %d covers %d shards after %d, new %v", i, len(cur), len(prev), fresh)
		}
		added[i] = fresh[0]
		prev = cur
	}
	last := calls[len(calls)-1].Partial
	if want := []Span{{First: 0, Last: total}}; !reflect.DeepEqual(last.Spans, want) || last.Homes() != c.Homes {
		t.Errorf("last call: spans %v, %d homes; want %v, %d", last.Spans, last.Homes(), want, c.Homes)
	}
	if got, want := resultJSON(t, Result{Metrics: last.Metrics}), resultJSON(t, Result{Metrics: res.Metrics}); !bytes.Equal(got, want) {
		t.Error("last call's metrics differ from Result.Metrics")
	}
	return calls, added
}

// covered is the set of shard indices a partial holds.
func covered(p Partial) map[int]bool {
	set := make(map[int]bool, p.Shards())
	for _, s := range p.Spans {
		for idx := s.First; idx < s.Last; idx++ {
			set[idx] = true
		}
	}
	return set
}

// TestOnShardObservesEveryShard: on a fresh run without a checkpoint the
// observer sees every shard land exactly once, one per call, and
// attaching it does not change the result.
func TestOnShardObservesEveryShard(t *testing.T) {
	calls, added := observeRun(t, false, 0)
	seen := make(map[int]bool, len(added))
	for _, idx := range added {
		seen[idx] = true
	}
	if len(seen) != len(calls) {
		t.Fatalf("%d calls added %d distinct shards", len(calls), len(seen))
	}
}

// TestOnResumeDeliversCheckpointedState: on resume, the checkpoint's
// partial aggregate arrives once, as the first call with Resumed set,
// before any live shard; every later call then adds one live shard, never
// one the checkpoint already held, and the final result matches an
// uninterrupted run. Every call follows its checkpoint save.
func TestOnResumeDeliversCheckpointedState(t *testing.T) {
	total := testCampaign(t).withDefaults().shardCount()
	resumed := total / 2
	calls, added := observeRun(t, true, resumed)
	for idx := range covered(calls[0].Partial) {
		if idx < total-resumed {
			t.Errorf("resumed call covers shard %d, which the checkpoint did not hold", idx)
		}
	}
	for i, idx := range added[1:] {
		if idx >= total-resumed {
			t.Errorf("call %d delivered checkpointed shard %d as live work", i+1, idx)
		}
	}
}

// TestOnResumeNotCalledFresh: a fresh run with a checkpoint path but no
// file yet never makes a Resumed call (observeRun checks every call), and
// every call still follows its save. The run without a checkpoint path is
// TestOnShardObservesEveryShard's.
func TestOnResumeNotCalledFresh(t *testing.T) {
	total := testCampaign(t).withDefaults().shardCount()
	if calls, _ := observeRun(t, true, 0); len(calls) != total {
		t.Fatalf("%d calls, want %d", len(calls), total)
	}
}

// TestCampaignExternalAccumulator checks what a live /metrics scrape
// reads: every call's metrics are exactly the aggregate of the shards
// that have landed, never ahead of them, and an observer that keeps a
// Partial keeps that value after the run goes on. The last call's metrics
// are Result.Metrics (observeRun). The campaign always owns its
// accumulator, so there is no caller-supplied one to check for freshness.
func TestCampaignExternalAccumulator(t *testing.T) {
	ref := testCampaign(t).withDefaults()
	ref.Spec.fill()
	shards := shardPartials(ref)

	calls, _ := observeRun(t, false, 0)
	for i, pr := range calls {
		var landed []Partial
		for idx, s := range shards {
			if pr.Partial.holds(idx) {
				landed = append(landed, s)
			}
		}
		got := resultJSON(t, Result{Metrics: pr.Partial.Metrics})
		want := resultJSON(t, Result{Metrics: ref.aggregateRetained(landed).Metrics})
		if !bytes.Equal(got, want) {
			t.Errorf("call %d: metrics differ from the aggregate of the shards %v:\n got %s\nwant %s", i, pr.Partial.Spans, got, want)
		}
	}
}

func marshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
