package fleet

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func testCampaign(t *testing.T) Campaign {
	t.Helper()
	spec := DefaultSpec()
	spec.Trials = 1
	return Campaign{Spec: spec, Homes: 24, ShardSize: 4, Seed: 7}
}

func resultJSON(t *testing.T, r Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWorkerCountInvariance is the subsystem's core guarantee: the worker
// pool only changes wall-clock time. Results and checkpoints are
// byte-identical for 1, 4 and 8 workers.
func TestWorkerCountInvariance(t *testing.T) {
	var wantResult, wantCk []byte
	for _, workers := range []int{1, 4, 8} {
		c := testCampaign(t)
		c.Workers = workers
		c.CheckpointPath = filepath.Join(t.TempDir(), "ck.json")
		res, err := c.Run()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.TotalTrials == 0 {
			t.Fatalf("workers=%d: campaign ran no trials", workers)
		}
		gotResult := resultJSON(t, res)
		gotCk, err := os.ReadFile(c.CheckpointPath)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if wantResult == nil {
			wantResult, wantCk = gotResult, gotCk
			continue
		}
		if !bytes.Equal(gotResult, wantResult) {
			t.Errorf("workers=%d: result differs from workers=1", workers)
		}
		if !bytes.Equal(gotCk, wantCk) {
			t.Errorf("workers=%d: checkpoint differs from workers=1", workers)
		}
	}
}

// TestResumeEqualsUninterrupted simulates an interrupted campaign: only
// the first half of the shards are checkpointed, then a fresh Run resumes
// from that state. The resumed result and final checkpoint must be
// byte-identical to an uninterrupted run's.
func TestResumeEqualsUninterrupted(t *testing.T) {
	full := testCampaign(t)
	full.Workers = 2
	full.CheckpointPath = filepath.Join(t.TempDir(), "ck.json")
	fullRes, err := full.Run()
	if err != nil {
		t.Fatal(err)
	}
	fullCk, err := os.ReadFile(full.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted twin: checkpoint holding the partial aggregate of shards
	// 0..2 of 6, as if the process died mid-campaign.
	interrupted := testCampaign(t)
	interrupted.Workers = 3
	interrupted.CheckpointPath = filepath.Join(t.TempDir(), "ck.json")
	interrupted = interrupted.withDefaults()
	interrupted.Spec.fill()
	g := newAggregator()
	for idx := 0; idx < interrupted.shardCount()/2; idx++ {
		if err := g.absorb(interrupted.runShard(idx)); err != nil {
			t.Fatal(err)
		}
	}
	ck := newCheckpointer(interrupted.CheckpointPath, interrupted.identity())
	if err := ck.save(g.partial()); err != nil {
		t.Fatal(err)
	}

	resumedRes, err := interrupted.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resultJSON(t, resumedRes), resultJSON(t, fullRes)) {
		t.Error("resumed result differs from uninterrupted run")
	}
	resumedCk, err := os.ReadFile(interrupted.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumedCk, fullCk) {
		t.Error("resumed checkpoint differs from uninterrupted run")
	}
}

// TestShardSizeChangesIdentity: a different shard size is a different
// campaign for checkpointing purposes (shard results are per-shard merges,
// so mixing sizes would corrupt aggregation).
func TestShardSizeChangesIdentity(t *testing.T) {
	a := testCampaign(t).withDefaults()
	b := a
	b.ShardSize = 8
	if a.identity().fingerprint() == b.identity().fingerprint() {
		t.Fatal("shard size not part of campaign fingerprint")
	}
}
