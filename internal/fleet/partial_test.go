package fleet

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

// TestMergePartialsMatchesSingleProcess is the multi-process guarantee:
// split the shard range any way at all, run each range independently
// (with its own worker pool), merge the partials — the Result is
// byte-identical to a single-process Run and to the seed's
// retain-all-then-merge reference.
func TestMergePartialsMatchesSingleProcess(t *testing.T) {
	ref := testCampaign(t).withDefaults()
	ref.Spec.fill()
	total := ref.shardCount()
	var shards []ShardResult
	for i := 0; i < total; i++ {
		shards = append(shards, ref.runShard(i))
	}
	want := resultJSON(t, ref.aggregateRetained(shards))

	for _, tc := range []struct {
		name   string
		bounds []int // split points, e.g. {0,2,6} → ranges [0,2) [2,6)
	}{
		{"one range", []int{0, total}},
		{"single shard head", []int{0, 1, total}},
		{"even halves", []int{0, total / 2, total}},
		{"three ways", []int{0, 2, 4, total}},
		{"all singletons", []int{0, 1, 2, 3, 4, 5, total}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var parts []Partial
			for i := 0; i+1 < len(tc.bounds); i++ {
				worker := testCampaign(t)
				worker.Workers = 1 + i%3 // vary pool size across ranges
				p, err := worker.RunRange(tc.bounds[i], tc.bounds[i+1])
				if err != nil {
					t.Fatal(err)
				}
				if p.Start != tc.bounds[i] || p.Watermark != tc.bounds[i+1] || len(p.Window) != 0 {
					t.Fatalf("range [%d,%d) partial covers [%d,%d) with %d windowed",
						tc.bounds[i], tc.bounds[i+1], p.Start, p.Watermark, len(p.Window))
				}
				parts = append(parts, p)
			}
			// Merge order must not matter: feed ranges back-to-front.
			for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
				parts[i], parts[j] = parts[j], parts[i]
			}
			res, err := testCampaign(t).MergePartials(parts)
			if err != nil {
				t.Fatal(err)
			}
			if got := resultJSON(t, res); !bytes.Equal(got, want) {
				t.Errorf("merged result differs from single-process run:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestSaveLoadMergeRoundTrip walks the full CLI path in-process: range
// workers persist partials with SavePartial, LoadPartials reconstructs
// the campaign from the embedded identity alone, and the merge matches a
// plain Run byte-for-byte.
func TestSaveLoadMergeRoundTrip(t *testing.T) {
	plain := testCampaign(t)
	plainRes, err := plain.Run()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	total := plain.withDefaults().shardCount()
	var paths []string
	for i, b := range [][2]int{{0, 2}, {2, 4}, {4, total}} {
		worker := testCampaign(t)
		worker.Workers = 2
		p, err := worker.RunRange(b[0], b[1])
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "part"+string(rune('a'+i))+".json")
		if err := worker.SavePartial(path, p); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	mc, parts, err := LoadPartials(paths)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mc.MergePartials(parts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resultJSON(t, res), resultJSON(t, plainRes)) {
		t.Error("save/load/merge round trip differs from single-process run")
	}
}

// TestMergePartialsRejects: gaps, overlaps, missing tails, interrupted
// ranges and cross-campaign files must all fail loudly — merging them
// silently would fabricate results.
func TestMergePartialsRejects(t *testing.T) {
	c := testCampaign(t)
	ranges := map[string]Partial{}
	for _, b := range [][2]int{{0, 2}, {0, 3}, {2, 4}, {2, 6}, {3, 6}, {4, 6}} {
		p, err := c.RunRange(b[0], b[1])
		if err != nil {
			t.Fatal(err)
		}
		ranges[key(b[0], b[1])] = p
	}
	interrupted := ranges[key(2, 6)]
	interrupted.Watermark = 4
	interrupted.Window = []ShardResult{{Index: 5}}

	for _, tc := range []struct {
		name    string
		parts   []Partial
		wantErr string
	}{
		{"empty", nil, "no partials"},
		{"gap", []Partial{ranges[key(0, 2)], ranges[key(3, 6)]}, "contiguous"},
		{"overlap", []Partial{ranges[key(0, 3)], ranges[key(2, 6)]}, "contiguous"},
		{"missing head", []Partial{ranges[key(2, 6)]}, "contiguous"},
		{"missing tail", []Partial{ranges[key(0, 2)], ranges[key(2, 4)]}, "range is missing"},
		{"duplicate range", []Partial{ranges[key(0, 2)], ranges[key(0, 2)], ranges[key(2, 6)]}, "contiguous"},
		{"interrupted range", []Partial{ranges[key(0, 2)], interrupted}, "incomplete"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := c.MergePartials(tc.parts)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("MergePartials error = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
	if _, err := c.MergePartials([]Partial{ranges[key(0, 3)], ranges[key(3, 6)]}); err != nil {
		t.Fatalf("valid tiling rejected: %v", err)
	}
}

func key(a, b int) string { return string(rune('0'+a)) + ":" + string(rune('0'+b)) }

// TestLoadPartialsRejectsForeignFile: partials from different campaigns
// must not merge.
func TestLoadPartialsRejectsForeignFile(t *testing.T) {
	dir := t.TempDir()
	a := testCampaign(t)
	pa, err := a.RunRange(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	pathA := filepath.Join(dir, "a.json")
	if err := a.SavePartial(pathA, pa); err != nil {
		t.Fatal(err)
	}
	b := testCampaign(t)
	b.Seed = 99
	pb, err := b.RunRange(3, 6)
	if err != nil {
		t.Fatal(err)
	}
	pathB := filepath.Join(dir, "b.json")
	if err := b.SavePartial(pathB, pb); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadPartials([]string{pathA, pathB}); err == nil || !strings.Contains(err.Error(), "different campaign") {
		t.Fatalf("foreign partial accepted: %v", err)
	}
	if _, _, err := LoadPartials(nil); err == nil {
		t.Fatal("empty path list accepted")
	}
}

// TestRunRangeCheckpointResume: a range worker's checkpoint resumes that
// range — producing the identical partial file a never-interrupted worker
// writes — and a checkpoint from a different range is rejected by name.
func TestRunRangeCheckpointResume(t *testing.T) {
	clean := testCampaign(t)
	wantPartial, err := clean.RunRange(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(wantPartial)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted worker: one shard of the range folded, then killed.
	c := testCampaign(t)
	c.CheckpointPath = filepath.Join(t.TempDir(), "ck.json")
	prep := c.withDefaults()
	prep.Spec.fill()
	g := prep.newAggregator(2)
	g.add(prep.runShard(2))
	if err := newCheckpointer(c.CheckpointPath, prep.identity()).save(g.partial()); err != nil {
		t.Fatal(err)
	}
	var resumedFrom int
	c.Observe = func(pr Progress) {
		if pr.Resumed {
			resumedFrom = pr.Partial.Shards()
		}
	}
	p, err := c.RunRange(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if resumedFrom != 1 {
		t.Fatalf("resumed %d shards, want 1", resumedFrom)
	}
	got, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("resumed range partial differs from uninterrupted worker:\n got %s\nwant %s", got, want)
	}

	// The same checkpoint offered to the wrong range names the mismatch.
	wrong := testCampaign(t)
	wrong.CheckpointPath = c.CheckpointPath
	if _, err := wrong.RunRange(0, 5); err == nil || !strings.Contains(err.Error(), "starting at 2 but this run starts at 0") {
		t.Fatalf("wrong-range resume error = %v", err)
	}
	if _, err := wrong.RunRange(2, 3); err == nil || !strings.Contains(err.Error(), "beyond this run's range end") {
		t.Fatalf("short-range resume error = %v", err)
	}
}

// TestRunRangeRejectsBadBounds pins the range validation message.
func TestRunRangeRejectsBadBounds(t *testing.T) {
	c := testCampaign(t)
	for _, b := range [][2]int{{-1, 3}, {3, 3}, {4, 2}, {0, 7}} {
		if _, err := c.RunRange(b[0], b[1]); err == nil || !strings.Contains(err.Error(), "shard range") {
			t.Fatalf("RunRange(%d,%d) error = %v", b[0], b[1], err)
		}
	}
}
