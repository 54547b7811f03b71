package fleet

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
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
	want := resultJSON(t, ref.aggregateRetained(shardPartials(ref)))

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
				if want := []Span{{First: tc.bounds[i], Last: tc.bounds[i+1]}}; !reflect.DeepEqual(p.Spans, want) {
					t.Fatalf("range %v partial holds %v", want, p.Spans)
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

// TestMergePartialsRejects: a missing shard, a shard held twice, a partial
// whose counts do not match its spans and an empty partial list fail
// loudly, naming the shard — merging them would fabricate results. Gaps
// between ranges, and an interrupted range, merge once other partials
// fill them, in any order.
func TestMergePartialsRejects(t *testing.T) {
	c := testCampaign(t)
	ranges := map[string]Partial{}
	for _, b := range [][2]int{{0, 2}, {0, 3}, {2, 3}, {2, 4}, {2, 6}, {3, 6}, {4, 5}, {4, 6}, {0, 6}} {
		p, err := c.RunRange(b[0], b[1])
		if err != nil {
			t.Fatal(err)
		}
		ranges[key(b[0], b[1])] = p
	}
	// A [2,6) worker interrupted with shards 2, 3 and 5 landed and shard
	// 4 still running: the checkpoint it left behind.
	prep := c.withDefaults()
	prep.Spec.fill()
	g := newAggregator()
	for _, idx := range []int{5, 2, 3} {
		if err := g.absorb(prep.runShard(idx)); err != nil {
			t.Fatal(err)
		}
	}
	interrupted := g.partial()
	// The whole campaign's counts under spans cut to shard 0, and under
	// none: either would count homes twice if it merged.
	cut, unspanned := ranges[key(0, 6)], ranges[key(0, 6)]
	cut.Spans, unspanned.Spans = []Span{{First: 0, Last: 1}}, nil

	for _, tc := range []struct {
		name    string
		parts   []Partial
		wantErr string
	}{
		{"empty", nil, "no partials"},
		{"gap", []Partial{ranges[key(0, 2)], ranges[key(3, 6)]}, "lack shard 2 "},
		{"overlap", []Partial{ranges[key(0, 3)], ranges[key(2, 6)]}, "shard 2 is held twice"},
		{"missing head", []Partial{ranges[key(2, 6)]}, "lack shard 0 "},
		{"missing tail", []Partial{ranges[key(0, 2)], ranges[key(2, 4)]}, "lack shard 4 "},
		{"duplicate range", []Partial{ranges[key(0, 2)], ranges[key(0, 2)], ranges[key(2, 6)]}, "shard 0 is held twice"},
		{"interrupted range", []Partial{ranges[key(0, 2)], interrupted}, "lack shard 4 "},
		{"cut spans", []Partial{cut, ranges[key(2, 6)]}, "partial counts 24 homes, but its spans cover 4"},
		{"no spans full counts", []Partial{ranges[key(0, 6)], unspanned}, "partial counts 24 homes, but its spans cover 0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := c.MergePartials(tc.parts)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("MergePartials error = %v, want substring %q", err, tc.wantErr)
			}
		})
	}

	want, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, parts := range [][]Partial{
		{ranges[key(0, 3)], ranges[key(3, 6)]},
		{ranges[key(3, 6)], ranges[key(0, 2)], ranges[key(2, 3)]},
		{interrupted, ranges[key(0, 2)], ranges[key(4, 5)]},
	} {
		res, err := c.MergePartials(parts)
		if err != nil {
			t.Fatalf("valid merge rejected: %v", err)
		}
		if !bytes.Equal(resultJSON(t, res), resultJSON(t, want)) {
			t.Errorf("merge of %d partials differs from a single-process run", len(parts))
		}
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

// TestRunRangeCheckpointResume: a range worker resumes from any
// checkpoint whose shards lie inside its range — its own interrupted one,
// or a narrower range's — and writes the partial an uninterrupted worker
// writes. A checkpoint holding a shard outside the range is refused by
// name.
func TestRunRangeCheckpointResume(t *testing.T) {
	clean := testCampaign(t)
	rangeJSON := func(first, last int) []byte {
		t.Helper()
		p, err := clean.RunRange(first, last)
		if err != nil {
			t.Fatal(err)
		}
		return marshal(t, p)
	}

	// Interrupted worker: one shard of the range landed, then killed.
	c := testCampaign(t)
	c.CheckpointPath = filepath.Join(t.TempDir(), "ck.json")
	prep := c.withDefaults()
	prep.Spec.fill()
	if err := newCheckpointer(c.CheckpointPath, prep.identity()).save(prep.runShard(2)); err != nil {
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
	if got, want := marshal(t, p), rangeJSON(2, 5); !bytes.Equal(got, want) {
		t.Errorf("resumed range partial differs from uninterrupted worker:\n got %s\nwant %s", got, want)
	}

	// The checkpoint now holds [2,5): a range that does not contain it is
	// refused, naming the shards.
	wrong := testCampaign(t)
	wrong.CheckpointPath = c.CheckpointPath
	for _, b := range [][2]int{{3, 6}, {0, 4}} {
		want := fmt.Sprintf("holds shards [2,5), outside this run's range [%d,%d)", b[0], b[1])
		if _, err := wrong.RunRange(b[0], b[1]); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("range [%d,%d) resume error = %v, want %q", b[0], b[1], err, want)
		}
	}

	// A wider range resumes from the narrower range's checkpoint.
	p, err = wrong.RunRange(0, 6)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := marshal(t, p), rangeJSON(0, 6); !bytes.Equal(got, want) {
		t.Errorf("wider range resumed from a narrower checkpoint differs from an uninterrupted worker:\n got %s\nwant %s", got, want)
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
