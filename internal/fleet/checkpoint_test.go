package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// gappedPartial builds a real partial holding shards 0 and 2 — the
// checkpoint of a run whose shard 1 has not landed — the starting point
// the corruption table below mutates.
func gappedPartial(t *testing.T, c Campaign) Partial {
	t.Helper()
	g := newAggregator()
	for _, idx := range []int{2, 0} {
		if err := g.absorb(c.runShard(idx)); err != nil {
			t.Fatal(err)
		}
	}
	p := g.partial()
	if want := []Span{{First: 0, Last: 1}, {First: 2, Last: 3}}; !reflect.DeepEqual(p.Spans, want) {
		t.Fatalf("fixture partial holds %v, want %v", p.Spans, want)
	}
	return p
}

// TestCheckpointLoadRejectsCorruptPartials: load must hard-error — naming
// the offending shard or home — on structurally invalid partials instead
// of silently dropping or last-one-wins'ing entries, which would quietly
// change results.
func TestCheckpointLoadRejectsCorruptPartials(t *testing.T) {
	c := testCampaign(t).withDefaults()
	c.Spec.fill()
	total := c.shardCount()
	base := gappedPartial(t, c)

	for _, tc := range []struct {
		name    string
		spans   []Span
		errors  []HomeError
		wantErr string
	}{
		{"duplicate span", []Span{{0, 1}, {0, 1}}, nil, "holds shard 0 twice"},
		{"overlapping spans", []Span{{0, 3}, {2, 4}}, nil, "holds shard 2 twice"},
		{"touching spans", []Span{{0, 1}, {1, 3}}, nil, "spans touch at shard 1"},
		{"unsorted spans", []Span{{2, 3}, {0, 1}}, nil, "spans out of order at shard 0"},
		{"empty span", []Span{{0, 1}, {2, 2}}, nil, "span [2,2) is empty"},
		{"span out of range", []Span{{0, 1}, {total, total + 1}}, nil, "outside the campaign's 6 shards"},
		{"span beyond campaign", []Span{{0, 1}, {2, total + 1}}, nil, "outside the campaign's 6 shards"},
		{"negative start", []Span{{-1, 1}, {2, 3}}, nil, "span [-1,1) lies outside"},
		{"unsorted errors", base.Spans, []HomeError{{Home: 9, Err: "b"}, {Home: 2, Err: "a"}}, "errors out of home order at home 2"},
		{"duplicate error home", base.Spans, []HomeError{{Home: 2, Err: "a"}, {Home: 2, Err: "b"}}, "errors out of home order at home 2"},
		// Counts for shards 0 and 2 under a span list that no longer holds
		// shard 2, or holds nothing: resuming either would count homes
		// twice.
		{"cut spans", []Span{{0, 1}}, nil, "partial counts 8 homes, but its spans cover 4"},
		{"no spans full counts", nil, nil, "partial counts 8 homes, but its spans cover 0"},
		{"error outside spans", base.Spans, []HomeError{{Home: 2, Err: "a"}, {Home: 5, Err: "b"}}, "error for home 5, outside its spans"},
		{"negative error home", base.Spans, []HomeError{{Home: -1, Err: "a"}}, "error for home -1, outside its spans"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := base
			bad.Spans, bad.Errors = tc.spans, tc.errors
			expectLoadError(t, c, bad, tc.wantErr)
		})
	}
	t.Run("metric sums misaligned", func(t *testing.T) {
		bad := base
		bad.MetricSums = bad.MetricSums[:len(bad.MetricSums)-1]
		expectLoadError(t, c, bad, "exact metric sums")
	})
	// In a 22-home campaign the last shard holds homes 20 and 21 only, so
	// an error for home 22 lies outside it although 22/4 is that shard.
	t.Run("error past the last home", func(t *testing.T) {
		short := c
		short.Homes = 22
		bad := short.runShard(5)
		bad.Errors = []HomeError{{Home: 22, Err: "a"}}
		expectLoadError(t, short, bad, "error for home 22, outside its spans")
	})
}

// expectLoadError saves p as c's checkpoint and requires loading it, for
// a resume and as a -partial file to merge, to fail with an error
// containing want.
func expectLoadError(t *testing.T, c Campaign, p Partial, want string) {
	t.Helper()
	ck := newCheckpointer(filepath.Join(t.TempDir(), "ck.json"), c.identity())
	if err := ck.save(p); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ck.load(c); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("load error = %v, want substring %q", err, want)
	}
	if _, _, err := LoadPartials([]string{ck.path}); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("LoadPartials error = %v, want substring %q", err, want)
	}
}

// TestCheckpointRejectsOlderVersions: a file an earlier build wrote, v1 to
// v6, each in the shape that build wrote, is refused by its version with
// one message naming the file, its version and this build's. Read as this
// version, the older shapes would hold no shards (v1 to v5) or would bring
// tallies and an alarm count that nothing reads any more (v6), so decoding,
// merging one as a -partial file and resuming one as a checkpoint all
// fail before the body is looked at.
func TestCheckpointRejectsOlderVersions(t *testing.T) {
	c := testCampaign(t).withDefaults()
	c.Spec.fill()
	shard := c.runShard(0)
	tallies := []map[string]any{{"model": "C1", "trials": 1, "successes": 1, "delaySumSecs": 45.0, "maxDelaySecs": 45.0}}
	// v2 to v5: a folded prefix [start, watermark) plus a reorder window,
	// with errors as bare strings.
	windowed := map[string]any{
		"start": 0, "watermark": 1,
		"homesAttacked": shard.HomesAttacked, "homesNoTarget": shard.HomesNoTarget, "homesFailed": shard.HomesFailed,
		"alarms": 0, "errors": []string{"home 3 failed"}, "tallies": tallies,
		"metrics": shard.Metrics, "metricSums": shard.MetricSums,
	}
	// v6: this version's spans and keyed errors, plus tallies and alarms.
	spanned := map[string]any{
		"spans":         shard.Spans,
		"homesAttacked": shard.HomesAttacked, "homesNoTarget": shard.HomesNoTarget, "homesFailed": shard.HomesFailed,
		"alarms": 0, "errors": []HomeError{{Home: 3, Err: "home 3 failed"}}, "tallies": tallies,
		"metrics": shard.Metrics, "metricSums": shard.MetricSums,
	}
	for _, tc := range []struct {
		version int
		key     string
		body    any
	}{
		{1, "shards", []map[string]int{{"index": 0}}},
		{2, "partial", windowed},
		{3, "partial", windowed},
		{4, "partial", windowed},
		{5, "partial", windowed},
		{6, "partial", spanned},
	} {
		t.Run(fmt.Sprintf("v%d", tc.version), func(t *testing.T) {
			rejectsOldCheckpoint(t, c, map[string]any{
				"version":     tc.version,
				"fingerprint": c.identity().fingerprint(),
				"identity":    c.identity(),
				tc.key:        tc.body,
			}, fmt.Sprintf("was written by an earlier build (v%d), and this build reads v%d only — finish the campaign with the build that wrote it, or delete the file", tc.version, checkpointVersion))
		})
	}
}

// rejectsOldCheckpoint writes file and requires decoding, merging it as a
// -partial file and resuming c from it to fail with an error naming the
// file and containing cause.
func rejectsOldCheckpoint(t *testing.T, c Campaign, file any, cause string) {
	t.Helper()
	data, err := json.Marshal(file)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "old.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	want := "checkpoint " + path + " " + cause
	if _, err := decodeCheckpoint(data, path); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("decode error = %v, want %q", err, want)
	}
	if _, _, err := LoadPartials([]string{path}); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("partial merge error = %v, want %q", err, want)
	}
	c.CheckpointPath = path
	if _, err := c.Run(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Run resumed the checkpoint: %v", err)
	}
}

// TestCheckpointRejectsUnknownVersionAndGarbage rounds out decode errors.
func TestCheckpointRejectsUnknownVersionAndGarbage(t *testing.T) {
	c := testCampaign(t).withDefaults()
	c.Spec.fill()
	ck := newCheckpointer(filepath.Join(t.TempDir(), "ck.json"), c.identity())
	next := checkpointVersion + 1
	if err := os.WriteFile(ck.path, []byte(fmt.Sprintf(`{"version":%d}`, next)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ck.load(c); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d, want %d", next, checkpointVersion)) {
		t.Fatalf("unknown version error = %v", err)
	}
	if err := os.WriteFile(ck.path, []byte(`{"version":`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ck.load(c); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("truncated checkpoint error = %v", err)
	}
}

// TestKillAndResumeEveryShard interrupts a campaign after every k-th
// checkpoint save and resumes each interruption to completion: all of
// them must reproduce the uninterrupted result byte-for-byte, and every
// checkpoint along the way must hold exactly the shards landed so far, as
// one span.
func TestKillAndResumeEveryShard(t *testing.T) {
	plain := testCampaign(t)
	want, err := plain.Run()
	if err != nil {
		t.Fatal(err)
	}
	wantJSON := resultJSON(t, want)

	// Workers=1 makes the save sequence deterministic: save k holds
	// exactly shards [0,k+1).
	run := testCampaign(t)
	run.Workers = 1
	run.CheckpointPath = filepath.Join(t.TempDir(), "ck.json")
	var snapshots [][]byte
	run.Observe = func(Progress) {
		// Saves happen before Observe, so this reads the state just written.
		data, err := os.ReadFile(run.CheckpointPath)
		if err != nil {
			t.Fatal(err)
		}
		snapshots = append(snapshots, data)
	}
	if _, err := run.Run(); err != nil {
		t.Fatal(err)
	}
	total := plain.withDefaults().shardCount()
	if len(snapshots) != total {
		t.Fatalf("captured %d checkpoints, want %d", len(snapshots), total)
	}

	for k, snap := range snapshots {
		var f checkpointFile
		if err := json.Unmarshal(snap, &f); err != nil {
			t.Fatalf("checkpoint %d: %v", k, err)
		}
		if want := []Span{{First: 0, Last: k + 1}}; !reflect.DeepEqual(f.Partial.Spans, want) {
			t.Fatalf("checkpoint %d holds %v, want %v", k, f.Partial.Spans, want)
		}

		// Kill here and resume: byte-identical final result, for every k,
		// with a different worker count than the interrupted process.
		resume := testCampaign(t)
		resume.Workers = 3
		resume.CheckpointPath = filepath.Join(t.TempDir(), "ck.json")
		if err := os.WriteFile(resume.CheckpointPath, snap, 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := resume.Run()
		if err != nil {
			t.Fatalf("resume after shard %d: %v", k+1, err)
		}
		if !bytes.Equal(resultJSON(t, res), wantJSON) {
			t.Errorf("resume after shard %d differs from uninterrupted run", k+1)
		}
	}
}

// TestCheckpointSizeBoundedByWindow pins the O(aggregate) claim with
// numbers, not eyeballs: quadrupling the shard count must not come close
// to quadrupling the finished checkpoint. The aggregate's label space
// saturates once every device model has appeared, so past that point the
// file size is flat in completed shards — the v1 format retained every
// shard result (~O(done) entries, each with its own metrics snapshot) and
// grew linearly.
func TestCheckpointSizeBoundedByWindow(t *testing.T) {
	size := func(homes int) int {
		c := testCampaign(t)
		c.Homes = homes
		c.CheckpointPath = filepath.Join(t.TempDir(), "ck.json")
		if _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(c.CheckpointPath)
		if err != nil {
			t.Fatal(err)
		}
		return len(data)
	}
	base, quad := size(24), size(96) // 6 shards vs 24
	if quad > base+base/2 {
		t.Fatalf("checkpoint grows with completed shards: %d bytes at 24 shards vs %d at 6 — not O(aggregate)", quad, base)
	}
}

// FuzzCheckpointDecode throws arbitrary bytes at the checkpoint decoder:
// it must never panic, and anything it accepts must be the current
// version and survive structural validation without panicking.
func FuzzCheckpointDecode(f *testing.F) {
	spec := DefaultSpec()
	spec.Trials = 1
	c := Campaign{Spec: spec, Homes: 24, ShardSize: 4, Seed: 7}.withDefaults()
	c.Spec.fill()
	g := newAggregator()
	for _, idx := range []int{2, 0} {
		if err := g.absorb(c.runShard(idx)); err != nil {
			f.Fatal(err)
		}
	}
	valid := checkpointFile{
		Version:     checkpointVersion,
		Fingerprint: c.identity().fingerprint(),
		Identity:    c.identity(),
		Partial:     g.partial(),
	}
	seed, err := json.Marshal(valid)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"version":1,"shards":[{"index":0}]}`))
	f.Add([]byte(`{"version":2,"partial":{}}`))
	f.Add([]byte(`{"version":3,"partial":{}}`))
	f.Add([]byte(fmt.Sprintf(`{"version":%d,"partial":{"spans":[{"first":3,"last":1},{"first":-2,"last":9}],"errors":[{"home":4},{"home":1}]}}`, checkpointVersion)))
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"version":5,"partial":{"watermark":1,"window":[{"index":3}]}}`))
	f.Add([]byte(`{"version":6,"partial":{"spans":[{"first":0,"last":1}],"homesAttacked":4,"alarms":2,"tallies":[{"model":"C1","trials":4}]}}`))
	f.Add([]byte(fmt.Sprintf(`{"version":%d,"partial":{"spans":[{"first":0,"last":1}],"homesAttacked":24,"errors":[{"home":9}]}}`, checkpointVersion)))
	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := decodeCheckpoint(data, "fuzz-input")
		if err != nil {
			return
		}
		if file.Version != checkpointVersion {
			t.Fatalf("decoder accepted version %d", file.Version)
		}
		// Structural validation must classify, not crash, whatever decoded.
		_ = file.Partial.validate(c)
	})
}
