package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// windowedPartial builds a real partial whose watermark sits at 1 with
// shard 2 parked in the reorder window (shard 1 never landed), the
// starting point the corruption table below mutates.
func windowedPartial(t *testing.T, c Campaign) Partial {
	t.Helper()
	g := c.newAggregator(0)
	g.add(c.runShard(0))
	g.add(c.runShard(2))
	p := g.partial()
	if p.Watermark != 1 || len(p.Window) != 1 {
		t.Fatalf("fixture partial watermark/window = %d/%d, want 1/1", p.Watermark, len(p.Window))
	}
	return p
}

// TestCheckpointLoadRejectsCorruptPartials: load must hard-error — naming
// the offending shard index — on structurally invalid partials instead of
// silently dropping or last-one-wins'ing entries, which would quietly
// change results.
func TestCheckpointLoadRejectsCorruptPartials(t *testing.T) {
	c := testCampaign(t).withDefaults()
	c.Spec.fill()
	total := c.shardCount()
	base := windowedPartial(t, c)

	for _, tc := range []struct {
		name    string
		mutate  func(p *Partial)
		wantErr string
	}{
		{
			"duplicate window index",
			func(p *Partial) { p.Window = append(p.Window, p.Window[0]) },
			"duplicate shard index 2",
		},
		{
			"window index below watermark",
			func(p *Partial) { p.Window[0].Index = 0 },
			"shard index 0 below the fold watermark 1",
		},
		{
			"window index equals watermark",
			func(p *Partial) { p.Window[0].Index = 1 },
			"shard index 1 equals the fold watermark",
		},
		{
			"window index out of range",
			func(p *Partial) { p.Window[0].Index = total },
			"out of range",
		},
		{
			"window out of order",
			func(p *Partial) {
				s := p.Window[0]
				s.Index = 4
				p.Window = append([]ShardResult{s}, p.Window[0])
			},
			"out of order at shard index 2",
		},
		{
			"watermark beyond campaign",
			func(p *Partial) { p.Watermark = total + 1; p.Window = nil },
			"claims folded shards",
		},
		{
			"negative start",
			func(p *Partial) { p.Start = -1 },
			"claims folded shards",
		},
		{
			"metric sums misaligned",
			func(p *Partial) { p.MetricSums = p.MetricSums[:len(p.MetricSums)-1] },
			"exact metric sums",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := base
			bad.Window = append([]ShardResult(nil), base.Window...)
			bad.MetricSums = append([]obs.FloatSum(nil), base.MetricSums...)
			tc.mutate(&bad)
			path := filepath.Join(t.TempDir(), "ck.json")
			ck := newCheckpointer(path, c.identity())
			if err := ck.save(bad); err != nil {
				t.Fatal(err)
			}
			_, _, err := ck.load(total)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("load error = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

// TestCheckpointRejectsV1: the old retain-every-shard format gets a
// specific migration message, not a generic version mismatch or a
// misleading structural error.
func TestCheckpointRejectsV1(t *testing.T) {
	c := testCampaign(t).withDefaults()
	c.Spec.fill()
	path := filepath.Join(t.TempDir(), "ck.json")
	v1 := map[string]interface{}{
		"version":     1,
		"fingerprint": c.identity().fingerprint(),
		"identity":    c.identity(),
		"shards":      []ShardResult{c.runShard(0)},
	}
	data, err := json.Marshal(v1)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	ck := newCheckpointer(path, c.identity())
	_, _, err = ck.load(c.shardCount())
	if err == nil || !strings.Contains(err.Error(), "v1 retain-every-shard format") {
		t.Fatalf("v1 checkpoint error = %v, want migration message", err)
	}

	c.CheckpointPath = path
	if _, err := c.Run(); err == nil || !strings.Contains(err.Error(), "v1") {
		t.Fatalf("Run accepted a v1 checkpoint: %v", err)
	}
}

// TestCheckpointRejectsV2: v2 files have v3's shape but hold homes
// simulated with the previous random streams. Resuming or merging one
// would silently mix two populations, so checkpoints and -partial files
// alike fail with an error naming the file and the cause.
func TestCheckpointRejectsV2(t *testing.T) {
	c := testCampaign(t).withDefaults()
	c.Spec.fill()
	g := c.newAggregator(0)
	g.add(c.runShard(0))
	rejectsOldCheckpoint(t, c, checkpointFile{
		Version:     2,
		Fingerprint: c.identity().fingerprint(),
		Identity:    c.identity(),
		Partial:     g.partial(),
	}, "was written with the previous random streams")
}

// TestCheckpointRejectsV3: v3 files hold this build's homes, but their
// identity carries the population-template key that v4 dropped, so the
// fingerprint they were saved under is not this build's. They fail by
// their version, with the cause named, before any fingerprint check.
func TestCheckpointRejectsV3(t *testing.T) {
	c := testCampaign(t).withDefaults()
	c.Spec.fill()
	g := c.newAggregator(0)
	g.add(c.runShard(0))
	rejectsOldCheckpoint(t, c, checkpointFile{
		Version:     3,
		Fingerprint: c.identity().fingerprint(),
		Identity:    c.identity(),
		Partial:     g.partial(),
	}, "was written by an earlier build (v3)")
}

// TestCheckpointRejectsV4: v4 files hold this build's homes and
// fingerprints, but every home's metrics carried the zero sniff_* counters
// of an attacker capture that nothing read. Resuming or merging one would
// put those series back into a result that delay and offline homes no
// longer report, so they fail by their version, with the cause named.
func TestCheckpointRejectsV4(t *testing.T) {
	c := testCampaign(t).withDefaults()
	c.Spec.fill()
	g := c.newAggregator(0)
	g.add(c.runShard(0))
	rejectsOldCheckpoint(t, c, checkpointFile{
		Version:     4,
		Fingerprint: c.identity().fingerprint(),
		Identity:    c.identity(),
		Partial:     g.partial(),
	}, "was written by an earlier build (v4)")
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
	if err := os.WriteFile(ck.path, []byte(`{"version":6}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ck.load(c.shardCount()); err == nil || !strings.Contains(err.Error(), "version 6, want 5") {
		t.Fatalf("unknown version error = %v", err)
	}
	if err := os.WriteFile(ck.path, []byte(`{"version":`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ck.load(c.shardCount()); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("truncated checkpoint error = %v", err)
	}
}

// TestKillAndResumeEveryShard interrupts a campaign after every k-th
// checkpoint save and resumes each interruption to completion: all of
// them must reproduce the uninterrupted result byte-for-byte, and every
// checkpoint along the way must stay compacted — no retained folded
// shards, file size flat in the number of completed shards (the v1 format
// grew linearly per save, O(shards²) over a campaign).
func TestKillAndResumeEveryShard(t *testing.T) {
	plain := testCampaign(t)
	want, err := plain.Run()
	if err != nil {
		t.Fatal(err)
	}
	wantJSON := resultJSON(t, want)

	// Workers=1 makes the save sequence deterministic: save k holds
	// exactly shards [0,k) folded, window empty.
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
		if f.Partial.Watermark != k+1 || len(f.Partial.Window) != 0 {
			t.Fatalf("checkpoint %d not compacted: watermark %d, %d retained shards",
				k, f.Partial.Watermark, len(f.Partial.Window))
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

// TestCheckpointSizeBoundedByWindow pins the O(window) claim with
// numbers, not eyeballs: quadrupling the shard count must not come close
// to quadrupling the finished checkpoint. The aggregate's label space
// saturates once every device model has appeared, so past that point the
// file size is flat in completed shards — the v1 format retained every
// ShardResult (~O(done) entries, each with its own metrics snapshot) and
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
		t.Fatalf("checkpoint grows with completed shards: %d bytes at 24 shards vs %d at 6 — not O(window)", quad, base)
	}
}

// FuzzCheckpointDecode throws arbitrary bytes at the checkpoint decoder:
// it must never panic, and anything it accepts must be version 5 and
// survive structural validation without panicking.
func FuzzCheckpointDecode(f *testing.F) {
	spec := DefaultSpec()
	spec.Trials = 1
	c := Campaign{Spec: spec, Homes: 24, ShardSize: 4, Seed: 7}.withDefaults()
	c.Spec.fill()
	g := c.newAggregator(0)
	g.add(c.runShard(0))
	g.add(c.runShard(2))
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
	f.Add([]byte(fmt.Sprintf(`{"version":%d,"partial":{"watermark":-3,"window":[{"index":9}]}}`, checkpointVersion)))
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := decodeCheckpoint(data, "fuzz-input")
		if err != nil {
			return
		}
		if file.Version != checkpointVersion {
			t.Fatalf("decoder accepted version %d", file.Version)
		}
		// Structural validation must classify, not crash, whatever decoded.
		_ = file.Partial.validate(6)
	})
}
