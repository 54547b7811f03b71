package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// checkpointVersion guards the on-disk shape and the results it holds;
// bump it on an incompatible change to either. A change to any seeded
// random stream moves every home's results, and the identity below does
// not see it, so it needs a bump too.
// v1 retained every completed shard result (each save rewrote them all —
// O(shards²) I/O across a campaign); v2 persists a compacted mergeable
// Partial whose size is bounded by the reorder window; v3 has v2's shape,
// written with simtime's splitmix64 streams and the offline target fix; v4
// has v3's shape and homes, with the always-empty population-template key
// gone from the identity, which moves every fingerprint; v5 has v4's shape
// and homes, but only homes that sniff carry the three sniff_* counters in
// their metrics, so a v4 partial would put them back into a v5 result; v6
// has v5's homes, but a partial lists the shard spans it holds in place of
// v5's start, watermark and reorder window, and keys each error by its
// home; v7 has v6's homes and spans, but a partial holds no per-model
// tallies and no alarm count: its metrics, which gain the fleet_delay_ns
// gauge, are the only record of trial outcomes, and its home counts must
// match its spans.
const checkpointVersion = 7

// identity is the part of a campaign that must match for a checkpoint to
// be resumable: same spec, population and sharding → same shard results.
//
// Execution knobs that provably cannot change shard results stay out of
// the identity: Workers is pure scheduling. A knob may only be excluded
// here alongside a test proving resume-across-the-flag equals an
// uninterrupted run.
type identity struct {
	Spec      Spec  `json:"spec"`
	Homes     int   `json:"homes"`
	Seed      int64 `json:"seed"`
	ShardSize int   `json:"shardSize"`
}

func (c Campaign) identity() identity {
	return identity{
		Spec:      c.Spec,
		Homes:     c.Homes,
		Seed:      c.Seed,
		ShardSize: c.ShardSize,
	}
}

// fingerprint hashes the identity's canonical JSON.
func (id identity) fingerprint() string {
	b, err := json.Marshal(id)
	if err != nil {
		// identity contains only plain data; Marshal cannot fail.
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkpointFile is the on-disk resume state: the campaign fingerprint
// plus the partial aggregate. The same shape serves as a
// -shard-range worker's partial output file, so a completed campaign's
// checkpoint is directly mergeable.
type checkpointFile struct {
	Version     int      `json:"version"`
	Fingerprint string   `json:"fingerprint"`
	Identity    identity `json:"identity"`
	Partial     Partial  `json:"partial"`
}

// decodeCheckpoint version-checks and parses checkpoint/partial bytes.
// The version is read first, so an old file is refused by its version
// even where its shape no longer parses. Every older version gets one
// message; the checkpointVersion comment keeps what each one changed.
// Structural validation of the partial needs the campaign and stays with
// the callers.
func decodeCheckpoint(data []byte, path string) (checkpointFile, error) {
	var head struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return checkpointFile{}, fmt.Errorf("fleet: checkpoint %s is corrupt: %w", path, err)
	}
	switch {
	case head.Version == checkpointVersion:
	case head.Version >= 1 && head.Version < checkpointVersion:
		return checkpointFile{}, fmt.Errorf("fleet: checkpoint %s was written by an earlier build (v%d), and this build reads v%d only — finish the campaign with the build that wrote it, or delete the file to restart", path, head.Version, checkpointVersion)
	default:
		return checkpointFile{}, fmt.Errorf("fleet: checkpoint %s has version %d, want %d", path, head.Version, checkpointVersion)
	}
	var f checkpointFile
	if err := json.Unmarshal(data, &f); err != nil {
		return checkpointFile{}, fmt.Errorf("fleet: checkpoint %s is corrupt: %w", path, err)
	}
	return f, nil
}

// checkpointer persists one campaign's resumable partial aggregate.
type checkpointer struct {
	path string
	id   identity
	fp   string
}

func newCheckpointer(path string, id identity) *checkpointer {
	return &checkpointer{path: path, id: id, fp: id.fingerprint()}
}

// load reads the checkpoint, if any. A missing file is a fresh start; a
// file from a different campaign, a corrupt one, or one whose partial
// violates the span, count or error invariants is an error so a stale or
// hand-edited path never silently poisons the results. camp is the
// withDefaults()'d campaign the partial is validated against.
func (c *checkpointer) load(camp Campaign) (Partial, bool, error) {
	data, err := os.ReadFile(c.path)
	if errors.Is(err, fs.ErrNotExist) {
		return Partial{}, false, nil
	}
	if err != nil {
		return Partial{}, false, fmt.Errorf("fleet: read checkpoint: %w", err)
	}
	f, err := decodeCheckpoint(data, c.path)
	if err != nil {
		return Partial{}, false, err
	}
	if f.Fingerprint != c.fp {
		return Partial{}, false, fmt.Errorf("fleet: checkpoint %s belongs to a different campaign (spec/homes/seed/shard-size changed); delete it or pick another path", c.path)
	}
	if err := f.Partial.validate(camp); err != nil {
		return Partial{}, false, fmt.Errorf("fleet: checkpoint %s: %w", c.path, err)
	}
	return f.Partial, true, nil
}

// save atomically replaces the checkpoint with the partial. Cost is
// O(aggregate), not O(shards done) — the v1 format re-encoded every done
// shard on every save, O(shards²) over a campaign. Write-then-rename keeps a crash mid-save
// from ever leaving a truncated checkpoint behind.
func (c *checkpointer) save(p Partial) error {
	f := checkpointFile{
		Version:     checkpointVersion,
		Fingerprint: c.fp,
		Identity:    c.id,
		Partial:     p,
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return fmt.Errorf("fleet: encode checkpoint: %w", err)
	}
	data = append(data, '\n')
	dir := filepath.Dir(c.path)
	tmp, err := os.CreateTemp(dir, filepath.Base(c.path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("fleet: write checkpoint: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("fleet: write checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("fleet: write checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), c.path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("fleet: write checkpoint: %w", err)
	}
	return nil
}
