package fleet

import (
	"bytes"
	"encoding/json"
	"testing"
)

// replayCampaign targets the catalog classes whose direct-WiFi members
// carry the replay-relevant protection mix (legacy plugs, null-cipher
// thermostats and water sensors); enough homes that the sampler deals a
// vulnerable device into several of them.
func replayCampaign() Campaign {
	spec := DefaultSpec()
	spec.Name = "replay-mix"
	spec.Attack = AttackReplay
	spec.Targets = TargetSpec{Classes: []string{"plug", "thermostat", "water sensor"}, PerHome: 2}
	return Campaign{Spec: spec, Homes: 24, ShardSize: 4, Seed: 11}
}

// TestReplayCampaignWorkerInvariance extends the engine's core guarantee
// to the replay family: aggregated results are byte-identical for any
// worker count.
func TestReplayCampaignWorkerInvariance(t *testing.T) {
	var want []byte
	for _, workers := range []int{1, 4} {
		c := replayCampaign()
		c.Workers = workers
		res, err := c.Run()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.TotalTrials == 0 {
			t.Fatalf("workers=%d: campaign ran no trials", workers)
		}
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = buf.Bytes()
			continue
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("workers=%d: result differs from workers=1", workers)
		}
	}
}

// TestReplayCampaignOutcomes checks the family against ground truth: the
// legacy plugs (P3, P4) must replay successfully wherever they appear,
// the null-cipher thermostat (T1) and water sensor (W1) must land via the
// app path, and the protected models (P1/P2 seq-bound, K2-class defenses)
// must never produce a successful replay.
func TestReplayCampaignOutcomes(t *testing.T) {
	c := replayCampaign()
	c.Homes = 48
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	vulnerable := map[string]bool{"P3": true, "P4": true, "T1": true, "W1": true}
	seenVuln, seenProtected := false, false
	for _, tally := range res.PerModel {
		if vulnerable[tally.Model] {
			seenVuln = true
			if tally.Successes != tally.Trials {
				t.Errorf("%s: %d/%d replays landed, want all", tally.Model, tally.Successes, tally.Trials)
			}
			continue
		}
		seenProtected = true
		if tally.Successes != 0 {
			t.Errorf("%s: %d replays landed on a protected model", tally.Model, tally.Successes)
		}
		if tally.Trials == 0 {
			t.Errorf("%s: no trials recorded", tally.Model)
		}
	}
	if !seenVuln || !seenProtected {
		t.Fatalf("population missed a class: vulnerable=%v protected=%v (perModel %v)", seenVuln, seenProtected, res.PerModel)
	}
}

// TestReplaySpecRoundTrip pins the spec surface: defaults fill, bad modes
// and misplaced replay blocks are rejected, and non-replay specs marshal
// without any replay field (checkpoint fingerprint compatibility).
func TestReplaySpecRoundTrip(t *testing.T) {
	s, err := ParseSpec([]byte(`{"attack":"replay"}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Replay == nil || s.Replay.Mode != ReplayModeAuto || s.Replay.RetainBytes != 4096 {
		t.Fatalf("replay defaults not filled: %+v", s.Replay)
	}

	for _, bad := range []string{
		`{"attack":"replay","replay":{"mode":"verbatim"}}`,
		`{"attack":"replay","replay":{"retainBytes":-1}}`,
		`{"attack":"replay","replay":{"retainBytes":2097152}}`,
		`{"attack":"edelay","replay":{"mode":"raw"}}`,
	} {
		if _, err := ParseSpec([]byte(bad)); err == nil {
			t.Errorf("spec %s accepted, want error", bad)
		}
	}

	// A non-replay spec must not grow a replay field when re-marshalled.
	plain := DefaultSpec()
	plain.fill()
	data, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte("replay")) {
		t.Fatalf("non-replay spec marshals a replay field: %s", data)
	}
}
