package simtime

import (
	"encoding/hex"
	"testing"
)

// TestRandGolden pins NewRand(1)'s stream. Every seeded simulation result
// derives from these streams, fleet checkpoints and -partial files
// included, so a change here must come with a fleet.checkpointVersion bump.
func TestRandGolden(t *testing.T) {
	const bump = "the simtime.Rand stream changed: fleet checkpoints and partials written before it no longer match, so bump fleet.checkpointVersion and re-golden"
	r := NewRand(1)
	for i, want := range []int64{5225608189600411232, 6878622605533214259, 8955919645141445295, 4098490376910890117} {
		if got := r.Int63(); got != want {
			t.Fatalf("Int63 draw %d = %d, want %d: %s", i, got, want, bump)
		}
	}
	b := make([]byte, 32)
	r.Bytes(b)
	if got, want := hex.EncodeToString(b), "dcda80686caadd40810ac8ff85a6521e9b6b36f64cbac2138987ddf3d41ebf1a"; got != want {
		t.Fatalf("Bytes = %s, want %s: %s", got, want, bump)
	}
}

// TestRandSeedAllocs pins seeding cost: Reseed allocates nothing and
// NewRand allocates only the Rand and math/rand's wrapper.
func TestRandSeedAllocs(t *testing.T) {
	r := NewRand(1)
	if n := testing.AllocsPerRun(100, func() { r.Reseed(42) }); n != 0 {
		t.Errorf("Reseed allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { r = NewRand(42) }); n > 2 {
		t.Errorf("NewRand allocates %v times, want at most 2", n)
	}
}
