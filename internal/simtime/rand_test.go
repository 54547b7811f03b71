package simtime

import (
	"encoding/hex"
	"testing"
	"time"
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

// TestRandReseedByteIdentity pins Reseed's contract: it rewinds a Rand, in
// place, to exactly the stream NewRand would produce for that seed, across
// every draw kind.
// The recycled generator ends on a partial Bytes read, which leaves bytes
// buffered in math/rand's Rand; Reseed must drop them too.
func TestRandReseedByteIdentity(t *testing.T) {
	recycled := NewRand(7)
	for i := 0; i < 100; i++ {
		recycled.Int63()
	}
	var partial [3]byte
	recycled.Bytes(partial[:])
	recycled.Reseed(1234)
	fresh := NewRand(1234)
	for i := 0; i < 200; i++ {
		switch i % 4 {
		case 0:
			if a, b := fresh.Intn(1000), recycled.Intn(1000); a != b {
				t.Fatalf("draw %d: Intn %d != %d", i, a, b)
			}
		case 1:
			if a, b := fresh.Float64(), recycled.Float64(); a != b {
				t.Fatalf("draw %d: Float64 %v != %v", i, a, b)
			}
		case 2:
			if a, b := fresh.Duration(time.Hour), recycled.Duration(time.Hour); a != b {
				t.Fatalf("draw %d: Duration %v != %v", i, a, b)
			}
		case 3:
			var ba, bb [8]byte
			fresh.Bytes(ba[:])
			recycled.Bytes(bb[:])
			if ba != bb {
				t.Fatalf("draw %d: Bytes %x != %x", i, ba, bb)
			}
		}
	}
}
