package simtime

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"repro/internal/obs"
)

// driveClockWorkload runs a canonical mix of timer traffic — rng-spread
// one-shots, a cancelled timer, a rescheduled timer, a ticker — and
// returns a fingerprint of everything observable: callback order with
// timestamps, the final clock position, a post-run RNG draw, and the full
// metrics snapshot including simtime_queue_depth's value and high-water
// mark.
func driveClockWorkload(t *testing.T, clk *Clock, rng *Rand, reg *obs.Registry) string {
	t.Helper()
	clk.Instrument(reg)
	var fired []string
	for i := 0; i < 8; i++ {
		i := i
		d := time.Duration(100+rng.Intn(900)) * time.Millisecond
		clk.Schedule(d, func() { fired = append(fired, fmt.Sprintf("t%d@%v", i, clk.Now())) })
	}
	clk.Schedule(50*time.Millisecond, func() { fired = append(fired, "cancelled") }).Stop()
	re := clk.Schedule(10*time.Millisecond, func() { fired = append(fired, fmt.Sprintf("re@%v", clk.Now())) })
	re.Reset(700 * time.Millisecond)
	tk := NewTicker(clk, 250*time.Millisecond, func() { fired = append(fired, fmt.Sprintf("tick@%v", clk.Now())) })
	clk.RunFor(time.Second)
	tk.Stop()
	clk.RunFor(500 * time.Millisecond)
	snap, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("fired=%v now=%v draw=%d snap=%s", fired, clk.Now(), rng.Intn(1<<30), snap)
}

// TestClockResetByteIdentity is simtime's slice of the arena contract: a
// clock, generator and registry recycled mid-flight — one-shot timers and
// a live ticker still pending — must replay a workload byte-identically to
// freshly constructed ones.
func TestClockResetByteIdentity(t *testing.T) {
	fresh := driveClockWorkload(t, NewClock(), NewRand(42), obs.NewRegistry())

	clk, rng, reg := NewClock(), NewRand(7), obs.NewRegistry()
	clk.Instrument(reg)
	for i := 0; i < 5; i++ {
		clk.Schedule(time.Duration(i+1)*time.Hour, func() {})
	}
	NewTicker(clk, time.Second, func() {})
	clk.RunFor(3500 * time.Millisecond) // one-shots and ticker still pending

	clk.Reset()
	reg.Reset()
	rng.Reseed(42)
	if got := driveClockWorkload(t, clk, rng, reg); got != fresh {
		t.Errorf("recycled clock diverged from fresh\n fresh: %s\n reuse: %s", fresh, got)
	}
}

// TestClockResetQueueDrained proves pending events at Reset leave no
// tombstones behind: stale Timer handles are inert against the recycled
// clock and never touch the queue-depth gauge, whose high-water mark after
// a reset reflects only newly scheduled work.
func TestClockResetQueueDrained(t *testing.T) {
	clk, reg := NewClock(), obs.NewRegistry()
	clk.Instrument(reg)
	var stale []*Timer
	for i := 0; i < 16; i++ {
		stale = append(stale, clk.Schedule(time.Duration(i+1)*time.Minute, func() {}))
	}
	clk.RunFor(time.Second)

	clk.Reset()
	reg.Reset()
	clk.Instrument(reg)
	clk.Schedule(time.Second, func() {})
	for _, tm := range stale {
		if tm.Stop() {
			t.Error("stale timer reported active after Reset")
		}
	}
	clk.Run()
	for _, g := range reg.Snapshot().Gauges {
		if g.Name != "simtime_queue_depth" {
			continue
		}
		if g.Value != 0 {
			t.Fatalf("simtime_queue_depth after drained run = %d, want 0", g.Value)
		}
		if g.Max != 1 {
			t.Fatalf("simtime_queue_depth high-water mark = %d, want 1 (stale handles must not touch the gauge)", g.Max)
		}
	}
}

// TestRandReseedByteIdentity pins the property every pooled generator in
// the testbed arena leans on: Reseed rewinds a Rand, in place, to exactly
// the stream NewRand would produce for that seed — across every draw kind.
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
