package simtime

import (
	"testing"
	"time"

	"repro/internal/obs"
)

// Regression: Clock.steps used to be cumulative for the clock's lifetime,
// so a long-lived lab driven by many small RunFor calls panicked once the
// *total* events crossed maxSteps, even though no single call looped. The
// guard must bound one call.
func TestStepLimitBoundsSingleRunNotLifetime(t *testing.T) {
	c := NewClock()
	c.SetStepLimit(100)
	executed := 0
	// 50 events per second of virtual time, 10 RunFor(1s) calls: 500
	// events total — 5x the limit — but never more than 50 in one call.
	for i := 0; i < 500; i++ {
		c.Schedule(time.Duration(i)*20*time.Millisecond, func() { executed++ })
	}
	for i := 0; i < 10; i++ {
		c.RunFor(time.Second) // must not panic
	}
	if executed != 500 {
		t.Fatalf("executed %d events, want 500", executed)
	}
}

// The guard still fires within one call.
func TestStepLimitStillGuardsOneCall(t *testing.T) {
	c := NewClock()
	c.SetStepLimit(100)
	for i := 0; i < 200; i++ {
		c.Schedule(time.Duration(i)*time.Millisecond, func() {})
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic: 200 events in one Run with limit 100")
		}
	}()
	c.Run()
}

// Caller-driven Step loops restart the guard window per call, so a manual
// loop can exceed the limit in total without tripping it.
func TestStepLimitResetsForManualStepLoops(t *testing.T) {
	c := NewClock()
	c.SetStepLimit(10)
	executed := 0
	for i := 0; i < 100; i++ {
		c.Schedule(time.Duration(i)*time.Millisecond, func() { executed++ })
	}
	for c.Step() { // must not panic
	}
	if executed != 100 {
		t.Fatalf("executed %d events, want 100", executed)
	}
}

func TestTimerNilSafety(t *testing.T) {
	var nilTimer *Timer
	if nilTimer.When() != 0 {
		t.Fatal("nil Timer When() should be 0")
	}
	if nilTimer.Stop() {
		t.Fatal("nil Timer Stop() should be false")
	}
	if nilTimer.Active() {
		t.Fatal("nil Timer Active() should be false")
	}
	var zero Timer
	if zero.When() != 0 {
		t.Fatal("zero Timer When() should be 0")
	}
	if zero.Stop() {
		t.Fatal("zero Timer Stop() should be false")
	}
	if zero.Active() {
		t.Fatal("zero Timer Active() should be false")
	}
}

func TestTimerWhenLiveTimer(t *testing.T) {
	c := NewClock()
	tm := c.Schedule(3*time.Second, func() {})
	if tm.When() != 3*time.Second {
		t.Fatalf("When() = %v, want 3s", tm.When())
	}
	c.Run()
	if tm.When() != 3*time.Second {
		t.Fatalf("When() after fire = %v, want 3s", tm.When())
	}
}

func TestClockInstrumentation(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewClock()
	c.Instrument(reg)
	for i := 0; i < 5; i++ {
		c.Schedule(time.Duration(i)*time.Second, func() {})
	}
	c.RunFor(10 * time.Second)
	c.Schedule(time.Second, func() {})
	c.Run()
	snap := reg.Snapshot()
	if got := snap.Counter("simtime_events_total"); got != 6 {
		t.Fatalf("events_total = %d, want 6", got)
	}
	if got := snap.Counter("simtime_runs_total"); got != 2 {
		t.Fatalf("runs_total = %d, want 2", got)
	}
	if g := snap.Gauge("simtime_queue_depth"); g.Max != 5 {
		t.Fatalf("queue_depth max = %d, want 5", g.Max)
	}
	if g := snap.Gauge("simtime_queue_depth"); g.Value != 0 {
		t.Fatalf("queue_depth value = %d, want 0 after drain", g.Value)
	}
	h, ok := snap.Histogram("simtime_run_steps")
	if !ok || h.Count != 2 || h.Sum != 6 {
		t.Fatalf("run_steps = %+v ok=%v, want 2 runs summing 6 steps", h, ok)
	}
}

func TestUninstrumentedClockUnaffected(t *testing.T) {
	c := NewClock()
	ran := 0
	c.Schedule(time.Second, func() { ran++ })
	c.Run()
	if ran != 1 {
		t.Fatal("uninstrumented clock failed to run events")
	}
}

// TestStepUntil pins the edges of the one step-until-deadline loop: when
// done is checked, whether an event at the deadline runs, where the clock
// ends and which of those paths count as a run.
func TestStepUntil(t *testing.T) {
	const never = -1
	cases := []struct {
		name     string
		start    Time   // the clock is advanced here before the events are scheduled
		events   []Time // absolute event times
		deadline Time
		doneAt   int // done holds once this many events ran; never for always false
		want     bool
		wantNow  Time
		wantRan  int
		wantRuns uint64
	}{
		{"done before deadline", 0, []Time{time.Second, 2 * time.Second, 3 * time.Second}, 10 * time.Second, 2, true, 2 * time.Second, 2, 0},
		{"event at deadline runs and is seen", 0, []Time{5 * time.Second}, 5 * time.Second, 1, true, 5 * time.Second, 1, 0},
		{"event at deadline runs, done still false", 0, []Time{5 * time.Second, 6 * time.Second}, 5 * time.Second, never, false, 5 * time.Second, 1, 0},
		{"next event past deadline", 0, []Time{2 * time.Second, 8 * time.Second}, 5 * time.Second, never, false, 5 * time.Second, 1, 1},
		{"empty queue", 0, nil, 5 * time.Second, never, false, 5 * time.Second, 0, 1},
		{"deadline reached, done false", 5 * time.Second, []Time{5 * time.Second}, 5 * time.Second, never, false, 5 * time.Second, 0, 0},
		{"deadline passed, done true", 5 * time.Second, []Time{5 * time.Second}, 3 * time.Second, 0, true, 5 * time.Second, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewClock()
			c.RunUntil(tc.start)
			ran := 0
			for _, at := range tc.events {
				c.At(at, func() { ran++ })
			}
			reg := obs.NewRegistry()
			c.Instrument(reg)
			got := c.StepUntil(tc.deadline, func() bool { return tc.doneAt != never && ran >= tc.doneAt })
			if got != tc.want || c.Now() != tc.wantNow || ran != tc.wantRan {
				t.Fatalf("StepUntil = %v at %v after %d events, want %v at %v after %d",
					got, c.Now(), ran, tc.want, tc.wantNow, tc.wantRan)
			}
			if c.Pending() != len(tc.events)-ran {
				t.Fatalf("Pending = %d, want %d", c.Pending(), len(tc.events)-ran)
			}
			snap := reg.Snapshot()
			if runs := snap.Counter("simtime_runs_total"); runs != tc.wantRuns {
				t.Fatalf("runs_total = %d, want %d", runs, tc.wantRuns)
			}
			if events := snap.Counter("simtime_events_total"); events != uint64(tc.wantRan) {
				t.Fatalf("events_total = %d, want %d", events, tc.wantRan)
			}
		})
	}
}
