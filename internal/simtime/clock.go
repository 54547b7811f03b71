// Package simtime provides a deterministic discrete-event virtual clock.
//
// All simulation components schedule callbacks on a Clock instead of using
// real time. Events execute in strict timestamp order (FIFO among equal
// timestamps), so a simulation run is reproducible bit-for-bit and hours of
// virtual time execute in milliseconds of wall time.
//
// The Clock is intentionally single-threaded: callbacks run on the goroutine
// that calls Step, StepUntil, Run, RunUntil or RunFor. Simulation code
// therefore needs no locking, which both simplifies the protocol state
// machines built on top and guarantees determinism.
package simtime

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// Time is an instant of virtual time, measured as an offset from the start
// of the simulation.
type Time = time.Duration

// Clock is a virtual clock with an event queue. The zero value is not
// usable; create one with NewClock.
type Clock struct {
	now      Time
	events   eventQueue
	seq      uint64
	inEvent  bool
	maxSteps uint64
	// steps counts events executed since the current Run/RunUntil call
	// began; it is reset at the start of each call so the runaway guard
	// bounds one call, not the clock's lifetime.
	steps   uint64
	running bool

	// Instrumentation handles; nil (no-op) until Instrument is called.
	mEvents   *obs.Counter
	mRuns     *obs.Counter
	mQueueHWM *obs.Gauge
	mRunSteps *obs.Histogram
}

// NewClock returns a Clock starting at virtual time zero.
func NewClock() *Clock {
	return &Clock{maxSteps: defaultMaxSteps}
}

// defaultMaxSteps bounds a single Run call as a guard against runaway event
// loops (e.g. two components rescheduling each other at the same instant).
const defaultMaxSteps = 200_000_000

// Now returns the current virtual time.
func (c *Clock) Now() Time { return c.now }

// Instrument registers the clock's metrics with reg and starts updating
// them:
//
//	simtime_events_total     counter — events executed
//	simtime_runs_total       counter — Run/RunUntil/RunFor calls
//	simtime_run_steps        histogram — events executed per run call
//	simtime_queue_depth      gauge — live scheduled events (Max is the
//	                         high-water mark; the value updates on
//	                         schedule, stop/reset and at the end of each
//	                         run call, not on every pop)
//
// Stopped timers leave the heap immediately, so the gauge never counts
// cancelled events — a fleet that schedules and stops N keep-alive
// deadlines reports the live residue, not N.
//
// The hot-path cost is one counter increment per event and one gauge
// update per schedule; see BenchmarkClockInstrumentationOverhead.
func (c *Clock) Instrument(reg *obs.Registry) {
	c.mEvents = reg.Counter("simtime_events_total")
	c.mRuns = reg.Counter("simtime_runs_total")
	c.mQueueHWM = reg.Gauge("simtime_queue_depth")
	c.mRunSteps = reg.Histogram("simtime_run_steps", obs.CountBuckets)
}

// SetStepLimit overrides the runaway-loop guard. A limit of 0 restores the
// default.
func (c *Clock) SetStepLimit(n uint64) {
	if n == 0 {
		n = defaultMaxSteps
	}
	c.maxSteps = n
}

// Schedule runs fn after delay d. A non-positive delay schedules fn at the
// current instant; it still runs after the current callback returns.
// The returned Timer may be used to cancel the callback.
func (c *Clock) Schedule(d time.Duration, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	return c.At(c.now+d, fn)
}

// At runs fn at virtual time t. If t is in the past it runs at the current
// instant.
func (c *Clock) At(t Time, fn func()) *Timer {
	if fn == nil {
		panic("simtime: At called with nil callback")
	}
	if t < c.now {
		t = c.now
	}
	ev := &event{when: t, seq: c.seq, fn: fn}
	c.seq++
	c.events.push(ev)
	c.mQueueHWM.Set(int64(len(c.events)))
	return &Timer{clock: c, ev: ev}
}

// Step executes the next pending event, advancing the clock to its
// timestamp. It reports whether an event was executed.
//
// A caller-driven Step loop is bounded by the caller, so each standalone
// Step call restarts the runaway-guard window.
func (c *Clock) Step() bool {
	if !c.running {
		c.steps = 0
	}
	return c.step()
}

func (c *Clock) step() bool {
	if len(c.events) == 0 {
		return false
	}
	ev := c.events.pop()
	c.now = ev.when
	c.runEvent(ev)
	return true
}

// startRun opens a runaway-guard window: the step counter restarts so the
// limit bounds this call, not the clock's lifetime.
func (c *Clock) startRun() {
	c.steps = 0
	c.running = true
}

func (c *Clock) finishRun() {
	c.running = false
	c.mRuns.Inc()
	c.mRunSteps.Observe(float64(c.steps))
	// Depth only grows on push, so the high-water mark is maintained there
	// (and on stop/reset); the current value is refreshed here, off the
	// per-event pop path.
	c.mQueueHWM.Set(int64(len(c.events)))
}

// Run executes events until the queue is empty.
func (c *Clock) Run() {
	c.startRun()
	defer c.finishRun()
	for c.step() {
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock to
// t. Events scheduled after t remain pending.
func (c *Clock) RunUntil(t Time) {
	c.startRun()
	defer c.finishRun()
	for {
		ev := c.peek()
		if ev == nil || ev.when > t {
			break
		}
		c.step()
	}
	if t > c.now {
		c.now = t
	}
}

// RunFor executes events within the next d of virtual time, then advances
// the clock by exactly d from its value at the call.
func (c *Clock) RunFor(d time.Duration) {
	c.RunUntil(c.now + d)
}

// StepUntil executes events one at a time until done reports true or the
// deadline is reached, and reports done's final value. done is checked
// before the first event and after each one, so an event exactly at the
// deadline runs and is seen. When no event remains at or before the
// deadline, the clock advances to it through RunUntil; a deadline already
// reached runs nothing.
//
// The events run through Step, which opens no run of its own, so a wait
// that ends on done adds nothing to simtime_runs_total; only the final
// advance to the deadline counts as one run of zero steps.
func (c *Clock) StepUntil(deadline Time, done func() bool) bool {
	for !done() {
		if c.now >= deadline {
			return false
		}
		if ev := c.peek(); ev == nil || ev.when > deadline {
			c.RunUntil(deadline)
			return done()
		}
		c.Step()
	}
	return true
}

// Pending reports the number of scheduled, uncancelled events. Stopped
// timers are removed from the heap eagerly, so this is the heap size —
// O(1), where it used to scan past tombstones.
func (c *Clock) Pending() int {
	return len(c.events)
}

// NextEventAt returns the timestamp of the next pending event and whether
// one exists.
func (c *Clock) NextEventAt() (Time, bool) {
	ev := c.peek()
	if ev == nil {
		return 0, false
	}
	return ev.when, true
}

func (c *Clock) peek() *event {
	if len(c.events) == 0 {
		return nil
	}
	return c.events[0]
}

func (c *Clock) runEvent(ev *event) {
	c.steps++
	c.mEvents.Inc()
	if c.steps > c.maxSteps {
		panic(fmt.Sprintf("simtime: step limit %d exceeded at t=%v (runaway event loop?)", c.maxSteps, c.now))
	}
	if c.inEvent {
		panic("simtime: reentrant event execution")
	}
	c.inEvent = true
	defer func() { c.inEvent = false }()
	ev.fn()
}

// NewTimer returns an unarmed timer bound to fn. Reset (or ResetAt) arms
// it. The timer owns one event allocation for its whole life and every
// rearm reuses it, so steady-state rescheduling — an RTO rearmed on every
// ACK, a broker deadline pushed back on every packet — allocates nothing.
// See TestTimerResetSteadyStateAllocFree.
func (c *Clock) NewTimer(fn func()) *Timer {
	if fn == nil {
		panic("simtime: NewTimer called with nil callback")
	}
	return &Timer{clock: c, ev: &event{fn: fn, index: -1}}
}

// Timer is a handle to a scheduled callback.
type Timer struct {
	clock *Clock
	ev    *event
}

// Stop cancels the callback. It reports whether the callback was still
// pending (false if it already ran or was already stopped).
//
// Stopping removes the event from the heap immediately (O(log n)) instead
// of tombstoning it, so churn-heavy workloads — every ACK rearming an RTO,
// every packet pushing back a keep-alive deadline — keep the heap at its
// live size rather than bloating every later push and pop.
func (t *Timer) Stop() bool {
	if t == nil || t.ev == nil || t.ev.index < 0 {
		return false
	}
	c := t.clock
	c.events.remove(t.ev.index)
	c.mQueueHWM.Set(int64(len(c.events)))
	return true
}

// Reset reschedules the timer's callback to fire after delay d, reusing
// the timer's event allocation. It works on any timer — still pending
// (rescheduled in place via an O(log n) heap fix), already fired, stopped,
// or fresh from NewTimer (re-armed) — and reports whether the timer was
// still pending, mirroring time.Timer.Reset.
//
// A non-positive delay schedules the callback at the current instant; it
// still runs after the current callback returns. Ordering matches a
// Stop-then-Schedule pair exactly: the rearmed event goes behind every
// event already scheduled for the same instant.
func (t *Timer) Reset(d time.Duration) bool {
	if t == nil || t.ev == nil {
		return false
	}
	if d < 0 {
		d = 0
	}
	return t.ResetAt(t.clock.now + d)
}

// ResetAt is Reset with an absolute virtual time: the callback fires at
// instant at (clamped to the current instant if in the past).
func (t *Timer) ResetAt(at Time) bool {
	if t == nil || t.ev == nil {
		return false
	}
	c := t.clock
	if at < c.now {
		at = c.now
	}
	ev := t.ev
	ev.when = at
	ev.seq = c.seq
	c.seq++
	if ev.index >= 0 {
		c.events.fix(ev)
		return true
	}
	c.events.push(ev)
	c.mQueueHWM.Set(int64(len(c.events)))
	return false
}

// When returns the virtual time the callback is (or was) scheduled for,
// or 0 on a nil or zero Timer (mirroring Stop and Active's nil guards).
func (t *Timer) When() Time {
	if t == nil || t.ev == nil {
		return 0
	}
	return t.ev.when
}

// Active reports whether the callback is still pending.
func (t *Timer) Active() bool {
	return t != nil && t.ev != nil && t.ev.index >= 0
}

type event struct {
	when Time
	seq  uint64
	fn   func()
	// index is the event's position in the clock's queue, kept current by
	// every queue operation; -1 when not scheduled (unarmed, ran, or
	// stopped). Tracking it is what lets Timer.Stop remove in O(log n) and
	// Timer.Reset rearm in place without allocating.
	index int
}

// before orders events by (when, seq). seq is unique per clock, so no two
// events tie and any correct min-heap pops them in the same order.
func (ev *event) before(o *event) bool {
	if ev.when != o.when {
		return ev.when < o.when
	}
	return ev.seq < o.seq
}

// eventQueue is a 4-ary min-heap of events ordered by before. Sifting
// moves a hole instead of swapping: the moving event is held aside, each
// displaced parent or child shifts one slot, and the moving event is
// stored once where the hole stops. That is one pointer store per level
// (each a GC write barrier while marking) where a swap makes two, and the
// wider fan-out halves the levels against a binary heap.
type eventQueue []*event

const queueArity = 4

func (q *eventQueue) push(ev *event) {
	*q = append(*q, ev)
	q.up(ev, len(*q)-1)
}

// pop removes and returns the earliest event. The queue must be non-empty.
func (q *eventQueue) pop() *event {
	top := (*q)[0]
	q.remove(0)
	return top
}

// remove deletes the event at position i and marks it unscheduled.
func (q *eventQueue) remove(i int) {
	h := *q
	n := len(h) - 1
	ev := h[i]
	last := h[n]
	h[n] = nil
	*q = h[:n]
	ev.index = -1
	if i < n {
		q.place(last, i)
	}
}

// fix restores heap order after ev's key changed in place.
func (q *eventQueue) fix(ev *event) { q.place(ev, ev.index) }

// place puts ev into the hole at position i, sifting up if it precedes its
// parent and down otherwise.
func (q *eventQueue) place(ev *event, i int) {
	if i > 0 && ev.before((*q)[(i-1)/queueArity]) {
		q.up(ev, i)
		return
	}
	q.down(ev, i)
}

// up moves the hole at i toward the root until ev's parent precedes ev,
// then stores ev there.
func (q *eventQueue) up(ev *event, i int) {
	h := *q
	for i > 0 {
		p := (i - 1) / queueArity
		parent := h[p]
		if !ev.before(parent) {
			break
		}
		h[i] = parent
		parent.index = i
		i = p
	}
	h[i] = ev
	ev.index = i
}

// down moves the hole at i toward the leaves until no child precedes ev,
// then stores ev there.
func (q *eventQueue) down(ev *event, i int) {
	h := *q
	n := len(h)
	for {
		first := queueArity*i + 1
		if first >= n {
			break
		}
		m, end := first, min(first+queueArity, n)
		for j := first + 1; j < end; j++ {
			if h[j].before(h[m]) {
				m = j
			}
		}
		child := h[m]
		if !child.before(ev) {
			break
		}
		h[i] = child
		child.index = i
		i = m
	}
	h[i] = ev
	ev.index = i
}
