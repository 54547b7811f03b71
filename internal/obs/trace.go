package obs

import "time"

// DefaultTraceCap is the default trace ring capacity. Sized so a full
// Table-I measurement keeps its most recent attack-relevant events without
// the buffer dominating a snapshot.
const DefaultTraceCap = 4096

// TraceEvent is one entry in the event-trace ring: what happened, where,
// at which virtual time, with an optional numeric payload (a byte count, a
// held-record count, a retry number — whatever the component finds
// useful).
type TraceEvent struct {
	// At is virtual time since simulation start.
	At time.Duration `json:"at"`
	// Component names the emitting subsystem ("simtime", "netsim", ...).
	Component string `json:"component"`
	// Event names what happened ("record_held", "rto_fired", ...).
	Event string `json:"event"`
	// Detail disambiguates within a component (a flow, a device label).
	Detail string `json:"detail,omitempty"`
	// Value carries an optional numeric payload.
	Value int64 `json:"value,omitempty"`
}

// Trace is a fixed-capacity ring buffer of TraceEvents. Like the rest of
// the package it is single-writer: append from the simulation goroutine,
// read after the run. A nil *Trace drops everything.
//
// The backing array is allocated lazily on the first Add, so an enabled
// but never-written trace (a fleet worker that disables tracing right
// after construction) costs a couple of words, not capacity*sizeof(event).
type Trace struct {
	buf     []TraceEvent
	capn    int
	next    int
	wrapped bool
	// evicted counts stored events later overwritten by ring wraparound;
	// discarded counts events a disabled (zero-capacity) trace refused.
	// The distinction matters: a wrapped-but-healthy ring still holds the
	// most recent window, while a discarding trace holds nothing.
	evicted   uint64
	discarded uint64
}

// NewTrace creates a ring holding up to capacity events. Capacity <= 0
// returns a disabled trace that drops every event.
func NewTrace(capacity int) *Trace {
	if capacity <= 0 {
		return &Trace{}
	}
	return &Trace{capn: capacity}
}

// Add appends an event, evicting the oldest once the ring is full.
func (t *Trace) Add(ev TraceEvent) {
	if t == nil || t.capn == 0 {
		if t != nil {
			t.discarded++
		}
		return
	}
	if t.buf == nil {
		t.buf = make([]TraceEvent, 0, t.capn)
	}
	if len(t.buf) < t.capn {
		t.buf = append(t.buf, ev)
		return
	}
	t.buf[t.next] = ev
	t.next = (t.next + 1) % t.capn
	t.wrapped = true
	t.evicted++
}

// Reset drops all buffered events and drop counters but keeps the ring's
// capacity and backing array, so a recycled trace records exactly like a
// fresh one without reallocating.
func (t *Trace) Reset() {
	if t == nil {
		return
	}
	t.buf = t.buf[:0]
	t.next = 0
	t.wrapped = false
	t.evicted = 0
	t.discarded = 0
}

// Emit is sugar for Add.
func (t *Trace) Emit(at time.Duration, component, event, detail string, value int64) {
	t.Add(TraceEvent{At: at, Component: component, Event: event, Detail: detail, Value: value})
}

// Len reports the number of buffered events.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	return len(t.buf)
}

// Enabled reports whether the trace stores events at all. Instrumented
// components capture nil handles when tracing is disabled, so the emission
// path costs nothing when off.
func (t *Trace) Enabled() bool {
	return t != nil && t.capn > 0
}

// Evicted reports how many stored events were later overwritten by ring
// wraparound — the buffer still holds the most recent window.
func (t *Trace) Evicted() uint64 {
	if t == nil {
		return 0
	}
	return t.evicted
}

// Discarded reports how many events a disabled (zero-capacity) trace
// refused outright.
func (t *Trace) Discarded() uint64 {
	if t == nil {
		return 0
	}
	return t.discarded
}

// Dropped reports the total events lost either way: Evicted + Discarded.
func (t *Trace) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.evicted + t.discarded
}

// Events returns the buffered events oldest-first.
func (t *Trace) Events() []TraceEvent {
	if t == nil || len(t.buf) == 0 {
		return nil
	}
	return t.appendEvents(make([]TraceEvent, 0, len(t.buf)))
}

// appendEvents appends the buffered events, oldest first, to dst.
func (t *Trace) appendEvents(dst []TraceEvent) []TraceEvent {
	if t.wrapped {
		dst = append(dst, t.buf[t.next:]...)
		return append(dst, t.buf[:t.next]...)
	}
	return append(dst, t.buf...)
}
