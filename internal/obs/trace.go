package obs

import "time"

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

// Trace is a fixed-capacity ring buffer of TraceEvents: the flight
// recorder. Like the rest of the package it is single-writer: append from
// the simulation goroutine, read after the run. A nil *Trace is the
// recorder turned off, and drops everything.
type Trace struct {
	buf []TraceEvent
	// next is where the next event goes once the ring is full, which is
	// also where the oldest buffered event sits.
	next int
}

// NewTrace creates a ring holding up to capacity events. Capacity <= 0
// returns nil, the recorder turned off.
func NewTrace(capacity int) *Trace {
	if capacity <= 0 {
		return nil
	}
	return &Trace{buf: make([]TraceEvent, 0, capacity)}
}

// Add appends an event, evicting the oldest once the ring is full.
func (t *Trace) Add(ev TraceEvent) {
	if t == nil {
		return
	}
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, ev)
		return
	}
	t.buf[t.next] = ev
	t.next = (t.next + 1) % len(t.buf)
}

// Emit is sugar for Add.
func (t *Trace) Emit(at time.Duration, component, event, detail string, value int64) {
	t.Add(TraceEvent{At: at, Component: component, Event: event, Detail: detail, Value: value})
}

// Enabled reports whether the recorder is on. Instrumented components
// capture nil handles when it is off, so the emission path costs nothing.
func (t *Trace) Enabled() bool { return t != nil }

// Events returns a copy of the buffered events, oldest first.
func (t *Trace) Events() []TraceEvent {
	if t == nil || len(t.buf) == 0 {
		return nil
	}
	out := make([]TraceEvent, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	return append(out, t.buf[:t.next]...)
}
