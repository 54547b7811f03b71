package simtime

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

// refQueue is the reference model the clock's event queue is checked
// against: pending events in a slice kept sorted by (when, seq), where seq
// counts every schedule and rearm, so equal instants run first-in,
// first-out.
type refQueue struct {
	now   Time
	seq   uint64
	q     []refEvent
	fired []int
}

type refEvent struct {
	when Time
	seq  uint64
	id   int
}

func (m *refQueue) find(id int) int {
	return slices.IndexFunc(m.q, func(e refEvent) bool { return e.id == id })
}

// schedule (re)arms timer id at instant at and reports whether it was
// pending, as Timer.Reset does.
func (m *refQueue) schedule(id int, at Time) bool {
	pending := m.stop(id)
	at = max(at, m.now)
	e := refEvent{when: at, seq: m.seq, id: id}
	m.seq++
	i, _ := slices.BinarySearchFunc(m.q, e, func(a, b refEvent) int {
		if a.when != b.when {
			return int(a.when - b.when)
		}
		return int(a.seq) - int(b.seq)
	})
	m.q = slices.Insert(m.q, i, e)
	return pending
}

func (m *refQueue) stop(id int) bool {
	i := m.find(id)
	if i < 0 {
		return false
	}
	m.q = slices.Delete(m.q, i, i+1)
	return true
}

func (m *refQueue) step() bool {
	if len(m.q) == 0 {
		return false
	}
	e := m.q[0]
	m.q = m.q[1:]
	m.now = e.when
	m.fired = append(m.fired, e.id)
	return true
}

func (m *refQueue) runUntil(t Time) {
	for len(m.q) > 0 && m.q[0].when <= t {
		m.step()
	}
	m.now = max(m.now, t)
}

// queueOps is a random operation sequence. It generates longer sequences
// than quick's default slice so the queue grows several levels deep.
type queueOps []uint32

func (queueOps) Generate(r *rand.Rand, size int) reflect.Value {
	ops := make(queueOps, r.Intn(8*size+1))
	for i := range ops {
		ops[i] = r.Uint32()
	}
	return reflect.ValueOf(ops)
}

// Property: the clock's queue runs exactly the callbacks a sorted-slice
// model runs, in the same order, under any interleaving of Schedule, At,
// NewTimer, Reset, ResetAt, Stop, Step and RunUntil. Delays span four
// milliseconds, so most events share their instant with others and the
// first-in, first-out rule decides their order. After every operation the
// clock must agree with the model on the time, Pending, NextEventAt, each
// timer's Active and When, and every Stop and Reset return value.
func TestPropertyQueueMatchesSortedModel(t *testing.T) {
	f := func(ops queueOps) bool {
		c := NewClock()
		m := &refQueue{}
		var fired []int
		var timers []*Timer
		callback := func(id int) func() {
			return func() { fired = append(fired, id) }
		}
		for n, op := range ops {
			kind, arg := op%10, op/10
			delay := time.Duration(arg%4) * time.Millisecond
			pick := int(arg/4) % max(len(timers), 1)
			ok := true
			switch {
			case kind <= 2: // Schedule
				id := len(timers)
				timers = append(timers, c.Schedule(delay, callback(id)))
				m.schedule(id, m.now+delay)
			case kind == 3: // At, possibly in the past
				id := len(timers)
				at := c.Now() + delay - time.Millisecond
				timers = append(timers, c.At(at, callback(id)))
				m.schedule(id, at)
			case kind == 4: // NewTimer: unarmed until a Reset
				timers = append(timers, c.NewTimer(callback(len(timers))))
			case kind <= 6 && len(timers) > 0: // Reset or ResetAt
				var got bool
				if arg%2 == 0 {
					got = timers[pick].Reset(delay)
				} else {
					got = timers[pick].ResetAt(c.Now() + delay)
				}
				ok = got == m.schedule(pick, m.now+delay)
			case kind == 7 && len(timers) > 0: // Stop
				ok = timers[pick].Stop() == m.stop(pick)
			case kind == 8: // Step
				ok = c.Step() == m.step()
			case kind == 9: // RunUntil
				c.RunUntil(c.Now() + delay)
				m.runUntil(m.now + delay)
			}
			if !ok || !slices.Equal(fired, m.fired) || c.Now() != m.now || c.Pending() != len(m.q) {
				t.Logf("op %d (%d): clock ran %v at %v with %d pending; model ran %v at %v with %d pending",
					n, op, fired, c.Now(), c.Pending(), m.fired, m.now, len(m.q))
				return false
			}
			next, has := c.NextEventAt()
			if has != (len(m.q) > 0) || (has && next != m.q[0].when) {
				t.Logf("op %d: NextEventAt = %v, %v; model head %v", n, next, has, m.q)
				return false
			}
			for id, tm := range timers {
				i := m.find(id)
				if tm.Active() != (i >= 0) || (i >= 0 && tm.When() != m.q[i].when) {
					t.Logf("op %d: timer %d Active = %v When = %v; model index %d", n, id, tm.Active(), tm.When(), i)
					return false
				}
			}
		}
		c.Run()
		for m.step() {
		}
		return slices.Equal(fired, m.fired)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
