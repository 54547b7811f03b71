package proto

import (
	"time"

	"repro/internal/simtime"
)

// CommandResult reports the outcome of a message that awaited an
// acknowledgement.
type CommandResult struct {
	ID       uint16
	Acked    bool
	Duration time.Duration
}

// Commands is the table of messages awaiting acknowledgement at one end of
// a session: a server's commands, or a device's acknowledged events and
// keep-alives. A message unanswered within its timeout expires, which is
// what bounds every e-Delay and c-Delay in Tables I and II. IDs count from
// 1 and skip 0, which marks a message that wants no acknowledgement.
type Commands struct {
	clk     *simtime.Clock
	lastID  uint16
	pending map[uint16]pendingCommand
}

type pendingCommand struct {
	sentAt simtime.Time
	timer  *simtime.Timer
	expire func(id uint16)
	done   func(CommandResult)
}

// NewCommands returns an empty table timed by clk.
func NewCommands(clk *simtime.Clock) Commands { return Commands{clk: clk} }

// NextID returns the ID for the next message.
func (c *Commands) NextID() uint16 {
	c.lastID++
	if c.lastID == 0 {
		c.lastID = 1
	}
	return c.lastID
}

// Await files message id, which has just been sent. If timeout is nonzero
// and no Ack arrives within it, the entry is dropped, expire(id) runs, and
// done sees Acked=false; a zero timeout waits forever. done may be nil.
func (c *Commands) Await(id uint16, timeout time.Duration, expire func(id uint16), done func(CommandResult)) {
	if c.pending == nil {
		c.pending = make(map[uint16]pendingCommand)
	}
	p := pendingCommand{sentAt: c.clk.Now(), expire: expire, done: done}
	if timeout > 0 {
		p.timer = c.clk.Schedule(timeout, func() { c.resolve(id, false) })
	}
	c.pending[id] = p
}

// Ack resolves message id as acknowledged. An ID that is not pending, such
// as one whose timeout has fired, is ignored.
func (c *Commands) Ack(id uint16) { c.resolve(id, true) }

// Stop empties the table when its session ends: every timer stops, and
// neither expire nor done runs.
func (c *Commands) Stop() {
	for id, p := range c.pending {
		p.timer.Stop()
		delete(c.pending, id)
	}
}

func (c *Commands) resolve(id uint16, acked bool) {
	p, ok := c.pending[id]
	if !ok {
		return
	}
	delete(c.pending, id)
	if acked {
		p.timer.Stop()
	} else {
		p.expire(id)
	}
	if p.done != nil {
		p.done(CommandResult{ID: id, Acked: acked, Duration: c.clk.Now() - p.sentAt})
	}
}
