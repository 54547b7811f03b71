package cloud

import (
	"time"

	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/rules"
	"repro/internal/simtime"
)

// Notification is a user-visible push message (the Type-I observable).
type Notification struct {
	At      simtime.Time
	Message string
	Cause   rules.Event
}

// Latency returns how long after the physical occurrence the user was
// told about it.
func (n Notification) Latency() time.Duration { return n.At - n.Cause.GeneratedAt }

// CommandRecord logs one command issued by a rule.
type CommandRecord struct {
	IssuedAt  simtime.Time
	Device    string
	Attribute string
	Value     string
	Outcome   *proto.CommandResult // nil until resolved
}

// A commandSender delivers a command to a device. done may be nil.
type commandSender interface {
	SendCommand(label, attr, value string, done func(proto.CommandResult)) error
}

// ruleRunner runs a server's automation rules. It holds the rule engine
// and the logs of the events it accepted, the notifications it pushed and
// the commands its rules issued. The integration server and the local hub
// embed it, and each supplies only how a rule's command is sent.
type ruleRunner struct {
	clk    *simtime.Clock
	engine *rules.Engine
	sender commandSender
	trace  *obs.Trace

	events        []rules.Event
	notifications []Notification
	commands      []*CommandRecord
}

func (r *ruleRunner) init(clk *simtime.Clock, sender commandSender) {
	r.clk = clk
	r.engine = rules.NewEngine(clk)
	r.engine.Execute = r.execute
	r.sender = sender
}

// Instrument attaches the registry's trace ring (when enabled) so the
// server emits "cloud" events: event_accepted and rule_fired, plus
// event_discarded and alarm at the integration server — the
// automation-visible tail of every phantom delay.
func (r *ruleRunner) Instrument(reg *obs.Registry) {
	if tr := reg.Trace(); tr.Enabled() {
		r.trace = tr
	}
}

func (r *ruleRunner) emit(event, detail string, value int64) {
	if r.trace == nil {
		return
	}
	r.trace.Emit(r.clk.Now(), "cloud", event, detail, value)
}

// Engine exposes the rule engine (for installing rules and inspection).
func (r *ruleRunner) Engine() *rules.Engine { return r.engine }

// AddRule installs an automation rule.
func (r *ruleRunner) AddRule(rule rules.Rule) error { return r.engine.AddRule(rule) }

// Events returns every event the server accepted.
func (r *ruleRunner) Events() []rules.Event {
	out := make([]rules.Event, len(r.events))
	copy(out, r.events)
	return out
}

// EventCount returns how many of the accepted events came from origin.
func (r *ruleRunner) EventCount(origin string) int {
	n := 0
	for i := range r.events {
		if r.events[i].Device == origin {
			n++
		}
	}
	return n
}

// Notifications returns the user-visible pushes so far.
func (r *ruleRunner) Notifications() []Notification {
	out := make([]Notification, len(r.notifications))
	copy(out, r.notifications)
	return out
}

// Commands returns the log of commands the rules issued.
func (r *ruleRunner) Commands() []*CommandRecord {
	out := make([]*CommandRecord, len(r.commands))
	copy(out, r.commands)
	return out
}

// accept logs an accepted event and runs the rules it triggers.
func (r *ruleRunner) accept(ev rules.Event) {
	if r.trace != nil {
		r.emit("event_accepted", ev.Device+"/"+ev.Attribute, int64(ev.ReceivedAt-ev.GeneratedAt))
	}
	r.events = append(r.events, ev)
	r.engine.HandleEvent(ev)
}

func (r *ruleRunner) execute(a rules.Action, cause rules.Event) {
	switch a.Kind {
	case rules.ActionNotify:
		if r.trace != nil {
			r.emit("rule_fired", "notify:"+a.Message, int64(r.clk.Now()-cause.GeneratedAt))
		}
		r.notifications = append(r.notifications, Notification{
			At:      r.clk.Now(),
			Message: a.Message,
			Cause:   cause,
		})
	case rules.ActionCommand:
		if r.trace != nil {
			r.emit("rule_fired", "command:"+a.Device+"."+a.Attribute+"="+a.Value, int64(r.clk.Now()-cause.GeneratedAt))
		}
		rec := &CommandRecord{
			IssuedAt:  r.clk.Now(),
			Device:    a.Device,
			Attribute: a.Attribute,
			Value:     a.Value,
		}
		r.commands = append(r.commands, rec)
		// Dispatch failures (device offline or unserved) leave Outcome nil,
		// which the experiment reports as an unexecuted action.
		_ = r.sender.SendCommand(a.Device, a.Attribute, a.Value, func(o proto.CommandResult) {
			rec.Outcome = &o
		})
	}
}
