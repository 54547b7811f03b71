package cloud

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/hapsim"
	"repro/internal/ipnet"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/rules"
	"repro/internal/simtime"
	"repro/internal/tcpsim"
	"repro/internal/tlssim"
)

// LocalHub is the Figure 1(b) deployment: a HomePod-like controller that
// terminates HAP accessory sessions and runs automations locally.
type LocalHub struct {
	clk    *simtime.Clock
	ip     *ipnet.Stack
	tcp    *tcpsim.Stack
	rng    *simtime.Rand
	hub    *hapsim.Hub
	engine *rules.Engine

	profiles map[string]device.Profile

	events        []rules.Event
	notifications []Notification
	commands      []*CommandRecord
	trace         *obs.Trace
}

// NewLocalHub creates the hub and starts its listener.
func NewLocalHub(clk *simtime.Clock, ip *ipnet.Stack, rng *simtime.Rand) (*LocalHub, error) {
	h := &LocalHub{
		clk:      clk,
		ip:       ip,
		tcp:      tcpsim.NewStack(clk, ip, tcpsim.Config{}, 4242),
		rng:      rng,
		hub:      hapsim.NewHub(clk),
		engine:   rules.NewEngine(clk),
		profiles: make(map[string]device.Profile),
	}
	h.engine.Execute = h.execute
	h.hub.OnEvent = h.onEvent
	// The accept closure reads h.trace at accept time, so sessions accepted
	// after Instrument emit into the registry's ring.
	if _, err := h.tcp.Listen(HAPPort, func(c *tcpsim.Conn) {
		sess := tlssim.Server(c, h.rng)
		sess.Instrument(h.trace, "hub")
		h.hub.Accept(sess)
	}); err != nil {
		return nil, fmt.Errorf("local hub: %w", err)
	}
	return h, nil
}

// Instrument attaches the registry's trace ring (when enabled) so the hub
// emits "cloud" events (event_accepted, rule_fired) and its accessory TLS
// sessions emit per-record events.
func (h *LocalHub) Instrument(reg *obs.Registry) {
	if tr := reg.Trace(); tr.Enabled() {
		h.trace = tr
	}
}

func (h *LocalHub) emit(event, detail string, value int64) {
	if h.trace == nil {
		return
	}
	h.trace.Emit(h.clk.Now(), "cloud", event, detail, value)
}

// Addr returns the hub's accessory-facing endpoint.
func (h *LocalHub) Addr() tcpsim.Endpoint {
	return tcpsim.Endpoint{Addr: h.ip.Addr(), Port: HAPPort}
}

// Engine exposes the rule engine.
func (h *LocalHub) Engine() *rules.Engine { return h.engine }

// RegisterDevice tells the hub about an accessory.
func (h *LocalHub) RegisterDevice(p device.Profile) { h.profiles[p.Label] = p }

// AddRule installs an automation rule.
func (h *LocalHub) AddRule(r rules.Rule) error { return h.engine.AddRule(r) }

// Events returns the events the hub processed.
func (h *LocalHub) Events() []rules.Event {
	out := make([]rules.Event, len(h.events))
	copy(out, h.events)
	return out
}

// Notifications returns user-visible pushes.
func (h *LocalHub) Notifications() []Notification {
	out := make([]Notification, len(h.notifications))
	copy(out, h.notifications)
	return out
}

// Commands returns issued commands.
func (h *LocalHub) Commands() []*CommandRecord {
	out := make([]*CommandRecord, len(h.commands))
	copy(out, h.commands)
	return out
}

// Alarms returns hub-side alarms ("no-response" command failures only —
// HAP has nothing else).
func (h *LocalHub) Alarms() []proto.Alarm { return h.hub.Alarms() }

// SendCommand writes a characteristic on an accessory directly.
func (h *LocalHub) SendCommand(label, attr, value string, done func(CommandOutcome)) error {
	p, ok := h.profiles[label]
	if !ok {
		return fmt.Errorf("cloud: local hub does not serve %q", label)
	}
	return h.hub.Command(label, attr, value, p.CommandLen, func(r hapsim.CommandResult) {
		if done != nil {
			done(CommandOutcome{Device: label, Attribute: attr, Value: value, Acked: r.Acked, Duration: r.Duration})
		}
	})
}

func (h *LocalHub) onEvent(accessoryID string, m hapsim.Message) {
	ev := rules.Event{
		Device:      accessoryID,
		Attribute:   m.Characteristic,
		Value:       m.Value,
		GeneratedAt: m.Timestamp,
		ReceivedAt:  h.clk.Now(),
	}
	if h.trace != nil {
		h.emit("event_accepted", ev.Device+"/"+ev.Attribute, int64(ev.ReceivedAt-ev.GeneratedAt))
	}
	h.events = append(h.events, ev)
	h.engine.HandleEvent(ev)
}

func (h *LocalHub) execute(a rules.Action, cause rules.Event) {
	switch a.Kind {
	case rules.ActionNotify:
		if h.trace != nil {
			h.emit("rule_fired", "notify:"+a.Message, int64(h.clk.Now()-cause.GeneratedAt))
		}
		h.notifications = append(h.notifications, Notification{At: h.clk.Now(), Message: a.Message, Cause: cause})
	case rules.ActionCommand:
		if h.trace != nil {
			h.emit("rule_fired", "command:"+a.Device+"."+a.Attribute+"="+a.Value, int64(h.clk.Now()-cause.GeneratedAt))
		}
		rec := &CommandRecord{
			IssuedAt:  h.clk.Now(),
			Device:    a.Device,
			Attribute: a.Attribute,
			Value:     a.Value,
		}
		h.commands = append(h.commands, rec)
		_ = h.SendCommand(a.Device, a.Attribute, a.Value, func(o CommandOutcome) {
			rec.Outcome = &o
		})
	}
}
