package cloud

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/hapsim"
	"repro/internal/ipnet"
	"repro/internal/proto"
	"repro/internal/rules"
	"repro/internal/simtime"
	"repro/internal/tcpsim"
	"repro/internal/tlssim"
)

// LocalHub is the Figure 1(b) deployment: a HomePod-like controller that
// terminates HAP accessory sessions and runs automations locally.
type LocalHub struct {
	ruleRunner
	ip  *ipnet.Stack
	tcp *tcpsim.Stack
	rng *simtime.Rand
	hub *hapsim.Hub

	profiles map[string]device.Profile
}

// NewLocalHub creates the hub and starts its listener.
func NewLocalHub(clk *simtime.Clock, ip *ipnet.Stack, rng *simtime.Rand) (*LocalHub, error) {
	h := &LocalHub{
		ip:       ip,
		tcp:      tcpsim.NewStack(clk, ip, tcpsim.Config{}, 4242),
		rng:      rng,
		hub:      hapsim.NewHub(clk),
		profiles: make(map[string]device.Profile),
	}
	h.ruleRunner.init(clk, h)
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

// Addr returns the hub's accessory-facing endpoint.
func (h *LocalHub) Addr() tcpsim.Endpoint {
	return tcpsim.Endpoint{Addr: h.ip.Addr(), Port: HAPPort}
}

// RegisterDevice tells the hub about an accessory.
func (h *LocalHub) RegisterDevice(p device.Profile) { h.profiles[p.Label] = p }

// Alarms returns hub-side alarms ("no-response" command failures only —
// HAP has nothing else).
func (h *LocalHub) Alarms() []proto.Alarm { return h.hub.Alarms() }

// SendCommand writes a characteristic on an accessory directly. done may
// be nil.
func (h *LocalHub) SendCommand(label, attr, value string, done func(CommandOutcome)) error {
	p, ok := h.profiles[label]
	if !ok {
		return fmt.Errorf("cloud: local hub does not serve %q", label)
	}
	return h.hub.Command(label, attr, value, p.CommandLen, outcome(label, attr, value, done))
}

func (h *LocalHub) onEvent(accessoryID string, m hapsim.Message) {
	h.accept(rules.Event{
		Device:      accessoryID,
		Attribute:   m.Characteristic,
		Value:       m.Value,
		GeneratedAt: m.Timestamp,
		ReceivedAt:  h.clk.Now(),
	})
}
