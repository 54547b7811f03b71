// Package cloud implements the server side of Figure 1: vendor endpoint
// servers that terminate device sessions, an integration server that runs
// the automation rules and issues commands through the endpoints
// (cloud-to-cloud), and a local hub for the HomeKit-style deployment.
package cloud

import (
	"fmt"
	"time"

	"repro/internal/device"
	"repro/internal/httpsim"
	"repro/internal/ipnet"
	"repro/internal/mqttsim"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/rules"
	"repro/internal/simtime"
	"repro/internal/tcpsim"
	"repro/internal/tlssim"
)

// Well-known ports.
const (
	// MQTTPort is the endpoint brokers' listening port.
	MQTTPort uint16 = 8883
	// HTTPSPort is the endpoint HTTP servers' listening port.
	HTTPSPort uint16 = 443
	// HAPPort is the local hub's listening port.
	HAPPort uint16 = 8443
)

// EndpointConfig parameterises a vendor endpoint server.
type EndpointConfig struct {
	// Domain names the vendor cloud (e.g. "ring.com").
	Domain string
	// CloudToCloudLatency delays event forwarding to the integration
	// server. Default 20ms.
	CloudToCloudLatency time.Duration
	// HTTP configures the HTTP side.
	HTTP httpsim.ServerConfig
}

// EndpointServer is one vendor cloud: it terminates its devices' sessions,
// forwards their events to the integration server, and delivers commands.
type EndpointServer struct {
	clk    *simtime.Clock
	cfg    EndpointConfig
	ip     *ipnet.Stack
	tcp    *tcpsim.Stack
	rng    *simtime.Rand
	broker *mqttsim.Broker
	http   *httpsim.Server

	profiles map[string]device.Profile
	owner    map[string]string // device label -> session-owner label
	trace    *obs.Trace

	// Server-side replay suppression (profiles with CloudDedup): a ring of
	// the most recently accepted event keys. Replays of accepted events —
	// raw re-injections and fresh-session application replays alike — carry
	// the original generation timestamp and are discarded here. Few
	// profiles dedup, so the ring is allocated on first use.
	dedupSeen  map[eventKey]bool
	dedupRing  []eventKey
	dedupN     int
	dedupDrops *obs.Counter

	// OnEvent receives every device event this endpoint accepts (wired to
	// the integration server by the testbed builder).
	OnEvent func(rules.Event)
}

// NewEndpointServer creates a vendor cloud on the given IP stack and
// starts its listeners.
func NewEndpointServer(clk *simtime.Clock, ip *ipnet.Stack, rng *simtime.Rand, cfg EndpointConfig) (*EndpointServer, error) {
	if cfg.CloudToCloudLatency <= 0 {
		cfg.CloudToCloudLatency = 20 * time.Millisecond
	}
	s := &EndpointServer{
		clk:       clk,
		cfg:       cfg,
		ip:        ip,
		tcp:       tcpsim.NewStack(clk, ip, tcpsim.Config{}, int64(len(cfg.Domain))+100),
		rng:       rng,
		profiles:  make(map[string]device.Profile),
		owner:     make(map[string]string),
		dedupSeen: make(map[eventKey]bool),
	}
	s.broker = mqttsim.NewBroker(clk)
	s.broker.OnPublish = s.onMQTTPublish
	s.http = httpsim.NewServer(clk, cfg.HTTP)
	s.http.OnRequest = s.onHTTPRequest
	// The accept closures read s.trace at accept time, so sessions accepted
	// after Instrument emit into the registry's ring.
	if _, err := s.tcp.Listen(MQTTPort, func(c *tcpsim.Conn) {
		sess := tlssim.Server(c, s.rng)
		sess.Instrument(s.trace, s.cfg.Domain)
		s.broker.Accept(sess)
	}); err != nil {
		return nil, fmt.Errorf("endpoint %s: %w", s.cfg.Domain, err)
	}
	if _, err := s.tcp.Listen(HTTPSPort, func(c *tcpsim.Conn) {
		sess := tlssim.Server(c, s.rng)
		sess.Instrument(s.trace, s.cfg.Domain)
		s.http.Accept(sess)
	}); err != nil {
		return nil, fmt.Errorf("endpoint %s: %w", s.cfg.Domain, err)
	}
	return s, nil
}

// Instrument attaches the registry's trace ring (when enabled) so
// server-side TLS sessions emit per-record events — the evidence that
// records released after a hold still verify in order at the endpoint.
func (s *EndpointServer) Instrument(reg *obs.Registry) {
	s.dedupDrops = reg.Counter("cloud_events_deduped_total", obs.L("domain", s.cfg.Domain))
	if tr := reg.Trace(); tr.Enabled() {
		s.trace = tr
	}
}

// Domain returns the vendor domain.
func (s *EndpointServer) Domain() string { return s.cfg.Domain }

// Addr returns the server's network address.
func (s *EndpointServer) Addr() tcpsim.Endpoint {
	return tcpsim.Endpoint{Addr: s.ip.Addr(), Port: HTTPSPort}
}

// AddrFor returns the endpoint devices of the given transport dial.
func (s *EndpointServer) AddrFor(t device.Transport) tcpsim.Endpoint {
	port := HTTPSPort
	if t == device.TransportMQTT {
		port = MQTTPort
	}
	return tcpsim.Endpoint{Addr: s.ip.Addr(), Port: port}
}

// Broker exposes the MQTT side (for Finding 2's session checks).
func (s *EndpointServer) Broker() *mqttsim.Broker { return s.broker }

// RegisterDevice tells the endpoint about a device it serves. owner is the
// label of the session-owning device (the device itself, or its hub).
func (s *EndpointServer) RegisterDevice(p device.Profile, owner string) {
	s.profiles[p.Label] = p
	s.owner[p.Label] = owner
}

// AlarmCount counts the alarms both protocol servers raised.
func (s *EndpointServer) AlarmCount() int { return s.broker.AlarmCount() + s.http.AlarmCount() }

// CommandOutcome reports a delivered or timed-out command.
type CommandOutcome struct {
	Device    string
	Attribute string
	Value     string
	Acked     bool
	Duration  time.Duration
}

// outcome adapts a protocol server's command result for done, which may
// be nil.
func outcome(label, attr, value string, done func(CommandOutcome)) func(proto.CommandResult) {
	if done == nil {
		return nil
	}
	return func(r proto.CommandResult) {
		done(CommandOutcome{Device: label, Attribute: attr, Value: value, Acked: r.Acked, Duration: r.Duration})
	}
}

// SendCommand delivers a command to a device through its session (possibly
// its hub's). done may be nil.
func (s *EndpointServer) SendCommand(label, attr, value string, done func(CommandOutcome)) error {
	p, ok := s.profiles[label]
	if !ok {
		return fmt.Errorf("cloud: endpoint %s does not serve %q", s.cfg.Domain, label)
	}
	ownerLabel := s.owner[label]
	ownerProfile, ok := s.profiles[ownerLabel]
	if !ok {
		return fmt.Errorf("cloud: endpoint %s has no session owner for %q", s.cfg.Domain, label)
	}
	timeout := p.CommandTimeout
	if timeout <= 0 {
		timeout = ownerProfile.CommandTimeout
	}
	padTo := p.CommandLen
	switch ownerProfile.Transport {
	case device.TransportMQTT:
		return s.broker.Publish(ownerLabel, device.CommandTopic(label), []byte(attr+"="+value), padTo, timeout,
			outcome(label, attr, value, done))
	case device.TransportHTTPLong:
		return s.http.Command(ownerLabel, "/command", device.EncodeBody(label, attr, value), padTo, timeout,
			outcome(label, attr, value, done))
	default:
		return fmt.Errorf("cloud: cannot command %q over transport %v", label, ownerProfile.Transport)
	}
}

func (s *EndpointServer) onMQTTPublish(sess *mqttsim.Session, pkt mqttsim.Packet) {
	label, ok := eventOrigin(pkt.Topic)
	if !ok {
		return
	}
	attr, value, ok := cutEq(string(pkt.Payload))
	if !ok {
		return
	}
	s.accept(rules.Event{
		Device:      label,
		Attribute:   attr,
		Value:       value,
		GeneratedAt: pkt.Timestamp,
		ReceivedAt:  s.clk.Now(),
	})
}

func (s *EndpointServer) onHTTPRequest(sess *httpsim.Session, m httpsim.Message) {
	if m.Path != "/event" {
		return
	}
	origin, attr, value, err := device.DecodeBody(m.Body)
	if err != nil {
		return
	}
	s.accept(rules.Event{
		Device:      origin,
		Attribute:   attr,
		Value:       value,
		GeneratedAt: m.Timestamp,
		ReceivedAt:  s.clk.Now(),
	})
}

// accept runs the endpoint's acceptance policy on a parsed device event:
// vendors with server-side dedup discard events they have already accepted
// (matching device, attribute, value and generation timestamp), everything
// else forwards to the integration server.
func (s *EndpointServer) accept(ev rules.Event) {
	if s.profiles[ev.Device].CloudDedup && s.duplicate(ev) {
		s.dedupDrops.Inc()
		if s.trace != nil {
			s.trace.Emit(s.clk.Now(), "cloud", "event_deduped", ev.Device+":"+ev.Attribute+"="+ev.Value, int64(ev.GeneratedAt))
		}
		return
	}
	s.forward(ev)
}

// dedupRingSize bounds the accepted-event memory per endpoint; the oldest
// key falls out when the ring wraps, mirroring the bounded dedup caches
// real event ingestion pipelines run.
const dedupRingSize = 128

// eventKey identifies an accepted event for replay suppression.
type eventKey struct {
	device, attr, value string
	generatedAt         simtime.Time
}

// duplicate reports whether ev was already accepted, recording it if not.
func (s *EndpointServer) duplicate(ev rules.Event) bool {
	k := eventKey{ev.Device, ev.Attribute, ev.Value, ev.GeneratedAt}
	if s.dedupSeen[k] {
		return true
	}
	if s.dedupRing == nil {
		s.dedupRing = make([]eventKey, dedupRingSize)
	}
	pos := s.dedupN % dedupRingSize
	if s.dedupN >= dedupRingSize {
		delete(s.dedupSeen, s.dedupRing[pos])
	}
	s.dedupRing[pos] = k
	s.dedupSeen[k] = true
	s.dedupN++
	return false
}

func (s *EndpointServer) forward(ev rules.Event) {
	if s.OnEvent == nil {
		return
	}
	s.clk.Schedule(s.cfg.CloudToCloudLatency, func() { s.OnEvent(ev) })
}

func eventOrigin(topic string) (string, bool) {
	const suffix = "/event"
	if len(topic) <= len(suffix) || topic[len(topic)-len(suffix):] != suffix {
		return "", false
	}
	return topic[:len(topic)-len(suffix)], true
}

func cutEq(s string) (string, string, bool) {
	for i := 0; i < len(s); i++ {
		if s[i] == '=' {
			return s[:i], s[i+1:], true
		}
	}
	return "", "", false
}
