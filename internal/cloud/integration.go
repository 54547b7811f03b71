package cloud

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/rules"
	"repro/internal/simtime"
)

// StalenessPolicy controls what an automation server does with events that
// were generated long before they arrived.
type StalenessPolicy int

// Staleness policies.
const (
	// StaleAccept processes every event regardless of age — the default
	// behaviour of the platforms the paper measured.
	StaleAccept StalenessPolicy = iota + 1
	// StaleDiscardSilently drops over-age events without any notice — the
	// Alexa behaviour from Case 4, which lets attackers permanently
	// disable safety routines.
	StaleDiscardSilently
	// StaleRejectAlert drops over-age events and raises an alarm — the
	// Section VII-B timestamp-checking countermeasure.
	StaleRejectAlert
)

// String names the policy.
func (p StalenessPolicy) String() string {
	switch p {
	case StaleAccept:
		return "accept"
	case StaleDiscardSilently:
		return "discard-silently"
	case StaleRejectAlert:
		return "reject-alert"
	default:
		return "unknown"
	}
}

// Notification is a user-visible push message (the Type-I observable).
type Notification struct {
	At      simtime.Time
	Message string
	Cause   rules.Event
}

// Latency returns how long after the physical occurrence the user was
// told about it.
func (n Notification) Latency() time.Duration { return n.At - n.Cause.GeneratedAt }

// CommandRecord logs one command issued by the integration server.
type CommandRecord struct {
	IssuedAt  simtime.Time
	Device    string
	Attribute string
	Value     string
	Outcome   *CommandOutcome // nil until resolved
}

// IntegrationConfig parameterises the automation server.
type IntegrationConfig struct {
	// Policy selects staleness handling. Default StaleAccept.
	Policy StalenessPolicy
	// MaxEventAge is the staleness threshold for non-accept policies
	// (Alexa's observed value is 30s).
	MaxEventAge time.Duration
}

// IntegrationServer executes automation rules over events forwarded by
// endpoint servers and issues commands back through them.
type IntegrationServer struct {
	clk       *simtime.Clock
	cfg       IntegrationConfig
	engine    *rules.Engine
	endpoints map[string]*EndpointServer // domain -> endpoint
	routes    map[string]string          // device label -> domain

	events        []rules.Event
	discarded     []rules.Event
	notifications []Notification
	commands      []*CommandRecord
	alarms        proto.AlarmLog
	trace         *obs.Trace
}

// NewIntegrationServer creates the automation server.
func NewIntegrationServer(clk *simtime.Clock, cfg IntegrationConfig) *IntegrationServer {
	if cfg.Policy == 0 {
		cfg.Policy = StaleAccept
	}
	s := &IntegrationServer{
		clk:       clk,
		cfg:       cfg,
		engine:    rules.NewEngine(clk),
		endpoints: make(map[string]*EndpointServer),
		routes:    make(map[string]string),
	}
	s.engine.Execute = s.execute
	return s
}

// Instrument attaches the registry's trace ring (when enabled) so the
// server emits "cloud" events: event_accepted, event_discarded, alarm and
// rule_fired — the automation-visible tail of every phantom delay.
func (s *IntegrationServer) Instrument(reg *obs.Registry) {
	if tr := reg.Trace(); tr.Enabled() {
		s.trace = tr
	}
}

func (s *IntegrationServer) emit(event, detail string, value int64) {
	if s.trace == nil {
		return
	}
	s.trace.Emit(s.clk.Now(), "cloud", event, detail, value)
}

// Engine exposes the rule engine (for installing rules and inspection).
func (s *IntegrationServer) Engine() *rules.Engine { return s.engine }

// AttachEndpoint links a vendor endpoint; its events flow here and its
// devices become commandable.
func (s *IntegrationServer) AttachEndpoint(ep *EndpointServer) {
	s.endpoints[ep.Domain()] = ep
	ep.OnEvent = s.Ingest
}

// RouteDevice records which endpoint serves a device.
func (s *IntegrationServer) RouteDevice(label, domain string) {
	s.routes[label] = domain
}

// AddRule installs an automation rule.
func (s *IntegrationServer) AddRule(r rules.Rule) error { return s.engine.AddRule(r) }

// Events returns every event the server processed.
func (s *IntegrationServer) Events() []rules.Event {
	out := make([]rules.Event, len(s.events))
	copy(out, s.events)
	return out
}

// Discarded returns events dropped by the staleness policy.
func (s *IntegrationServer) Discarded() []rules.Event {
	out := make([]rules.Event, len(s.discarded))
	copy(out, s.discarded)
	return out
}

// Notifications returns the user-visible pushes so far.
func (s *IntegrationServer) Notifications() []Notification {
	out := make([]Notification, len(s.notifications))
	copy(out, s.notifications)
	return out
}

// Commands returns the issued command log.
func (s *IntegrationServer) Commands() []*CommandRecord {
	out := make([]*CommandRecord, len(s.commands))
	copy(out, s.commands)
	return out
}

// Alarms returns integration-level alarms (staleness rejections).
func (s *IntegrationServer) Alarms() []proto.Alarm { return s.alarms.All() }

// TotalAlarmCount sums integration and endpoint alarms — the
// "did anything notice?" metric of every attack experiment.
func (s *IntegrationServer) TotalAlarmCount() int {
	n := s.alarms.Count()
	for _, ep := range s.endpoints {
		n += ep.AlarmCount()
	}
	return n
}

// Ingest processes one event from an endpoint.
func (s *IntegrationServer) Ingest(ev rules.Event) {
	ev.ReceivedAt = s.clk.Now()
	if s.cfg.Policy != StaleAccept && s.cfg.MaxEventAge > 0 {
		if age := ev.ReceivedAt - ev.GeneratedAt; age > s.cfg.MaxEventAge {
			s.discarded = append(s.discarded, ev)
			if s.trace != nil {
				s.emit("event_discarded", ev.Device+"/"+ev.Attribute, int64(age))
			}
			if s.cfg.Policy == StaleRejectAlert {
				s.emit("alarm", ev.Device+":stale-event", int64(age))
				s.alarms.Raise(s.clk.Now(), ev.Device, "stale-event",
					fmt.Sprintf("%s.%s=%s aged %v", ev.Device, ev.Attribute, ev.Value, age))
			}
			return
		}
	}
	if s.trace != nil {
		s.emit("event_accepted", ev.Device+"/"+ev.Attribute, int64(ev.ReceivedAt-ev.GeneratedAt))
	}
	s.events = append(s.events, ev)
	s.engine.HandleEvent(ev)
}

func (s *IntegrationServer) execute(a rules.Action, cause rules.Event) {
	switch a.Kind {
	case rules.ActionNotify:
		if s.trace != nil {
			s.emit("rule_fired", "notify:"+a.Message, int64(s.clk.Now()-cause.GeneratedAt))
		}
		s.notifications = append(s.notifications, Notification{
			At:      s.clk.Now(),
			Message: a.Message,
			Cause:   cause,
		})
	case rules.ActionCommand:
		if s.trace != nil {
			s.emit("rule_fired", "command:"+a.Device+"."+a.Attribute+"="+a.Value, int64(s.clk.Now()-cause.GeneratedAt))
		}
		rec := &CommandRecord{
			IssuedAt:  s.clk.Now(),
			Device:    a.Device,
			Attribute: a.Attribute,
			Value:     a.Value,
		}
		s.commands = append(s.commands, rec)
		domain, ok := s.routes[a.Device]
		if !ok {
			return
		}
		ep, ok := s.endpoints[domain]
		if !ok {
			return
		}
		// Dispatch failures (device offline) leave Outcome nil, which the
		// experiment reports as an unexecuted action.
		_ = ep.SendCommand(a.Device, a.Attribute, a.Value, func(o CommandOutcome) {
			rec.Outcome = &o
		})
	}
}
