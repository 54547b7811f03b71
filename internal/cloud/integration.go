package cloud

import (
	"fmt"
	"time"

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
	ruleRunner
	cfg       IntegrationConfig
	endpoints map[string]*EndpointServer // domain -> endpoint
	routes    map[string]string          // device label -> domain

	discarded []rules.Event
	alarms    proto.AlarmLog
}

// NewIntegrationServer creates the automation server.
func NewIntegrationServer(clk *simtime.Clock, cfg IntegrationConfig) *IntegrationServer {
	if cfg.Policy == 0 {
		cfg.Policy = StaleAccept
	}
	s := &IntegrationServer{
		cfg:       cfg,
		endpoints: make(map[string]*EndpointServer),
		routes:    make(map[string]string),
	}
	s.ruleRunner.init(clk, s)
	return s
}

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

// Discarded returns events dropped by the staleness policy.
func (s *IntegrationServer) Discarded() []rules.Event {
	out := make([]rules.Event, len(s.discarded))
	copy(out, s.discarded)
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
	s.accept(ev)
}

// SendCommand delivers a command to a device through the endpoint that
// serves it. done may be nil.
func (s *IntegrationServer) SendCommand(label, attr, value string, done func(CommandOutcome)) error {
	ep, ok := s.endpoints[s.routes[label]]
	if !ok {
		return fmt.Errorf("cloud: no endpoint serves %q", label)
	}
	return ep.SendCommand(label, attr, value, done)
}
