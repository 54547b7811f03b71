package experiment

import (
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/rules"
)

// Reuse hooks: the exported surface other subsystems (notably
// internal/fleet's campaign engine) build on to drive testbeds without
// duplicating the experiment package's wiring.

// InstallRule installs a TCA rule on the right automation server for its
// trigger device: rules over local (HAP) devices run on the local hub,
// everything else on the integration server.
func (tb *Testbed) InstallRule(r rules.Rule) error {
	if tb.LocalHub != nil {
		if p, ok := tb.profile(r.Trigger.Device); ok && p.ServerDomain == "local" {
			return tb.LocalHub.AddRule(r)
		}
	}
	return tb.Integration.AddRule(r)
}

// AcceptedEventCount reports how many events from the given origin device
// the automation servers have accepted so far — the ground truth for "did
// the delayed message still land".
func (tb *Testbed) AcceptedEventCount(origin string) int {
	n := tb.Integration.EventCount(origin)
	if tb.LocalHub != nil {
		n += tb.LocalHub.EventCount(origin)
	}
	return n
}

// SessionOwnerProfile resolves the deployed (override-adjusted) profile of
// the session owner for a label: the device itself, or its hub for via-hub
// devices.
func (tb *Testbed) SessionOwnerProfile(label string) device.Profile {
	if d := tb.SessionOwner(label); d != nil {
		return d.Profile()
	}
	return tb.Profile(label)
}

// MeasuredFromProfile converts ground truth into the attacker's measured
// form — what an attacker who already profiled this model (the paper's
// one-time per-model effort) would arm its predictor with, and what
// experiments use where re-running the profiler would only reproduce it.
func MeasuredFromProfile(p device.Profile) core.Measured {
	return core.Measured{
		Model:             p.Label,
		HasKeepAlive:      p.KeepAlivePeriod > 0,
		KeepAlivePeriod:   p.KeepAlivePeriod,
		Pattern:           p.KeepAlivePattern,
		KeepAliveTimeout:  p.KeepAliveTimeout,
		EventTimeout:      p.EventTimeout,
		CommandTimeout:    p.CommandTimeout,
		ServerIdleTimeout: p.ServerIdleTimeout,
		OnDemand:          p.Transport == device.TransportHTTPOnDemand,
	}
}
