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
func (tb *Testbed) InstallRule(r rules.Rule) error { return installRule(tb, r) }

// AcceptedEventCount reports how many events from the given origin device
// the automation servers have accepted so far — the ground truth for "did
// the delayed message still land".
func (tb *Testbed) AcceptedEventCount(origin string) int { return countAccepted(tb, origin) }

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
// one-time per-model effort) would arm its predictor with.
func MeasuredFromProfile(p device.Profile) core.Measured { return measuredFromProfile(p) }
