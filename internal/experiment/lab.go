package experiment

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/simtime"
)

// NewLab builds the attacker's profiling environment for a device: a
// hijacked lab home where the attacker owns the device and can trigger
// its events and commands (Section IV-C's one-time, per-model effort).
func (tb *Testbed) NewLab(h *core.Hijacker, label string) (*core.Lab, error) {
	d, ok := tb.Devices[label]
	if !ok {
		return nil, fmt.Errorf("experiment: device %q not deployed", label)
	}
	p := d.Profile()
	lab := &core.Lab{
		Clock:       tb.Clock,
		Hijacker:    h,
		EventOrigin: label,
	}
	// Alternate through the device's reportable values so each trigger is
	// a genuine state change.
	i := 0
	lab.TriggerEvent = func() error {
		v := p.EventValues[i%len(p.EventValues)]
		i++
		return d.TriggerEvent(p.EventAttr, v)
	}
	if p.CommandAttr != "" {
		owner, err := tb.sessionProfile(p)
		if err != nil {
			return nil, err
		}
		j := 0
		if owner.Transport == device.TransportHAP {
			lab.CommandOrigin = label
			lab.TriggerCommand = func() error {
				v := p.EventValues[j%len(p.EventValues)]
				j++
				return tb.LocalHub.SendCommand(label, p.CommandAttr, v, nil)
			}
			lab.ServerAlarmAt = func() (simtime.Time, bool) {
				alarms := tb.LocalHub.Alarms()
				if len(alarms) == 0 {
					return 0, false
				}
				return alarms[len(alarms)-1].At, true
			}
		} else {
			ep, ok := tb.Endpoints[owner.ServerDomain]
			if !ok {
				return nil, fmt.Errorf("experiment: no endpoint for %s", owner.ServerDomain)
			}
			lab.CommandOrigin = label
			lab.TriggerCommand = func() error {
				v := p.EventValues[j%len(p.EventValues)]
				j++
				return ep.SendCommand(label, p.CommandAttr, v, nil)
			}
		}
	}
	return lab, nil
}

// HoldFacts is what one hold trial observed. It carries no verdict: each
// caller judges the trial by its own rule.
type HoldFacts struct {
	// Released reports that the hold ended by release, before the limit
	// or during the settle after it.
	Released bool
	// Held is how long the message was held; zero unless Released.
	Held time.Duration
	// Accepted reports that the automation servers accepted an event from
	// the trial's origin during the trial.
	Accepted bool
	// NewAlarms counts the server-side alarms raised during the trial.
	NewAlarms int
}

// HoldTrial runs one hold trial: it fires trigger, steps the clock until op
// releases or limit passes, lets the release settle for 5 s and reports
// what happened (Section IV-C's hold, checked as in Section VI-C). op must
// be armed and not yet matched; HoldTrial takes over its OnReleased hook.
func (tb *Testbed) HoldTrial(op *core.DelayOp, trigger func() error, origin string, limit time.Duration) (HoldFacts, error) {
	var f HoldFacts
	op.OnReleased = func(d time.Duration) { f.Released, f.Held = true, d }
	alarms, accepted := tb.TotalAlarmCount(), tb.AcceptedEventCount(origin)
	if err := trigger(); err != nil {
		return f, err
	}
	tb.Clock.StepUntil(tb.Clock.Now()+limit, func() bool { return f.Released })
	tb.Clock.RunFor(5 * time.Second)
	f.Accepted = tb.AcceptedEventCount(origin) > accepted
	f.NewAlarms = tb.TotalAlarmCount() - alarms
	return f, nil
}
