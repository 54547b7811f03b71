package experiment

import (
	"fmt"

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
