package experiment

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/replay"
	"repro/internal/simtime"
	"repro/internal/sniff"
	"repro/internal/tcpsim"
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
				a, ok := tb.LocalHub.LastAlarm()
				return a.At, ok
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

// releaseMargin is how long before a predicted timeout a maximum stealthy
// delay releases: the paper's Section VI-C margin.
const releaseMargin = 2 * time.Second

// HijackLab is the one-device attack set-up: a new attacker hijacks label's
// session, the home starts, and the returned lab triggers label's events
// and commands. A set-up that needs a step between the hijack and the
// start, or more than one hijack, runs the steps itself.
func (tb *Testbed) HijackLab(label string) (*core.Hijacker, *core.Lab, error) {
	atk, err := tb.NewAttacker()
	if err != nil {
		return nil, nil, err
	}
	h, err := tb.Hijack(atk, label)
	if err != nil {
		return nil, nil, err
	}
	tb.Start()
	lab, err := tb.NewLab(h, label)
	if err != nil {
		return nil, nil, err
	}
	return h, lab, nil
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
	// Unbounded reports that the armed predictor knew no timeout bounding
	// the held message's window, so the hold lasted DelayTrial's hold
	// instead of ending at the margin.
	Unbounded bool
}

// DelayTrial runs one maximum stealthy delay (Section IV-C) of lab's next
// event, or of its next command when command is set. When the window of
// h's armed predictor is bounded, the hold releases margin before the
// predicted timeout; otherwise it lasts hold (zero: until the caller
// releases it). limit bounds the wait for the release, as in holdTrial.
func (tb *Testbed) DelayTrial(h *core.Hijacker, lab *core.Lab, command bool, margin, hold, limit time.Duration) (HoldFacts, error) {
	m := h.Predictor().Measured()
	origin, trigger := lab.EventOrigin, lab.TriggerEvent
	_, _, bounded := m.EventWindow()
	maxDelay, delay := h.MaxEDelay, h.EDelay
	if command {
		if lab.TriggerCommand == nil {
			return HoldFacts{}, fmt.Errorf("experiment: %s takes no commands", lab.EventOrigin)
		}
		origin, trigger = lab.CommandOrigin, lab.TriggerCommand
		_, _, bounded = m.CommandWindow()
		maxDelay, delay = h.MaxCDelay, h.CDelay
	}
	var op *core.DelayOp
	if bounded {
		op = maxDelay(origin, margin)
	} else {
		op = delay(origin, hold)
	}
	f, err := tb.holdTrial(op, trigger, origin, limit)
	f.Unbounded = !bounded
	return f, err
}

// holdTrial runs one hold trial: it fires trigger, steps the clock until op
// releases or limit passes, lets the release settle for 5 s and reports
// what happened (Section IV-C's hold, checked as in Section VI-C). op must
// be armed and not yet matched; holdTrial takes over its OnReleased hook.
func (tb *Testbed) holdTrial(op *core.DelayOp, trigger func() error, origin string, limit time.Duration) (HoldFacts, error) {
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

// ReplayFacts is what one replay trial observed. Like HoldFacts it carries
// no verdict.
type ReplayFacts struct {
	// Found reports that the attacker's capture still held the record of
	// the trial's event.
	Found bool
	// RawAccepted reports that re-injecting that record on the live
	// session landed a duplicate event.
	RawAccepted bool
	// AppAccepted reports that replaying the capture's readable
	// plaintexts from a fresh attacker session landed a duplicate event.
	AppAccepted bool
}

// ReplayTrial runs one record-and-replay attempt (DESIGN.md §12): it fires
// one event from lab's origin, lets it cross for 3 s and finds its record
// in capture, which must retain payloads and have watched the session
// open (NewCapture before Start). It then tries raw injection on h's live
// session when raw is set and, only if that was not accepted, the
// application-layer replay when app is set, settling 5 s after each
// injection. A record the capture no longer holds is a fact (Found
// false), not an error.
func (tb *Testbed) ReplayTrial(h *core.Hijacker, lab *core.Lab, capture *sniff.Capture, raw, app bool) (ReplayFacts, error) {
	var f ReplayFacts
	origin := lab.EventOrigin
	eng := replay.NewEngine(h.Attacker())
	eng.Instrument(tb.Metrics)
	if err := lab.TriggerEvent(); err != nil {
		return f, err
	}
	// The wait covers delivery, cloud-to-cloud forwarding and, for
	// on-demand devices, the burst connection's teardown, so the raw path
	// sees the session state a real attacker would.
	tb.Clock.RunFor(3 * time.Second)

	records := capture.Records()
	owner := tb.SessionOwnerProfile(origin).Label
	idx, ok := replay.FindEventRecord(sniff.CatalogClassifier(), owner, origin, records)
	if !ok {
		return f, nil
	}
	f.Found = true
	// inject runs one injection and reports whether the duplicate landed.
	inject := func(try func() error) bool {
		before := tb.AcceptedEventCount(origin)
		if try() != nil {
			return false
		}
		tb.Clock.RunFor(5 * time.Second)
		accepted := tb.AcceptedEventCount(origin) > before
		eng.ReportOutcome(origin, accepted)
		return accepted
	}
	if raw {
		f.RawAccepted = inject(func() error { return eng.RawReplay(h, records[idx]) })
	}
	// AppReplay fails with ErrNotReadable, before any connection, when
	// the capture is not readable.
	if app && !f.RawAccepted {
		target := h.Target()
		server := tcpsim.Endpoint{Addr: target.ServerAddr, Port: target.ServerPort}
		f.AppAccepted = inject(func() error {
			_, err := eng.AppReplay(server, replay.SessionPrefix(records, idx))
			return err
		})
	}
	return f, nil
}
