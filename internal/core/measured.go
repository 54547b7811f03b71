package core

import (
	"fmt"
	"time"

	"repro/internal/proto"
	"repro/internal/simtime"
	"repro/internal/sniff"
)

// Measured is a device's timeout behaviour as derived by the attacker —
// the three parameters of Section IV-B plus the observations needed to
// apply them. It is the profiler's output and the predictor's input.
type Measured struct {
	// Model is the session-owning device label.
	Model string
	// HasKeepAlive reports whether the session exchanges keep-alives.
	HasKeepAlive bool
	// KeepAlivePeriod and Pattern describe the keep-alive schedule.
	KeepAlivePeriod time.Duration
	Pattern         proto.Pattern
	// KeepAliveTimeout is the device-side response deadline for a
	// keep-alive (time from delaying one to session teardown).
	KeepAliveTimeout time.Duration
	// EventTimeout is the dedicated normal-message timeout; zero means
	// none was observed (the "∞" rows).
	EventTimeout time.Duration
	// CommandTimeout is the server-side command response deadline; zero
	// means none was observed.
	CommandTimeout time.Duration
	// ServerIdleTimeout bounds on-demand session lifetime at the server
	// (zero if unknown / not applicable).
	ServerIdleTimeout time.Duration
	// OnDemand reports that the device uses per-event sessions.
	OnDemand bool
}

// EventWindow returns the e-Delay window [min, max] the parameters allow,
// following Section IV-C:
//
//   - a dedicated event timeout bounds the delay directly;
//   - otherwise the window runs until the session's next keep-alive would
//     time out: for on-idle patterns the event resets the schedule, giving
//     a constant period+timeout window; for fixed patterns the window
//     depends on the phase and spans [timeout, period+timeout];
//   - on-demand devices are bounded only by the server's idle timeout
//     (Finding 1), and HAP devices by nothing at all.
//
// bounded is false when no timeout limits the delay (HomeKit-style
// events). When both a dedicated event timeout and a keep-alive bound
// exist, the earlier one wins: a held event also stalls the keep-alives
// queued behind it, so whichever timer fires first ends the session.
func (m Measured) EventWindow() (min, max time.Duration, bounded bool) {
	if m.OnDemand {
		if m.ServerIdleTimeout > 0 {
			return m.ServerIdleTimeout, m.ServerIdleTimeout, true
		}
		return 0, 0, false
	}
	var kaMin, kaMax time.Duration
	kaBounded := false
	if m.HasKeepAlive && m.KeepAlivePeriod > 0 {
		kaBounded = true
		if m.Pattern == proto.PatternOnIdle {
			kaMin = m.KeepAlivePeriod + m.KeepAliveTimeout
			kaMax = kaMin
		} else {
			kaMin = m.KeepAliveTimeout
			kaMax = m.KeepAlivePeriod + m.KeepAliveTimeout
		}
	}
	switch {
	case m.EventTimeout > 0 && kaBounded:
		return minDur(m.EventTimeout, kaMin), minDur(m.EventTimeout, kaMax), true
	case m.EventTimeout > 0:
		return m.EventTimeout, m.EventTimeout, true
	case kaBounded:
		return kaMin, kaMax, true
	default:
		return 0, 0, false
	}
}

func minDur(a, b time.Duration) time.Duration {
	if a < b {
		return a
	}
	return b
}

// CommandWindow returns the c-Delay window the parameters allow. The
// command timeout is still capped by the keep-alive bound: holding the
// server-to-device direction also stalls keep-alive responses.
func (m Measured) CommandWindow() (min, max time.Duration, bounded bool) {
	n := m
	n.EventTimeout = m.CommandTimeout
	n.OnDemand = false
	return n.EventWindow()
}

// String summarises the profile as a Table I row fragment.
func (m Measured) String() string {
	ka := "none"
	if m.HasKeepAlive {
		ka = fmt.Sprintf("%v/%s to=%v", m.KeepAlivePeriod, m.Pattern, m.KeepAliveTimeout)
	}
	ev := "∞"
	if m.EventTimeout > 0 {
		ev = m.EventTimeout.String()
	}
	cmd := "∞"
	if m.CommandTimeout > 0 {
		cmd = m.CommandTimeout.String()
	}
	return fmt.Sprintf("%s keepalive=%s event=%s command=%s", m.Model, ka, ev, cmd)
}

// Predictor forecasts when a session timeout would fire if a hold started
// now, from the measured parameters plus live observations of the
// session's traffic (keep-alive phase, last device send).
type Predictor struct {
	m Measured

	lastC2S simtime.Time
	lastKA  simtime.Time
	seenKA  bool
	seenC2S bool
	// kaOutstanding marks a keep-alive request whose response has not yet
	// flowed back: holding the server direction now would strand it.
	kaOutstanding bool
}

// NewPredictor creates a predictor for the measured profile.
func NewPredictor(m Measured) *Predictor { return &Predictor{m: m} }

// Measured returns the profile the predictor runs on.
func (p *Predictor) Measured() Measured { return p.m }

// Observe feeds one classified record (the hijacker calls this for every
// record crossing its bridges).
func (p *Predictor) Observe(cr ClassifiedRecord) {
	if cr.Dir == sniff.DirServerToClient {
		// Any server record clears the pending keep-alive response (the
		// response is the next thing the server sends after the request).
		p.kaOutstanding = false
		return
	}
	p.lastC2S = cr.At
	p.seenC2S = true
	if cr.Known && cr.Msg.Kind == sniff.KindKeepAlive {
		p.lastKA = cr.At
		p.seenKA = true
		p.kaOutstanding = true
	}
}

// PredictClose forecasts the session-teardown instant if a record of the
// given kind is held from holdStart onward (with everything behind it).
// bounded is false when nothing would ever fire.
func (p *Predictor) PredictClose(holdStart simtime.Time, kind sniff.MsgKind) (simtime.Time, bool) {
	var bounds []simtime.Time
	if p.m.OnDemand && p.m.ServerIdleTimeout > 0 && kind == sniff.KindEvent {
		// The server reaps the idle session; the device-side 408 earlier is
		// harmless (Finding 1), so only the server bound limits delivery.
		bounds = append(bounds, holdStart+p.m.ServerIdleTimeout)
	}
	if kind == sniff.KindEvent && p.m.EventTimeout > 0 && !p.m.OnDemand {
		bounds = append(bounds, holdStart+p.m.EventTimeout)
	}
	if kind == sniff.KindCommand && p.m.CommandTimeout > 0 {
		bounds = append(bounds, holdStart+p.m.CommandTimeout)
	}
	if ka, ok := p.keepAliveBound(holdStart, kind); ok {
		bounds = append(bounds, ka)
	}
	if len(bounds) == 0 {
		return 0, false
	}
	min := bounds[0]
	for _, b := range bounds[1:] {
		if b < min {
			min = b
		}
	}
	return min, true
}

// keepAliveBound computes when the keep-alive machinery would tear the
// session down given a hold starting at holdStart.
//
// Holding the device-to-server direction delays the device's next
// keep-alive request; holding server-to-device delays its response. Either
// way the device's deadline fires KeepAliveTimeout after the first
// keep-alive it sends at or after holdStart.
func (p *Predictor) keepAliveBound(holdStart simtime.Time, kind sniff.MsgKind) (simtime.Time, bool) {
	if !p.m.HasKeepAlive || p.m.KeepAlivePeriod <= 0 {
		return 0, false
	}
	// A server-direction hold (command delay) that starts while a
	// keep-alive response is in flight strands that response: the device's
	// deadline runs from the *request* it already sent.
	if kind == sniff.KindCommand && p.kaOutstanding && p.seenKA {
		return p.lastKA + p.m.KeepAliveTimeout, true
	}
	var nextKA simtime.Time
	switch p.m.Pattern {
	case proto.PatternOnIdle:
		// The device's schedule resets on its last send. For an event
		// delay, the held event itself is that send; for a command delay,
		// the device keeps its own anchor.
		last := p.lastC2S
		if !p.seenC2S || (kind == sniff.KindEvent && holdStart > last) {
			last = holdStart
		}
		nextKA = last + p.m.KeepAlivePeriod
	default: // fixed schedule anchored at the last observed keep-alive
		anchor := p.lastKA
		if !p.seenKA {
			anchor = holdStart
		}
		nextKA = anchor + p.m.KeepAlivePeriod
		for nextKA < holdStart {
			nextKA += p.m.KeepAlivePeriod
		}
	}
	return nextKA + p.m.KeepAliveTimeout, true
}
