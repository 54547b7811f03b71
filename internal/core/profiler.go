package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/proto"
	"repro/internal/simtime"
	"repro/internal/sniff"
	"repro/internal/tlssim"
)

// Lab is the attacker's controlled environment for profiling a device
// model's timeout behaviour (Section IV-C): the attacker owns a copy of
// the device, can trigger its events and commands at will, and measures
// when delays cause session teardowns. The resulting Measured profile is
// then reused against victims of the same model.
type Lab struct {
	Clock    *simtime.Clock
	Hijacker *Hijacker

	// TriggerEvent makes the lab device emit one event.
	TriggerEvent func() error
	// TriggerCommand makes the lab server issue one command toward the
	// device. Nil for pure sensors.
	TriggerCommand func() error
	// EventOrigin/CommandOrigin are the fingerprint origins of the
	// triggered messages. CommandOrigin is read only with TriggerCommand.
	EventOrigin   string
	CommandOrigin string
	// ServerAlarmAt reports the latest lab-server alarm, if any — the
	// observable for command timeouts on servers that alarm without
	// closing (the HomeKit hub). Optional.
	ServerAlarmAt func() (simtime.Time, bool)

	// Trials per message class. Default 5 (the paper uses 20; pass 20 for
	// the table reproduction).
	Trials int
	// Recovery is the inter-trial settling time. Default 2 minutes, as in
	// the paper.
	Recovery time.Duration
}

const (
	// idleObservation bounds the keep-alive discovery phase.
	idleObservation = 10 * time.Minute
	// unboundedCap is how long a hold runs before the profiler declares
	// "no timeout".
	unboundedCap = 15 * time.Minute
)

// ErrNoSession reports that the lab device never connected through the
// hijacker.
var ErrNoSession = errors.New("core: lab device has no hijacked session")

func (l *Lab) fill() {
	if l.Trials <= 0 {
		l.Trials = 5
	}
	if l.Recovery <= 0 {
		l.Recovery = 2 * time.Minute
	}
}

// Profile runs the full Section IV-C procedure and returns the measured
// parameters. It drives the simulation clock.
func (l *Lab) Profile() (Measured, error) {
	l.fill()
	m := Measured{Model: l.Hijacker.Target().Model}

	// Step 1: observe idle traffic; find the keep-alive length and period,
	// or conclude the device uses on-demand sessions.
	kaLen, period, hasKA := l.observeKeepAlive()
	m.HasKeepAlive = hasKA
	m.KeepAlivePeriod = period
	if !hasKA {
		if _, alive := l.Hijacker.CurrentBridge(); !alive {
			m.OnDemand = true
		}
	}

	// Step 2: determine the keep-alive pattern by checking whether a
	// normal message postpones the next keep-alive.
	if hasKA {
		pattern, err := l.measurePattern(kaLen, period)
		if err != nil {
			return m, err
		}
		m.Pattern = pattern

		// Step 3: delay a keep-alive in an idle state until timeout.
		kaTimeout, err := l.measureKeepAliveTimeout()
		if err != nil {
			return m, err
		}
		m.KeepAliveTimeout = kaTimeout
	}

	// Step 4: delay event messages right after a keep-alive exchange; a
	// teardown earlier than the keep-alive bound reveals a dedicated
	// normal-message timeout.
	if l.TriggerEvent != nil {
		evTimeout, srvIdle, err := l.measureEventTimeout(m)
		if err != nil {
			return m, err
		}
		m.EventTimeout = evTimeout
		if m.OnDemand {
			m.ServerIdleTimeout = srvIdle
		}
	}

	// Step 4': same procedure for command messages (server-side timers).
	if l.TriggerCommand != nil {
		cmdTimeout, err := l.measureCommandTimeout(m)
		if err != nil {
			return m, err
		}
		m.CommandTimeout = cmdTimeout
	}
	return m, nil
}

// observeKeepAlive watches idle traffic for repeating device-to-server
// records.
func (l *Lab) observeKeepAlive() (wireLen int, period time.Duration, ok bool) {
	type obs struct {
		at  simtime.Time
		len int
	}
	var seen []obs
	restore := l.hookRecords(func(_ *Bridge, r ClassifiedRecord) {
		if r.Dir == sniff.DirClientToServer && r.Type == tlssim.RecordApplication {
			seen = append(seen, obs{at: r.At, len: r.WireLen})
		}
	})
	l.Clock.RunFor(idleObservation)
	restore()

	byLen := make(map[int][]simtime.Time)
	for _, o := range seen {
		byLen[o.len] = append(byLen[o.len], o.at)
	}
	best, bestLen := 0, 0
	for ln, ts := range byLen {
		if len(ts) > best || (len(ts) == best && ln < bestLen) {
			best, bestLen = len(ts), ln
		}
	}
	if best < 3 {
		return 0, 0, false
	}
	ts := byLen[bestLen]
	gaps := make([]time.Duration, 0, len(ts)-1)
	for i := 1; i < len(ts); i++ {
		gaps = append(gaps, ts[i]-ts[i-1])
	}
	return bestLen, median(gaps), true
}

// measurePattern triggers an event mid-period and checks whether the next
// keep-alive shifted (on-idle) or stayed on schedule (fixed).
func (l *Lab) measurePattern(kaLen int, period time.Duration) (proto.Pattern, error) {
	var kaTimes []simtime.Time
	restore := l.hookRecords(func(_ *Bridge, r ClassifiedRecord) {
		if r.Dir == sniff.DirClientToServer && r.WireLen == kaLen {
			kaTimes = append(kaTimes, r.At)
		}
	})
	defer restore()

	// Wait for a keep-alive to anchor the schedule.
	if !l.Clock.StepUntil(l.Clock.Now()+2*period+idleObservation, func() bool { return len(kaTimes) > 0 }) {
		return 0, fmt.Errorf("core: no keep-alive observed while measuring pattern")
	}
	anchor := kaTimes[len(kaTimes)-1]
	// Fire an event a third of the way into the period.
	l.Clock.RunUntil(anchor + period/3)
	if err := l.TriggerEvent(); err != nil {
		return 0, err
	}
	eventAt := l.Clock.Now()
	seen := len(kaTimes)
	if !l.Clock.StepUntil(l.Clock.Now()+2*period+time.Minute, func() bool { return len(kaTimes) > seen }) {
		return 0, fmt.Errorf("core: no keep-alive after probe event")
	}
	nextKA := kaTimes[len(kaTimes)-1]
	// On-idle: the event pushed the schedule to event+period.
	// Fixed: the keep-alive stayed at anchor+period.
	distOnIdle := absDur(nextKA - (eventAt + period))
	distFixed := absDur(nextKA - (anchor + period))
	if distOnIdle < distFixed {
		return proto.PatternOnIdle, nil
	}
	return proto.PatternFixed, nil
}

// measureKeepAliveTimeout holds keep-alives until the device tears the
// session down, over several trials.
func (l *Lab) measureKeepAliveTimeout() (time.Duration, error) {
	var samples []time.Duration
	for i := 0; i < l.Trials; i++ {
		op := l.Hijacker.DelayKeepAlive()
		if !l.waitMatched(op, idleObservation) {
			return 0, fmt.Errorf("core: keep-alive never captured (trial %d)", i)
		}
		_, matchedAt := op.Matched()
		closedAt, ok := l.waitClose(op, (*Bridge).DeviceClosed, unboundedCap)
		if !ok {
			return 0, fmt.Errorf("core: no teardown when holding keep-alive (trial %d)", i)
		}
		samples = append(samples, closedAt-matchedAt)
		op.Release()
		l.Clock.RunFor(l.Recovery)
	}
	return median(samples), nil
}

// measureEventTimeout delays events right after a keep-alive exchange and
// compares the observed teardown with the keep-alive bound.
func (l *Lab) measureEventTimeout(m Measured) (evTimeout, srvIdle time.Duration, err error) {
	var eventSamples []time.Duration
	var srvSamples []time.Duration
	dedicated := 0
	for i := 0; i < l.Trials; i++ {
		if m.HasKeepAlive {
			if !l.waitForKeepAlive() {
				return 0, 0, fmt.Errorf("core: no keep-alive before event trial %d", i)
			}
		}
		op := l.Hijacker.EDelay(l.EventOrigin, 0)
		if err := l.TriggerEvent(); err != nil {
			return 0, 0, err
		}
		if !l.waitMatched(op, time.Minute) {
			return 0, 0, fmt.Errorf("core: event never captured (trial %d)", i)
		}
		_, matchedAt := op.Matched()

		// Either pattern bounds the session by period plus timeout; for a
		// fixed pattern that is the worst case, from just after a keep-alive.
		var kaBound time.Duration
		if m.HasKeepAlive {
			kaBound = m.KeepAlivePeriod + m.KeepAliveTimeout
		}
		limit := unboundedCap
		if kaBound > 0 {
			limit = kaBound + time.Minute
		}
		closedAt, closed := l.waitClose(op, (*Bridge).DeviceClosed, limit)
		switch {
		case !closed:
			// No teardown at all within the cap (HomeKit-style): keep
			// holding to measure a server-side idle reap if one exists.
			if srvAt, ok := l.waitClose(op, (*Bridge).ServerClosed, unboundedCap); ok {
				srvSamples = append(srvSamples, srvAt-matchedAt)
			}
		case m.HasKeepAlive && closedAt-matchedAt < kaBound-2*time.Second:
			dedicated++
			eventSamples = append(eventSamples, closedAt-matchedAt)
		case !m.HasKeepAlive:
			// On-demand: the device-side 408. Keep holding for the
			// server-side idle reap (the true delivery bound, Finding 1).
			dedicated++
			eventSamples = append(eventSamples, closedAt-matchedAt)
			if srvAt, ok := l.waitClose(op, (*Bridge).ServerClosed, unboundedCap); ok {
				srvSamples = append(srvSamples, srvAt-matchedAt)
			}
		}
		op.Release()
		l.Clock.RunFor(l.Recovery)
	}
	if dedicated > l.Trials/2 {
		evTimeout = median(eventSamples)
	}
	if len(srvSamples) > 0 {
		srvIdle = median(srvSamples)
	}
	return evTimeout, srvIdle, nil
}

// measureCommandTimeout delays commands and watches for server-side
// teardown or (for servers that only alarm) a lab alarm.
func (l *Lab) measureCommandTimeout(m Measured) (time.Duration, error) {
	var samples []time.Duration
	dedicated := 0
	for i := 0; i < l.Trials; i++ {
		if m.HasKeepAlive {
			if !l.waitForKeepAlive() {
				return 0, fmt.Errorf("core: no keep-alive before command trial %d", i)
			}
		}
		op := l.Hijacker.CDelay(l.CommandOrigin, 0)
		if err := l.TriggerCommand(); err != nil {
			return 0, err
		}
		if !l.waitMatched(op, time.Minute) {
			return 0, fmt.Errorf("core: command never captured (trial %d)", i)
		}
		_, matchedAt := op.Matched()

		kaBound := time.Duration(0)
		if m.HasKeepAlive {
			kaBound = m.KeepAlivePeriod + m.KeepAliveTimeout
		}
		limit := unboundedCap
		if kaBound > 0 {
			limit = kaBound + time.Minute
		}
		at, kind := l.waitCommandOutcome(op, matchedAt, limit)
		if kind == outcomeServer || kind == outcomeAlarm {
			d := at - matchedAt
			if kaBound == 0 || d < kaBound-2*time.Second {
				dedicated++
				samples = append(samples, d)
			}
		}
		op.Release()
		l.Clock.RunFor(l.Recovery)
	}
	if dedicated > l.Trials/2 {
		return median(samples), nil
	}
	return 0, nil
}

type outcomeKind int

const (
	outcomeNone outcomeKind = iota
	outcomeServer
	outcomeDevice
	outcomeAlarm
)

// waitCommandOutcome steps the clock until the held command's session
// closes on either side or the lab server alarms after since, and returns
// the first of these with its time.
func (l *Lab) waitCommandOutcome(op *DelayOp, since simtime.Time, limit time.Duration) (at simtime.Time, kind outcomeKind) {
	l.Clock.StepUntil(l.Clock.Now()+limit, func() bool {
		if op.bridge != nil {
			if closed, t := op.bridge.ServerClosed(); closed {
				at, kind = t, outcomeServer
				return true
			}
			if closed, t := op.bridge.DeviceClosed(); closed {
				at, kind = t, outcomeDevice
				return true
			}
		}
		if l.ServerAlarmAt != nil {
			if t, ok := l.ServerAlarmAt(); ok && t > since {
				at, kind = t, outcomeAlarm
				return true
			}
		}
		return false
	})
	return at, kind
}

// --- plumbing ---

// hookRecords chains an observer onto the hijacker and returns a restore
// function.
func (l *Lab) hookRecords(fn func(*Bridge, ClassifiedRecord)) (restore func()) {
	prev := l.Hijacker.OnRecord
	l.Hijacker.OnRecord = func(b *Bridge, r ClassifiedRecord) {
		fn(b, r)
		if prev != nil {
			prev(b, r)
		}
	}
	return func() { l.Hijacker.OnRecord = prev }
}

// waitForKeepAlive waits for a *successful exchange* of a keep-alive: the
// device's request and the server's answer both past the bridge. Arming a
// hold before the answer has flowed back would strand it in the hold queue
// and trip the device's keep-alive deadline instead of the timer under
// measurement.
func (l *Lab) waitForKeepAlive() bool {
	kaSeen := false
	exchanged := false
	restore := l.hookRecords(func(_ *Bridge, r ClassifiedRecord) {
		if r.Known && r.Msg.Kind == sniff.KindKeepAlive && r.Dir == sniff.DirClientToServer {
			kaSeen = true
			return
		}
		if kaSeen && r.Dir == sniff.DirServerToClient {
			exchanged = true
		}
	})
	defer restore()
	if !l.Clock.StepUntil(l.Clock.Now()+idleObservation, func() bool { return exchanged }) {
		return false
	}
	// Small settle so the response also reaches the device.
	l.Clock.RunFor(time.Second)
	return true
}

// waitMatched steps the clock until op captures its record or limit
// passes.
func (l *Lab) waitMatched(op *DelayOp, limit time.Duration) bool {
	return l.Clock.StepUntil(l.Clock.Now()+limit, func() bool { return op.matched })
}

// waitClose steps the clock until one side of op's session has closed, as
// reported by side ((*Bridge).DeviceClosed or ServerClosed), or limit
// passes, and returns when the close happened.
func (l *Lab) waitClose(op *DelayOp, side func(*Bridge) (bool, simtime.Time), limit time.Duration) (at simtime.Time, closed bool) {
	closed = l.Clock.StepUntil(l.Clock.Now()+limit, func() bool {
		if op.bridge != nil {
			closed, at = side(op.bridge)
		}
		return closed
	})
	return at, closed
}

func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := make([]time.Duration, len(ds))
	copy(sorted, ds)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)/2]
}

func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}
