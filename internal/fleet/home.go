package fleet

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/sniff"
)

// homeResult is the compact outcome of one home: the testbed's metrics
// registry (nil when no testbed was built), which holds the home's trial
// outcomes and which the shard folds by series id. The rest of the
// testbed is discarded — this is what keeps a million-home campaign
// within bounded memory.
type homeResult struct {
	err      error
	noTarget bool
	metrics  *obs.Registry
}

// runHome builds the home's testbed on demand, runs the campaign's attack
// against its targets and returns the compact result. The home simulation
// is single-threaded and owns all its state, so many runHome calls can
// proceed concurrently on independent homes.
func runHome(spec Spec, home HomeSpec) (res homeResult) {
	targets := selectTargets(spec, home)
	if len(targets) == 0 {
		res.noTarget = true
		return res
	}

	cfg := experiment.TestbedConfig{
		Seed:       home.Seed,
		Devices:    home.Devices,
		LANLatency: home.LANLatency,
		WANLatency: home.WANLatency,
		Jitter:     home.LinkJitter,
		Overrides:  home.Overrides,
	}
	tb, err := experiment.NewTestbed(cfg)
	if err != nil {
		res.err = err
		return res
	}
	defer func() {
		tb.Metrics.Counter("fleet_alarms_total").Add(uint64(tb.TotalAlarmCount()))
		res.metrics = tb.Metrics
	}()

	for _, r := range home.Rules {
		if err := tb.InstallRule(r); err != nil {
			res.err = err
			return res
		}
	}
	atk, err := tb.NewAttacker()
	if err != nil {
		res.err = err
		return res
	}
	var capture *sniff.Capture
	if spec.Attack == AttackReplay && spec.Replay != nil {
		capture = tb.NewCapture(spec.Replay.RetainBytes)
	}
	// One hijack per session owner, shared by targets riding the same hub.
	hijackers := make(map[string]*core.Hijacker)
	for _, label := range targets {
		owner := tb.SessionOwnerProfile(label).Label
		if _, ok := hijackers[owner]; ok {
			continue
		}
		h, err := tb.Hijack(atk, label)
		if err != nil {
			res.err = err
			return res
		}
		hijackers[owner] = h
	}
	tb.Start()

	for _, label := range targets {
		h := hijackers[tb.SessionOwnerProfile(label).Label]
		if err := attackTarget(tb, h, capture, spec, label); err != nil {
			res.err = fmt.Errorf("home %d target %s: %w", home.Index, label, err)
			return res
		}
	}
	return res
}

// selectTargets picks the campaign's targets in deployment order.
func selectTargets(spec Spec, home HomeSpec) []string {
	byLabel := device.Index()
	var out []string
	for _, l := range home.Devices {
		p := byLabel[l]
		if !spec.Targets.matches(p.Label, p.Class) {
			continue
		}
		if spec.Attack == AttackCDelay && p.CommandAttr == "" {
			continue
		}
		// An offline hold blackholes a live session; on-demand devices
		// close theirs after every event, so there is none to hold.
		if spec.Attack == AttackOffline && p.Transport == device.TransportHTTPOnDemand {
			continue
		}
		if p.EventAttr == "" || len(p.EventValues) == 0 {
			continue
		}
		out = append(out, l)
		if len(out) >= spec.Targets.PerHome {
			break
		}
	}
	return out
}

// attackTarget runs the spec's trials against one device, recording each
// outcome in the testbed's metrics registry, the campaign's only record of
// it (perModel reads it back). capture is the home's capture for replay
// trials, nil for the other attacks.
func attackTarget(tb *experiment.Testbed, h *core.Hijacker, capture *sniff.Capture, spec Spec, label string) error {
	owner := tb.SessionOwnerProfile(label)
	m := experiment.MeasuredFromProfile(owner)
	h.ArmPredictor(m)
	lab, err := tb.NewLab(h, label)
	if err != nil {
		return err
	}
	reg := tb.Metrics
	model := obs.L("model", label)
	delayHist := reg.Histogram("fleet_delay_seconds", obs.DurationBuckets, model)
	delayNs := reg.Gauge("fleet_delay_ns", model)
	trialCtr := reg.Counter("fleet_trials_total", model)
	successCtr := reg.Counter("fleet_trials_success", model)

	for trial := 0; trial < spec.Trials; trial++ {
		var achieved time.Duration
		var success bool
		var err error
		switch spec.Attack {
		case AttackOffline:
			achieved, success, err = offlineTrial(tb, h, spec)
		case AttackReplay:
			achieved, success, err = replayTrial(tb, h, lab, capture, spec)
		default:
			achieved, success, err = delayTrial(tb, h, lab, spec, m)
		}
		if err != nil {
			return err
		}
		trialCtr.Inc()
		if success {
			successCtr.Inc()
		}
		delayHist.Observe(achieved.Seconds())
		// The gauge rises to the delay and falls back to 0, so its
		// high-water mark is the longest delay and, merged across homes,
		// the model's longest, while its merged value stays 0.
		delayNs.Set(int64(achieved))
		delayNs.Set(0)
		// Inter-trial recovery lets sessions and keep-alive schedules
		// settle before the next hold.
		tb.Clock.RunFor(10 * time.Second)
	}
	return nil
}

// delayTrial runs one maximum-stealthy delay: hold the target's next
// event (or command) to the margin before the predicted timeout, release,
// and check delivery plus stealth. Both families succeed by one rule: the
// held message took effect (the event was accepted, or the device
// reported the state the command set) and no alarm was raised.
func delayTrial(tb *experiment.Testbed, h *core.Hijacker, lab *core.Lab, spec Spec, m core.Measured) (time.Duration, bool, error) {
	// The limit guards against an op that never matches (e.g. a lost
	// trigger).
	f, err := tb.DelayTrial(h, lab, spec.Attack == AttackCDelay, spec.Margin(), spec.Hold(), simTimeBound(spec, m))
	if err != nil {
		return 0, false, err
	}
	if !f.Released {
		return 0, false, fmt.Errorf("fleet: delay never released")
	}
	return f.Held, f.Accepted && f.NewAlarms == 0, nil
}

// replayTrial runs one record-and-replay attempt in the spec's mode.
// Success means the duplicate was accepted by the automation backend; the
// achieved delay is zero because a replay is not a hold. A trial whose
// event record was not retained (eviction, or an out-of-order capture)
// simply fails — replay coverage is itself a campaign observable, not an
// error.
func replayTrial(tb *experiment.Testbed, h *core.Hijacker, lab *core.Lab, capture *sniff.Capture, spec Spec) (time.Duration, bool, error) {
	mode := ReplayModeAuto
	if spec.Replay != nil && spec.Replay.Mode != "" {
		mode = spec.Replay.Mode
	}
	raw := mode == ReplayModeRaw || mode == ReplayModeAuto
	app := mode == ReplayModeApp || mode == ReplayModeAuto
	f, err := tb.ReplayTrial(h, lab, capture, raw, app)
	return 0, f.RawAccepted || f.AppAccepted, err
}

// simTimeBound bounds one trial's simulated time: the widest possible
// window plus slack.
func simTimeBound(spec Spec, m core.Measured) time.Duration {
	bound := spec.Hold()
	if _, max, ok := m.EventWindow(); ok && max > bound {
		bound = max
	}
	if _, max, ok := m.CommandWindow(); ok && max > bound {
		bound = max
	}
	return bound + 10*time.Minute
}

// offlineTrial blackholes the session's device-to-server direction for the
// spec's hold, keeping the server-side connection open (Finding 2), and
// reports whether the servers stayed silent.
func offlineTrial(tb *experiment.Testbed, h *core.Hijacker, spec Spec) (time.Duration, bool, error) {
	b, ok := h.CurrentBridge()
	if !ok {
		return 0, false, fmt.Errorf("fleet: no live bridge for offline hold")
	}
	b.HoldDeviceClose = true
	op := h.DelayKeepAlive()
	alarmsBefore := tb.TotalAlarmCount()
	tb.Clock.RunFor(spec.Hold())
	success := tb.TotalAlarmCount() == alarmsBefore
	op.Release()
	b.HoldDeviceClose = false
	tb.Clock.RunFor(10 * time.Second)
	return spec.Hold(), success, nil
}
