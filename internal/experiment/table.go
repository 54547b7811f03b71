package experiment

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/obs"
)

// TableOptions tunes the Table I/II measurement runs.
type TableOptions struct {
	// Seed drives the testbeds.
	Seed int64
	// Trials per message class (the paper uses 20).
	Trials int
	// Recovery between trials (the paper uses 2 minutes).
	Recovery time.Duration
	// UnboundedDemo is how long unbounded holds are demonstrated before
	// release (HomeKit events).
	UnboundedDemo time.Duration
	// TraceCap turns each testbed's flight recorder on when positive (see
	// TestbedConfig.TraceCap).
	TraceCap int
}

func (o *TableOptions) fill() {
	if o.Trials <= 0 {
		o.Trials = 3
	}
	if o.Recovery <= 0 {
		o.Recovery = 30 * time.Second
	}
	if o.UnboundedDemo <= 0 {
		o.UnboundedDemo = time.Hour
	}
}

// TableRow is one measured device: the paper's Table I/II columns.
type TableRow struct {
	Label     string
	Model     string
	Class     string
	Transport string
	ViaHub    string

	// Measured timeout-behaviour parameters (Section IV-B).
	Measured core.Measured

	// Ground truth for validation.
	Truth device.Profile

	// EventDelayAchieved is the longest event delay demonstrated with the
	// message still accepted and zero alarms. EventDelayUnbounded marks
	// the "∞" rows, where EventDelayAchieved only demonstrates a floor.
	EventDelayAchieved  time.Duration
	EventDelayUnbounded bool
	// CommandDelayAchieved mirrors the above for commands (zero when the
	// device takes no commands).
	CommandDelayAchieved  time.Duration
	CommandDelayUnbounded bool
	HasCommands           bool

	// ParametersVerified reports the profiler output matching ground truth
	// within tolerance.
	ParametersVerified bool
	// StealthOK reports zero server-side alarms across all measurements.
	StealthOK bool

	// Metrics is the device testbed's full metrics snapshot, taken after
	// the measurement finished. Snapshots from all rows merge with
	// obs.Merge for a whole-table view.
	Metrics obs.Snapshot
	// Trace holds the flight recorder's events, oldest first, when
	// TableOptions.TraceCap turned it on.
	Trace []obs.TraceEvent

	// Err captures a per-device measurement failure.
	Err error
}

// RunTable measures every given catalog label, building a fresh hijacked
// testbed per device (as the paper measures devices one at a time); the
// devices run concurrently (see measureEach).
func RunTable(labels []string, opts TableOptions) []TableRow {
	opts.fill()
	return measureEach(labels, func(i int, label string) TableRow {
		return measureDevice(label, opts, opts.Seed+int64(i)*101)
	})
}

// RunTable1 reproduces Table I (cloud-connected devices).
func RunTable1(opts TableOptions) []TableRow {
	var labels []string
	for _, p := range device.CloudProfiles() {
		labels = append(labels, p.Label)
	}
	return RunTable(labels, opts)
}

// RunTable2 reproduces Table II (local HomeKit accessories).
func RunTable2(opts TableOptions) []TableRow {
	var labels []string
	for _, p := range device.LocalProfiles() {
		labels = append(labels, p.Label)
	}
	return RunTable(labels, opts)
}

func measureDevice(label string, opts TableOptions, seed int64) (row TableRow) {
	truth, err := device.Lookup(label)
	row = TableRow{Label: label, Err: err}
	if err != nil {
		return row
	}
	row.Model = truth.Model
	row.Class = truth.Class
	row.Transport = truth.Transport.String()
	row.ViaHub = truth.ViaHub
	row.Truth = truth
	row.HasCommands = truth.CommandAttr != ""

	tb, err := NewTestbed(TestbedConfig{Seed: seed, Devices: []string{label}, TraceCap: opts.TraceCap})
	if err != nil {
		row.Err = err
		return row
	}
	// Snapshot whatever the run produced, even on a failed measurement.
	defer func() { row.Metrics, row.Trace = tb.Metrics.Snapshot(), tb.Metrics.Trace().Events() }()
	h, lab, err := tb.HijackLab(label)
	if err != nil {
		row.Err = err
		return row
	}
	lab.Trials = opts.Trials
	lab.Recovery = opts.Recovery
	markPhase(tb, "phase_start", "profile", 0)
	m, err := lab.Profile()
	markPhase(tb, "phase_end", "profile", 0)
	if err != nil {
		row.Err = err
		return row
	}
	row.Measured = m
	row.ParametersVerified = parametersMatch(m, truth, tb)

	// Profiling intentionally causes timeouts in the attacker's own lab;
	// stealth is judged only over the demonstration attack that follows.
	alarmsBeforeDemo := tb.TotalAlarmCount()

	// Demonstrate the maximum stealthy delays.
	h.ArmPredictor(m)
	markPhase(tb, "phase_start", "demo-event", 0)
	row.EventDelayAchieved, row.EventDelayUnbounded, err = demonstrateDelay(tb, h, lab, opts.UnboundedDemo, false)
	markPhase(tb, "phase_end", "demo-event", int64(row.EventDelayAchieved))
	if err != nil {
		row.Err = err
		return row
	}
	if row.HasCommands && lab.TriggerCommand != nil {
		markPhase(tb, "phase_start", "demo-command", 0)
		row.CommandDelayAchieved, row.CommandDelayUnbounded, err = demonstrateDelay(tb, h, lab, opts.UnboundedDemo, true)
		markPhase(tb, "phase_end", "demo-command", int64(row.CommandDelayAchieved))
		if err != nil {
			row.Err = err
			return row
		}
	}
	row.StealthOK = tb.TotalAlarmCount() == alarmsBeforeDemo
	return row
}

// demonstrateDelay holds one event, or one command when command is set,
// for the maximum predicted-safe time (or unboundedDemo when no timeout
// bounds it) and checks that the hold released and the message took
// effect: the event, or the state the command set, was accepted.
func demonstrateDelay(tb *Testbed, h *core.Hijacker, lab *core.Lab, unboundedDemo time.Duration, command bool) (time.Duration, bool, error) {
	f, err := tb.DelayTrial(h, lab, command, releaseMargin, unboundedDemo, unboundedDemo+10*time.Minute)
	if err != nil {
		return 0, false, err
	}
	kind, origin := "event", lab.EventOrigin
	if command {
		kind, origin = "command", lab.CommandOrigin
	}
	if !f.Released {
		return 0, false, fmt.Errorf("experiment: %s %s delay never released", origin, kind)
	}
	if !f.Accepted {
		return 0, false, fmt.Errorf("experiment: %s delayed %s not accepted", origin, kind)
	}
	return f.Held, f.Unbounded, nil
}

// markPhase records an attack-phase boundary in the testbed's flight
// recorder, giving the timeline exporter its top-level spans.
func markPhase(tb *Testbed, event, name string, value int64) {
	if tr := tb.Metrics.Trace(); tr.Enabled() {
		tr.Emit(tb.Clock.Now(), "experiment", event, name, value)
	}
}

// parametersMatch validates the profiler output against ground truth with
// a small tolerance.
func parametersMatch(m core.Measured, truth device.Profile, tb *Testbed) bool {
	owner, err := tb.sessionProfile(truth)
	if err != nil {
		return false
	}
	const tol = 3 * time.Second
	approx := func(a, b time.Duration) bool {
		d := a - b
		if d < 0 {
			d = -d
		}
		return d <= tol
	}
	switch owner.Transport {
	case device.TransportHAP:
		return !m.HasKeepAlive && m.EventTimeout == 0
	case device.TransportHTTPOnDemand:
		return m.OnDemand && approx(m.EventTimeout, owner.EventTimeout) &&
			approx(m.ServerIdleTimeout, owner.ServerIdleTimeout)
	}
	if !m.HasKeepAlive || m.Pattern != owner.KeepAlivePattern {
		return false
	}
	if !approx(m.KeepAlivePeriod, owner.KeepAlivePeriod) || !approx(m.KeepAliveTimeout, owner.KeepAliveTimeout) {
		return false
	}
	// A dedicated event timeout only manifests when shorter than the
	// keep-alive bound.
	kaBound := owner.KeepAlivePeriod + owner.KeepAliveTimeout
	if owner.EventTimeout > 0 && owner.EventTimeout < kaBound {
		if !approx(m.EventTimeout, owner.EventTimeout) {
			return false
		}
	} else if m.EventTimeout != 0 {
		return false
	}
	return true
}

// FormatRows renders rows as a paper-style text table.
func FormatRows(w io.Writer, title string, rows []TableRow) {
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	fmt.Fprintf(w, "%-5s %-38s %-15s %-24s %-10s %-12s %-12s %-8s %-7s\n",
		"Label", "Model", "Transport", "KeepAlive(period/pat/to)", "EventTO", "e-Delay", "c-Delay", "Verified", "Stealth")
	for _, r := range rows {
		if r.Err != nil {
			fmt.Fprintf(w, "%-5s %-38s ERROR: %v\n", r.Label, r.Model, r.Err)
			continue
		}
		ka := "-"
		if r.Measured.HasKeepAlive {
			ka = fmt.Sprintf("%v/%s/%v", r.Measured.KeepAlivePeriod, r.Measured.Pattern, r.Measured.KeepAliveTimeout)
		}
		evTO := "∞"
		if r.Measured.EventTimeout > 0 {
			evTO = r.Measured.EventTimeout.String()
		}
		eDelay := r.EventDelayAchieved.String()
		if r.EventDelayUnbounded {
			eDelay = "∞ (" + r.EventDelayAchieved.String() + "+)"
		}
		cDelay := "-"
		if r.HasCommands {
			cDelay = r.CommandDelayAchieved.String()
			if r.CommandDelayUnbounded {
				cDelay = "∞ (" + r.CommandDelayAchieved.String() + "+)"
			}
		}
		fmt.Fprintf(w, "%-5s %-38s %-15s %-24s %-10s %-12s %-12s %-8v %-7v\n",
			r.Label, r.Model, r.Transport, ka, evTO, eDelay, cDelay, r.ParametersVerified, r.StealthOK)
	}
}
