package experiment

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/simtime"
)

// VerifyResult reports the Section VI-C verification test for one device:
// messages are triggered at random phases, delayed to the margin before
// the predicted timeout, and released; the collected parameters are
// correct if every trial avoids the timeout and the message is accepted.
type VerifyResult struct {
	Label           string
	Trials          int
	TimeoutsAvoided int
	Accepted        int
	Err             error

	// Metrics is the device testbed's observability snapshot, taken after
	// the trials finished (or failed).
	Metrics obs.Snapshot
	// Trace holds the flight recorder's events when
	// VerifyOptions.TraceCap turned it on.
	Trace []obs.TraceEvent
}

// Perfect reports the paper's outcome: 100% avoidance and acceptance.
func (r VerifyResult) Perfect() bool {
	return r.Err == nil && r.TimeoutsAvoided == r.Trials && r.Accepted == r.Trials
}

// VerifyOptions tunes the verification runs.
type VerifyOptions struct {
	Seed   int64
	Trials int
	// TraceCap turns each testbed's flight recorder on when positive (see
	// TestbedConfig.TraceCap).
	TraceCap int
}

// RunVerification profiles each device, then runs randomized delay trials
// using the measured parameters for prediction.
func RunVerification(labels []string, opts VerifyOptions) []VerifyResult {
	if opts.Trials <= 0 {
		opts.Trials = 5
	}
	return measureEach(labels, func(i int, label string) VerifyResult {
		return verifyDevice(label, opts, opts.Seed+int64(i)*311)
	})
}

func verifyDevice(label string, opts VerifyOptions, seed int64) (res VerifyResult) {
	res = VerifyResult{Label: label, Trials: opts.Trials}
	tb, err := NewTestbed(TestbedConfig{Seed: seed, Devices: []string{label}, TraceCap: opts.TraceCap})
	if err != nil {
		res.Err = err
		return res
	}
	defer func() { res.Metrics, res.Trace = tb.Metrics.Snapshot(), tb.Metrics.Trace().Events() }()
	h, lab, err := tb.HijackLab(label)
	if err != nil {
		res.Err = err
		return res
	}
	lab.Trials = 2
	lab.Recovery = 30 * time.Second
	m, err := lab.Profile()
	if err != nil {
		res.Err = err
		return res
	}
	h.ArmPredictor(m)
	// A device whose events no timeout bounds trivially avoids timeouts;
	// its trials verify acceptance with a one-hour hold each.
	_, _, bounded := m.EventWindow()
	rng := simtime.NewRand(seed + 7)

	for i := 0; i < opts.Trials; i++ {
		start, limit := tb.Clock.Now(), time.Hour+10*time.Second
		if bounded {
			// Random phase within the keep-alive cycle.
			tb.Clock.RunFor(rng.DurationRange(3*time.Second, 40*time.Second))
			limit = 20 * time.Minute
		}
		f, err := tb.DelayTrial(h, lab, false, releaseMargin, time.Hour, limit)
		if err != nil {
			res.Err = err
			return res
		}
		if !f.Released {
			res.Err = fmt.Errorf("experiment: verification trial %d never released", i)
			return res
		}
		if tb.SessionOwner(label).Connected() && f.NewAlarms == 0 {
			res.TimeoutsAvoided++
		}
		if f.Accepted {
			res.Accepted++
		}
		// Settle: an unbounded trial ends an hour and ten seconds after it
		// began.
		if bounded {
			tb.Clock.RunFor(10 * time.Second)
		} else {
			tb.Clock.RunUntil(start + limit)
		}
	}
	return res
}

// FormatVerifyResults renders the verification outcomes.
func FormatVerifyResults(w io.Writer, results []VerifyResult) {
	fmt.Fprintf(w, "Verification test (release at margin before predicted timeout)\n%s\n", strings.Repeat("=", 64))
	fmt.Fprintf(w, "%-6s %-8s %-16s %-10s %-8s\n", "Label", "Trials", "TimeoutsAvoided", "Accepted", "Perfect")
	for _, r := range results {
		if r.Err != nil {
			fmt.Fprintf(w, "%-6s ERROR: %v\n", r.Label, r.Err)
			continue
		}
		fmt.Fprintf(w, "%-6s %-8d %-16d %-10d %-8v\n", r.Label, r.Trials, r.TimeoutsAvoided, r.Accepted, r.Perfect())
	}
}
