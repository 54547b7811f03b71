package main

import (
	"fmt"
	"io"
	"time"

	"repro/internal/device"
	"repro/internal/experiment"
	"repro/internal/obs"
)

// sectionNames is the order in which `phantomlab all` runs its sections.
var sectionNames = []string{"table1", "table2", "table3", "verify", "findings", "defense", "recon", "ablation", "replay"}

// paperResults holds every section's structured results, plus each
// section's wall time in seconds.
type paperResults struct {
	table1, table2 []experiment.TableRow
	cases          []experiment.CaseResult
	verify         []experiment.VerifyResult
	findings       []experiment.FindingResult
	ack            []experiment.AckDefenseResult
	timestamp      experiment.TimestampDefenseResult
	recon          []experiment.ReconResult
	margins        []experiment.MarginPoint
	boundary       []experiment.BoundaryPoint
	replay         []experiment.ReplayResult
	seconds        map[string]float64
}

// The paper's procedure: 20 trials per message class and 2 minutes of
// recovery between trials, as `phantomlab -trials 20 -recovery 2m` sets.
const (
	trials   = 20
	recovery = 2 * time.Minute
)

// reproduce runs `phantomlab -seed S -trials 20 -recovery 2m all`: the same
// experiment calls with the same arguments, the same rendering to w, and
// the same metrics accumulation.
func reproduce(w io.Writer, acc *obs.Accumulator, seed int64) paperResults {
	opts := experiment.TableOptions{Seed: seed, Trials: trials, Recovery: recovery}
	r := paperResults{seconds: make(map[string]float64, len(sectionNames))}
	for _, name := range sectionNames {
		start := time.Now()
		switch name {
		case "table1":
			r.table1 = experiment.RunTable(labels(device.CloudProfiles()), opts)
			acc.Add(experiment.MergedMetrics(r.table1))
			experiment.FormatRows(w, "Table I — cloud-connected devices (33)", r.table1)
		case "table2":
			t2 := opts
			t2.UnboundedDemo = 2 * time.Hour
			r.table2 = experiment.RunTable(labels(device.LocalProfiles()), t2)
			acc.Add(experiment.MergedMetrics(r.table2))
			experiment.FormatRows(w, "Table II — HomeKit accessories on a local hub (17)", r.table2)
		case "table3":
			r.cases = experiment.RunCases(experiment.Table3Cases(), seed+500)
			for _, c := range r.cases {
				acc.Add(c.Metrics)
			}
			experiment.FormatCaseResults(w, r.cases)
		case "verify":
			r.verify = experiment.RunVerification([]string{"C1", "L2", "CM1", "K2", "M7", "A1"},
				experiment.VerifyOptions{Seed: seed + 600, Trials: trials})
			for _, v := range r.verify {
				acc.Add(v.Metrics)
			}
			experiment.FormatVerifyResults(w, r.verify)
		case "findings":
			r.findings = experiment.RunFindings(seed + 700)
			for _, f := range r.findings {
				acc.Add(f.Metrics)
			}
			experiment.FormatFindings(w, r.findings)
		case "defense":
			r.ack = experiment.RunAckTimeoutDefense("C2",
				[]time.Duration{20 * time.Second, 10 * time.Second, 5 * time.Second}, seed+800)
			r.timestamp = experiment.RunTimestampDefense(seed + 820)
			for _, a := range r.ack {
				acc.Add(a.Metrics)
			}
			acc.Add(r.timestamp.Metrics)
			experiment.FormatDefenseResults(w, r.ack, r.timestamp)
		case "recon":
			r.recon = experiment.RunReconCoverage(
				[]string{"C1", "M1", "L2", "M2", "C2", "M3", "LK1", "P2", "CM1", "K2", "SD1", "P4"},
				[]int{3, 6, 10, 100}, seed+1200)
			experiment.FormatRecon(w, r.recon)
		case "ablation":
			r.margins = experiment.RunMarginAblation("C1",
				[]time.Duration{time.Second, 2 * time.Second, 5 * time.Second, 10 * time.Second}, trials, seed+900)
			r.boundary = experiment.RunDetectionBoundary("C1",
				[]time.Duration{40 * time.Second, 45 * time.Second, 50 * time.Second, 60 * time.Second}, seed+910)
			experiment.FormatAblation(w, r.margins, r.boundary)
		case "replay":
			r.replay = experiment.RunReplayAssessment(labels(device.Catalog()), experiment.ReplayOptions{Seed: seed + 1300})
			for _, x := range r.replay {
				acc.Add(x.Metrics)
			}
			experiment.FormatReplayTable(w, r.replay)
		}
		fmt.Fprintln(w)
		r.seconds[name] = time.Since(start).Seconds()
	}
	return r
}

func labels(ps []device.Profile) []string {
	out := make([]string, 0, len(ps))
	for _, p := range ps {
		out = append(out, p.Label)
	}
	return out
}

// checks is the outcome of the paper-shape output checks. Items are the
// table rows, Table III cases, verified devices, findings and replay rows:
// the reproduction's units of work. Any failure, of one item or of a
// run-level shape, breaks the run's output check, and the benchmark then
// counts every item as failed.
type checks struct {
	Items    int                `json:"items"`
	Failures []string           `json:"failures,omitempty"`
	Seconds  map[string]float64 `json:"seconds"`
}

// maxFailures bounds how many failure messages a report carries.
const maxFailures = 10

func (c *checks) item(ok bool, format string, args ...any) {
	c.Items++
	c.shape(ok, format, args...)
}

func (c *checks) shape(ok bool, format string, args ...any) {
	if !ok && len(c.Failures) < maxFailures {
		c.Failures = append(c.Failures, fmt.Sprintf(format, args...))
	}
}

// check asserts the DESIGN.md §4 shapes the test suite asserts. It checks
// shapes only, never golden numbers, so a deliberate re-golden of the
// simulated values leaves it passing.
func check(r paperResults) *checks {
	c := &checks{Seconds: r.seconds}

	// The paper's shape: Table I has 33 cloud devices, Table II 17 HomeKit
	// accessories, Table III 11 cases, §VI 3 findings, and the CLI verifies
	// 6 devices.
	c.shape(len(r.table1) == 33, "table1: %d rows, want 33", len(r.table1))
	for _, row := range r.table1 {
		c.item(row.Err == nil && row.ParametersVerified && row.StealthOK,
			"table1 %s: err=%v verified=%v stealthy=%v", row.Label, row.Err, row.ParametersVerified, row.StealthOK)
	}
	c.shape(len(r.table2) == 17, "table2: %d rows, want 17", len(r.table2))
	for _, row := range r.table2 {
		c.item(row.Err == nil && row.ParametersVerified && row.StealthOK && row.EventDelayUnbounded,
			"table2 %s: err=%v verified=%v stealthy=%v unbounded=%v", row.Label, row.Err, row.ParametersVerified, row.StealthOK, row.EventDelayUnbounded)
	}
	c.shape(len(r.cases) == 11, "table3: %d cases, want 11", len(r.cases))
	for _, cr := range r.cases {
		c.item(cr.Succeeded(), "table3 case %d: err=%v baseline=%v attack=%v alarms=%d",
			cr.Case.ID, cr.Err, cr.BaselineConsequence, cr.AttackConsequence, cr.AttackAlarms)
	}
	c.shape(len(r.verify) == 6, "verify: %d devices, want 6", len(r.verify))
	for _, v := range r.verify {
		c.item(v.Perfect(), "verify %s: err=%v avoided=%d accepted=%d of %d", v.Label, v.Err, v.TimeoutsAvoided, v.Accepted, v.Trials)
	}
	c.shape(len(r.findings) == 3, "findings: %d results, want 3", len(r.findings))
	for _, f := range r.findings {
		c.item(f.Err == nil && f.Holds, "finding %d: err=%v holds=%v", f.ID, f.Err, f.Holds)
	}
	c.shape(len(r.replay) == len(device.Catalog()), "replay: %d rows, want one per catalog device", len(r.replay))
	for _, x := range r.replay {
		known := x.Class == experiment.ReplayRawVulnerable || x.Class == experiment.ReplayAppVulnerable || x.Class == experiment.ReplayProtected
		c.item(x.Err == nil && known, "replay %s: err=%v class=%q", x.Label, x.Err, x.Class)
	}

	c.shape(len(r.ack) == 4, "defense: %d ack-timeout points, want the stock one and 3 shorter", len(r.ack))
	for i, a := range r.ack {
		c.shape(a.Err == nil, "defense ack %v: %v", a.AckTimeout, a.Err)
		if i > 0 {
			c.shape(a.AchievedDelay < r.ack[i-1].AchievedDelay, "defense: window did not shrink at ack timeout %v", a.AckTimeout)
		}
	}
	c.shape(r.timestamp.Err == nil && r.timestamp.TriggerDelayBlocked && r.timestamp.ConditionDelayStillWorks,
		"defense timestamp: err=%v triggerBlocked=%v conditionWorks=%v", r.timestamp.Err, r.timestamp.TriggerDelayBlocked, r.timestamp.ConditionDelayStillWorks)
	c.shape(len(r.recon) == 4 && len(r.margins) == 4 && len(r.boundary) == 4,
		"recon/ablation: %d/%d/%d points, want 4 each", len(r.recon), len(r.margins), len(r.boundary))
	for _, x := range r.recon {
		c.shape(x.Err == nil, "recon top-%d: %v", x.TopN, x.Err)
	}
	for _, m := range r.margins {
		c.shape(m.Err == nil, "ablation margin %v: %v", m.Margin, m.Err)
	}
	for _, b := range r.boundary {
		c.shape(b.Err == nil, "ablation hold %v: %v", b.Hold, b.Err)
	}
	return c
}
