package experiment

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/tlssim"
)

// ReplayClass is the assessment verdict for one device model.
type ReplayClass string

// Verdicts, ordered worst-first: a device that accepts raw re-injection
// is raw-vulnerable even if the application-layer path would also land.
const (
	// ReplayRawVulnerable: a verbatim captured record re-injected on the
	// live session was accepted end to end.
	ReplayRawVulnerable ReplayClass = "raw-vulnerable"
	// ReplayAppVulnerable: raw injection failed (window drop, teardown or
	// no live session) but the readable capture replayed from a fresh
	// attacker session.
	ReplayAppVulnerable ReplayClass = "app-vulnerable"
	// ReplayProtected: neither path produced an accepted duplicate.
	ReplayProtected ReplayClass = "protected"
)

// ReplayResult is the assessment outcome for one device.
type ReplayResult struct {
	Label string
	// Mode/Window describe the session owner's wire-level protections;
	// CloudDedup is the event origin's server-side suppression.
	Mode       tlssim.ReplayMode
	Window     int
	CloudDedup bool
	// RawAccepted/AppAccepted report whether each injection path yielded
	// an accepted duplicate event.
	RawAccepted bool
	AppAccepted bool
	Class       ReplayClass
	Err         error

	// Metrics is the device testbed's observability snapshot.
	Metrics obs.Snapshot
	// Trace holds the flight recorder's events when
	// ReplayOptions.TraceCap turned it on.
	Trace []obs.TraceEvent
}

// ReplayOptions tunes the assessment runs.
type ReplayOptions struct {
	Seed int64
	// TraceCap turns each testbed's flight recorder on when positive (see
	// TestbedConfig.TraceCap).
	TraceCap int
}

// replayRetainBytes is the assessment attacker's per-flow payload retention
// budget.
const replayRetainBytes = 4096

// RunReplayAssessment probes every listed device with both replay paths
// and classifies it. Each device runs in its own testbed seeded from
// (Seed, position), so the resulting table is a pure function of the
// options — byte-identical across runs and machines.
func RunReplayAssessment(labels []string, opts ReplayOptions) []ReplayResult {
	return measureEach(labels, func(i int, label string) ReplayResult {
		return assessReplay(label, opts, opts.Seed+int64(i)*317)
	})
}

func assessReplay(label string, opts ReplayOptions, seed int64) (res ReplayResult) {
	res = ReplayResult{Label: label, Class: ReplayProtected}
	tb, err := NewTestbed(TestbedConfig{Seed: seed, Devices: []string{label}, TraceCap: opts.TraceCap})
	if err != nil {
		res.Err = err
		return res
	}
	defer func() { res.Metrics, res.Trace = tb.Metrics.Snapshot(), tb.Metrics.Trace().Events() }()
	owner := tb.SessionOwnerProfile(label)
	res.Mode = owner.ReplayMode
	res.Window = owner.ReplayWindow
	res.CloudDedup = tb.Profile(label).CloudDedup

	atk, err := tb.NewAttacker()
	if err != nil {
		res.Err = err
		return res
	}
	capture := tb.NewCapture(replayRetainBytes)
	h, err := tb.Hijack(atk, label)
	if err != nil {
		res.Err = err
		return res
	}
	tb.Start()
	lab, err := tb.NewLab(h, label)
	if err != nil {
		res.Err = err
		return res
	}

	// Let the session settle, then record one genuine event and run the
	// ladder on it.
	tb.Clock.RunFor(3 * time.Second)
	f, err := tb.ReplayTrial(h, lab, capture, true, true)
	if err != nil {
		res.Err = err
		return res
	}
	if !f.Found {
		res.Err = fmt.Errorf("experiment: no retained event record for %s", label)
		return res
	}
	res.RawAccepted, res.AppAccepted = f.RawAccepted, f.AppAccepted
	switch {
	case res.RawAccepted:
		res.Class = ReplayRawVulnerable
	case res.AppAccepted:
		res.Class = ReplayAppVulnerable
	}
	return res
}

// FormatReplayTable renders the per-device assessment.
func FormatReplayTable(w io.Writer, results []ReplayResult) {
	fmt.Fprintf(w, "Record-and-replay vulnerability assessment\n%s\n", strings.Repeat("=", 72))
	fmt.Fprintf(w, "%-6s %-14s %-8s %-7s %-6s %-6s %-16s\n",
		"Label", "Wire", "Window", "Dedup", "Raw", "App", "Class")
	counts := map[ReplayClass]int{}
	for _, r := range results {
		if r.Err != nil {
			fmt.Fprintf(w, "%-6s ERROR: %v\n", r.Label, r.Err)
			continue
		}
		counts[r.Class]++
		fmt.Fprintf(w, "%-6s %-14s %-8d %-7v %-6v %-6v %-16s\n",
			r.Label, r.Mode, r.Window, r.CloudDedup, r.RawAccepted, r.AppAccepted, r.Class)
	}
	fmt.Fprintf(w, "%s\n%d raw-vulnerable, %d app-vulnerable, %d protected\n",
		strings.Repeat("-", 72),
		counts[ReplayRawVulnerable], counts[ReplayAppVulnerable], counts[ReplayProtected])
}
