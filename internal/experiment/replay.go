package experiment

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/sniff"
	"repro/internal/tcpsim"
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
}

// ReplayOptions tunes the assessment runs.
type ReplayOptions struct {
	Seed int64
	// RetainBytes is the capture's per-flow payload retention budget.
	// Default 4096.
	RetainBytes int
	// TraceCap sizes each testbed's flight-recorder ring.
	TraceCap int
}

// RunReplayAssessment probes every listed device with both replay paths
// and classifies it. Each device runs in its own testbed seeded from
// (Seed, position), so the resulting table is a pure function of the
// options — byte-identical across runs and machines.
func RunReplayAssessment(labels []string, opts ReplayOptions) []ReplayResult {
	if opts.RetainBytes <= 0 {
		opts.RetainBytes = 4096
	}
	out := make([]ReplayResult, 0, len(labels))
	for i, label := range labels {
		out = append(out, assessReplay(label, opts, opts.Seed+int64(i)*317))
	}
	return out
}

func assessReplay(label string, opts ReplayOptions, seed int64) (res ReplayResult) {
	res = ReplayResult{Label: label, Class: ReplayProtected}
	tb, err := NewTestbed(TestbedConfig{Seed: seed, Devices: []string{label}, TraceCap: opts.TraceCap})
	if err != nil {
		res.Err = err
		return res
	}
	defer func() { res.Metrics = tb.Metrics.Snapshot() }()
	owner := tb.SessionOwnerProfile(label)
	res.Mode = owner.ReplayMode
	res.Window = owner.ReplayWindow
	res.CloudDedup = tb.Profile(label).CloudDedup

	atk, err := tb.NewAttacker()
	if err != nil {
		res.Err = err
		return res
	}
	atk.Capture.RetainPayloads(opts.RetainBytes)
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
	eng := replay.NewEngine(atk)
	eng.Instrument(tb.Metrics)

	// Record: let the session settle, then capture one genuine event. The
	// post-trigger run covers delivery, cloud-to-cloud forwarding, and —
	// for on-demand devices — the burst connection's teardown, so the raw
	// path below sees the session state a real attacker would.
	tb.Clock.RunFor(3 * time.Second)
	if err := lab.TriggerEvent(); err != nil {
		res.Err = err
		return res
	}
	tb.Clock.RunFor(3 * time.Second)

	records := atk.Capture.Records()
	idx, ok := replay.FindEventRecord(sniff.CatalogClassifier(), owner.Label, label, records)
	if !ok {
		res.Err = fmt.Errorf("experiment: no retained event record for %s", label)
		return res
	}

	// Raw injection on the live session.
	before := tb.AcceptedEventCount(label)
	if err := eng.RawReplay(h, records[idx]); err == nil {
		tb.Clock.RunFor(5 * time.Second)
		res.RawAccepted = tb.AcceptedEventCount(label) > before
		eng.ReportOutcome(label, res.RawAccepted)
	}

	// Application-layer replay from a fresh session, when the capture is
	// readable at all (ErrNotReadable otherwise, before any connection).
	if !res.RawAccepted {
		target, err := tb.HijackTarget(label)
		if err != nil {
			res.Err = err
			return res
		}
		before = tb.AcceptedEventCount(label)
		server := tcpsim.Endpoint{Addr: target.ServerAddr, Port: target.ServerPort}
		if _, err := eng.AppReplay(server, replay.SessionPrefix(records, idx)); err == nil {
			tb.Clock.RunFor(5 * time.Second)
			res.AppAccepted = tb.AcceptedEventCount(label) > before
			eng.ReportOutcome(label, res.AppAccepted)
		}
	}

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
