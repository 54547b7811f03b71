package experiment

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/sniff"
)

// FindingResult reports one of the paper's three Section VI findings.
type FindingResult struct {
	ID     int
	Title  string
	Holds  bool
	Detail string
	Err    error

	// Metrics is the finding testbed's observability snapshot.
	Metrics obs.Snapshot
}

// RunFindings reproduces Findings 1–3.
func RunFindings(seed int64) []FindingResult {
	return []FindingResult{
		runFinding1(seed),
		runFinding2(seed + 1),
		runFinding3(seed + 2),
	}
}

// runFinding1: on-demand sessions hide timeouts. The device-side timeout
// during an event delay is never noticed by the cloud server, because from
// its view the session was simply slow; even the device reports no anomaly
// afterwards.
func runFinding1(seed int64) (res FindingResult) {
	res = FindingResult{ID: 1, Title: "On-demand sessions hide timeouts from the server"}
	tb, err := NewTestbed(TestbedConfig{Seed: seed, Devices: []string{"M7"}})
	if err != nil {
		res.Err = err
		return res
	}
	defer func() { res.Metrics = tb.Metrics.Snapshot() }()
	h, _, err := tb.HijackLab("M7")
	if err != nil {
		res.Err = err
		return res
	}

	// Delay the event well past the device's own 30s give-up point but
	// inside the server's 5-minute idle window.
	const hold = 3 * time.Minute
	h.EDelay("M7", hold)
	if err := tb.Device("M7").TriggerEvent("motion", "active"); err != nil {
		res.Err = err
		return res
	}
	tb.Clock.RunFor(hold + time.Minute)

	deviceGaveUp := tb.Device("M7").LogCount("closed") > 0
	accepted := tb.AcceptedEventCount("M7") == 1
	alarms := tb.TotalAlarmCount()
	res.Holds = deviceGaveUp && accepted && alarms == 0
	res.Detail = fmt.Sprintf("device timed out locally=%v, event accepted after %v=%v, server alarms=%d",
		deviceGaveUp, hold, accepted, alarms)
	return res
}

// runFinding2: half-open connections postpone offline alarms. After a
// forced device-side timeout the attacker keeps the server-side connection
// open; the device reconnects; the server carries both sessions and never
// raises an alarm — even when the stale one finally dies.
func runFinding2(seed int64) (res FindingResult) {
	res = FindingResult{ID: 2, Title: "Half-open connections postpone device-offline alarms"}
	tb, err := NewTestbed(TestbedConfig{Seed: seed, Devices: []string{"C1"}})
	if err != nil {
		res.Err = err
		return res
	}
	defer func() { res.Metrics = tb.Metrics.Snapshot() }()
	h, _, err := tb.HijackLab("C1")
	if err != nil {
		res.Err = err
		return res
	}
	firstBridge, ok := h.CurrentBridge()
	if !ok {
		res.Err = fmt.Errorf("experiment: no bridge")
		return res
	}
	// Keep the server side open no matter what the device does.
	firstBridge.HoldDeviceClose = true

	// Force a device-side timeout by holding its keep-alives forever.
	h.DelayKeepAlive()
	tb.Clock.RunFor(2 * time.Minute) // device times out (~47s) and reconnects (+3s)

	newBridge, ok := h.CurrentBridge()
	reconnected := ok && newBridge != firstBridge
	srvClosed, _ := firstBridge.ServerClosed()
	ep := tb.Endpoints["smartthings.com"]
	halfOpen := ep.Broker().HalfOpenCount("H1")
	alarmsDuring := tb.TotalAlarmCount()

	// Now let the stale connection die; a live replacement exists, so the
	// server still must not alarm.
	firstBridge.CloseServerSide()
	tb.Clock.RunFor(30 * time.Second)
	alarmsAfter := tb.TotalAlarmCount()

	res.Holds = reconnected && !srvClosed && halfOpen == 1 && alarmsDuring == 0 && alarmsAfter == 0
	res.Detail = fmt.Sprintf("reconnected=%v, stale conn kept open=%v, half-open sessions=%d, alarms=%d then %d",
		reconnected, !srvClosed, halfOpen, alarmsDuring, alarmsAfter)
	return res
}

// runFinding3: unidirectional liveness checking. Keep-alives are always
// device-initiated; the server never probes, so an attacker silently
// blackholing the device's outbound messages leaves the server believing
// the device is merely idle, indefinitely.
func runFinding3(seed int64) (res FindingResult) {
	res = FindingResult{ID: 3, Title: "Unidirectional liveness checking: servers never probe"}
	tb, err := NewTestbed(TestbedConfig{Seed: seed, Devices: []string{"C1"}})
	if err != nil {
		res.Err = err
		return res
	}
	defer func() { res.Metrics = tb.Metrics.Snapshot() }()
	h, _, err := tb.HijackLab("C1")
	if err != nil {
		res.Err = err
		return res
	}
	b, ok := h.CurrentBridge()
	if !ok {
		res.Err = fmt.Errorf("experiment: no bridge")
		return res
	}
	b.HoldDeviceClose = true

	// Hold everything the device sends, forever, and count what the
	// server spontaneously sends toward the device.
	h.DelayKeepAlive()
	before := b.ForwardedCount(sniff.DirServerToClient)
	tb.Clock.RunFor(30 * time.Minute)
	after := b.ForwardedCount(sniff.DirServerToClient)

	ep := tb.Endpoints["smartthings.com"]
	if _, live := ep.Broker().ActiveSession("H1"); !live {
		res.Detail = "server dropped the session"
		return res
	}
	alarms := tb.TotalAlarmCount()
	res.Holds = after == before && alarms == 0
	res.Detail = fmt.Sprintf("server-initiated records in 30min of silence: %d, alarms: %d, session still believed live: true",
		after-before, alarms)
	return res
}

// FormatFindings renders the finding outcomes.
func FormatFindings(w io.Writer, results []FindingResult) {
	fmt.Fprintf(w, "Session-behaviour findings (Section VI-C)\n%s\n", strings.Repeat("=", 50))
	for _, r := range results {
		if r.Err != nil {
			fmt.Fprintf(w, "Finding %d: ERROR: %v\n", r.ID, r.Err)
			continue
		}
		status := "DID NOT HOLD"
		if r.Holds {
			status = "holds"
		}
		fmt.Fprintf(w, "Finding %d — %s: %s\n    %s\n", r.ID, r.Title, status, r.Detail)
	}
}
