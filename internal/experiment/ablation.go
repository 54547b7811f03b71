package experiment

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// MarginPoint is one release-margin setting evaluated over several trials:
// how often the delay stayed stealthy, and how much window the margin gave
// up. The margin is the design parameter DESIGN.md calls out: too small
// and in-flight latency eats it (the release must still cross the bridge
// and reach the waiting timer's owner); too large and attack time is
// wasted.
type MarginPoint struct {
	Margin    time.Duration
	Trials    int
	Stealthy  int           // timeout avoided and no alarms
	Accepted  int           // event delivered
	MeanDelay time.Duration // achieved hold across trials
	Err       error
}

// RunMarginAblation sweeps release margins on one device.
func RunMarginAblation(label string, margins []time.Duration, trials int, seed int64) []MarginPoint {
	out := make([]MarginPoint, 0, len(margins))
	for i, m := range margins {
		out = append(out, marginPoint(label, m, trials, seed+int64(i)*211))
	}
	return out
}

func marginPoint(label string, margin time.Duration, trials int, seed int64) MarginPoint {
	res := MarginPoint{Margin: margin, Trials: trials}
	tb, err := NewTestbed(TestbedConfig{Seed: seed, Devices: []string{label}})
	if err != nil {
		res.Err = err
		return res
	}
	h, lab, err := tb.HijackLab(label)
	if err != nil {
		res.Err = err
		return res
	}
	h.ArmPredictor(MeasuredFromProfile(tb.SessionOwnerProfile(label)))

	var total time.Duration
	for i := 0; i < trials; i++ {
		f, err := tb.DelayTrial(h, lab, false, margin, 0, 10*time.Minute)
		if err != nil {
			res.Err = err
			return res
		}
		if !f.Released {
			continue // the session died holding; neither stealthy nor accepted
		}
		total += f.Held
		if tb.SessionOwner(label).Connected() && f.NewAlarms == 0 {
			res.Stealthy++
		}
		if f.Accepted {
			res.Accepted++
		}
		// Let the session recover (or reconnect) between trials.
		tb.Clock.RunFor(time.Minute)
	}
	if trials > 0 {
		res.MeanDelay = total / time.Duration(trials)
	}
	return res
}

// BoundaryPoint is one hold duration around a device's window edge: does
// holding that long stay silent, or does the cliff (device timeout,
// reconnection, alarms) appear?
type BoundaryPoint struct {
	Hold          time.Duration
	SessionDied   bool
	EventAccepted bool
	Alarms        int
	Err           error
}

// RunDetectionBoundary sweeps hold durations across a device's window edge
// to chart where stealth ends — the cliff the predictor must stay under.
func RunDetectionBoundary(label string, holds []time.Duration, seed int64) []BoundaryPoint {
	out := make([]BoundaryPoint, 0, len(holds))
	for i, hold := range holds {
		out = append(out, boundaryPoint(label, hold, seed+int64(i)*97))
	}
	return out
}

func boundaryPoint(label string, hold time.Duration, seed int64) BoundaryPoint {
	res := BoundaryPoint{Hold: hold}
	tb, err := NewTestbed(TestbedConfig{Seed: seed, Devices: []string{label}})
	if err != nil {
		res.Err = err
		return res
	}
	h, lab, err := tb.HijackLab(label)
	if err != nil {
		res.Err = err
		return res
	}
	bridge, ok := h.CurrentBridge()
	if !ok {
		res.Err = fmt.Errorf("experiment: no bridge for %s", label)
		return res
	}

	h.EDelay(label, hold)
	if err := lab.TriggerEvent(); err != nil {
		res.Err = err
		return res
	}
	tb.Clock.RunFor(hold + time.Minute)

	died, _ := bridge.DeviceClosed()
	res.SessionDied = died
	res.EventAccepted = tb.AcceptedEventCount(label) > 0
	res.Alarms = tb.TotalAlarmCount()
	return res
}

// FormatAblation renders both ablation studies.
func FormatAblation(w io.Writer, margins []MarginPoint, boundary []BoundaryPoint) {
	fmt.Fprintf(w, "Ablation — release margin vs. stealth\n%s\n", strings.Repeat("=", 50))
	fmt.Fprintf(w, "%-10s %-8s %-10s %-10s %-12s\n", "Margin", "Trials", "Stealthy", "Accepted", "MeanDelay")
	for _, m := range margins {
		if m.Err != nil {
			fmt.Fprintf(w, "%-10v ERROR: %v\n", m.Margin, m.Err)
			continue
		}
		fmt.Fprintf(w, "%-10v %-8d %-10d %-10d %-12v\n",
			m.Margin, m.Trials, m.Stealthy, m.Accepted, m.MeanDelay.Round(time.Millisecond))
	}
	fmt.Fprintf(w, "\nAblation — hold duration vs. detection cliff\n%s\n", strings.Repeat("=", 50))
	fmt.Fprintf(w, "%-10s %-13s %-10s %-8s\n", "Hold", "SessionDied", "Accepted", "Alarms")
	for _, b := range boundary {
		if b.Err != nil {
			fmt.Fprintf(w, "%-10v ERROR: %v\n", b.Hold, b.Err)
			continue
		}
		fmt.Fprintf(w, "%-10v %-13v %-10v %-8d\n", b.Hold, b.SessionDied, b.EventAccepted, b.Alarms)
	}
}
