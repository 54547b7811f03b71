package experiment

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/timeline"
)

// TestTableTraceRecordsEDelaySequence asserts the flight recorder captures
// the paper's e-Delay anatomy for a profiled device: a bridge hold opens,
// the attacker answers at least one keep-alive with a spoofed ACK during
// the hold, the held records release in order (the server's TLS session
// accepts them), and the cloud accepts the delayed event.
func TestTableTraceRecordsEDelaySequence(t *testing.T) {
	rows := RunTable([]string{"C1"}, TableOptions{Seed: 11, Trials: 1, TraceCap: 1 << 16})
	if len(rows) != 1 || rows[0].Err != nil {
		t.Fatalf("rows = %+v", rows)
	}
	evs := rows[0].Trace
	if len(evs) == 0 {
		t.Fatal("no trace events recorded")
	}

	type window struct{ start, end time.Duration }
	var holds []window
	var open *window
	for _, ev := range evs {
		if ev.Component == "core" && ev.Event == "hold_start" && open == nil {
			open = &window{start: ev.At}
		}
		if ev.Component == "core" && ev.Event == "release" && open != nil {
			open.end = ev.At
			holds = append(holds, *open)
			open = nil
		}
	}
	if len(holds) == 0 {
		t.Fatal("no hold windows in trace")
	}
	spoofedInHold := false
	recordAfterRelease := false
	acceptedAfterRelease := false
	for _, h := range holds {
		for _, ev := range evs {
			switch {
			case ev.Component == "tcpsim" && ev.Event == "spoofed_ack" &&
				ev.At >= h.start && ev.At <= h.end:
				spoofedInHold = true
			case ev.Component == "tlssim" && ev.Event == "record_ok" && ev.At >= h.end:
				recordAfterRelease = true
			case ev.Component == "cloud" && ev.Event == "event_accepted" && ev.At >= h.end:
				acceptedAfterRelease = true
			}
		}
	}
	if !spoofedInHold {
		t.Error("no spoofed ACK during any hold window")
	}
	if !recordAfterRelease {
		t.Error("no in-order TLS record acceptance after release")
	}
	if !acceptedAfterRelease {
		t.Error("no cloud event acceptance after release")
	}

	// The reconstructed timeline shows the same story as spans: completed
	// holds and experiment phases.
	tl := timeline.Build(timeline.Source{Name: rows[0].Label, Events: evs})
	var holdSpans, phaseSpans int
	for _, s := range tl.Spans {
		switch s.Name {
		case "hold":
			if s.Complete {
				holdSpans++
			}
		case "phase":
			phaseSpans++
		}
	}
	if holdSpans == 0 {
		t.Error("timeline has no completed hold spans")
	}
	if phaseSpans == 0 {
		t.Error("timeline has no experiment phase spans")
	}
}

func TestTableTraceDeterministic(t *testing.T) {
	run := func() []obs.TraceEvent {
		rows := RunTable([]string{"C1"}, TableOptions{Seed: 7, Trials: 1, TraceCap: 1 << 16})
		if rows[0].Err != nil {
			t.Fatal(rows[0].Err)
		}
		return rows[0].Trace
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed traces differ: %d vs %d events", len(a), len(b))
	}
}

// TestTableTraceDisabled: only a positive TraceCap turns the recorder on,
// and turning it on changes no metric.
func TestTableTraceDisabled(t *testing.T) {
	traced := RunTable([]string{"C1"}, TableOptions{Seed: 7, Trials: 1, TraceCap: 1 << 16})[0]
	if traced.Err != nil || len(traced.Trace) == 0 {
		t.Fatalf("traced row: err %v, %d events", traced.Err, len(traced.Trace))
	}
	for _, traceCap := range []int{0, -1} {
		row := RunTable([]string{"C1"}, TableOptions{Seed: 7, Trials: 1, TraceCap: traceCap})[0]
		if row.Err != nil {
			t.Fatal(row.Err)
		}
		if n := len(row.Trace); n != 0 {
			t.Fatalf("TraceCap %d still recorded %d events", traceCap, n)
		}
		if !reflect.DeepEqual(row.Metrics, traced.Metrics) {
			t.Fatalf("TraceCap %d: metrics differ from the traced run's", traceCap)
		}
	}
}

// TestCaseTraceAttackArmOnly: only the attack arm records, so the
// exported timeline is not interleaved with baseline-arm events (both
// arms start at t=0).
func TestCaseTraceAttackArmOnly(t *testing.T) {
	cases := Table3Cases()[:1]
	cases[0].TraceCap = 1 << 16
	res := RunCases(cases, 42)[0]
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	evs := res.Trace
	if len(evs) == 0 {
		t.Fatal("attack arm recorded no trace events")
	}
	// A baseline arm's events would restart at t=0.
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatalf("trace not monotonic at %d: %v after %v (baseline arm leaked in?)",
				i, evs[i].At, evs[i-1].At)
		}
	}
}
