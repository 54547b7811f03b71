// Package repro's benchmark harness regenerates every table and finding
// of the paper's evaluation section, one benchmark per artifact:
//
//	BenchmarkTableICloudDevices     — Table I  (33 cloud devices)
//	BenchmarkTableIILocalDevices    — Table II (17 HomeKit accessories)
//	BenchmarkTableIIIPoCCases       — Table III (11 PoC attacks)
//	BenchmarkVerificationTest       — Section VI-C verification (100%)
//	BenchmarkFinding1OnDemand       — Finding 1
//	BenchmarkFinding2HalfOpen       — Finding 2
//	BenchmarkFinding3Unidirectional — Finding 3
//	BenchmarkDefenseAckTimeout      — Section VII-A sweep
//	BenchmarkDefenseTimestamp       — Section VII-B evaluation
//	BenchmarkAblationMargin         — release-margin design sweep
//	BenchmarkAblationBoundary       — detection-cliff sweep
//	BenchmarkFleetCampaign          — fleet-scale campaign throughput
//	BenchmarkOfflineHoldHour        — hour-long offline holds at fleet scale
//	BenchmarkReplayCampaign         — record-and-replay family at fleet scale
//
// Each benchmark reports domain metrics alongside timing: achieved delay
// windows, success fractions, residual windows. The ones `make bench-json`
// records run the same seed on every iteration, so their allocs/op does
// not depend on -benchtime. Run with:
//
//	go test -bench=. -benchmem
//
// The rendered paper-style tables come from cmd/phantomlab; the benchmarks
// exist to regenerate (and time) the underlying data.
package repro

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/simtime"
)

func BenchmarkTableICloudDevices(b *testing.B) {
	var rows []experiment.TableRow
	for i := 0; i < b.N; i++ {
		rows = experiment.RunTable1(experiment.TableOptions{Seed: 41, Trials: 2})
	}
	reportWindowStats(b, rows)
}

func BenchmarkTableIILocalDevices(b *testing.B) {
	var rows []experiment.TableRow
	for i := 0; i < b.N; i++ {
		rows = experiment.RunTable2(experiment.TableOptions{
			Seed: 42 + int64(i), Trials: 1, UnboundedDemo: 2 * time.Hour,
		})
	}
	reportWindowStats(b, rows)
}

func reportWindowStats(b *testing.B, rows []experiment.TableRow) {
	b.Helper()
	var sum float64
	verified, stealthy, unbounded := 0, 0, 0
	for _, r := range rows {
		if r.Err != nil {
			b.Fatalf("%s: %v", r.Label, r.Err)
		}
		sum += r.EventDelayAchieved.Seconds()
		if r.ParametersVerified {
			verified++
		}
		if r.StealthOK {
			stealthy++
		}
		if r.EventDelayUnbounded {
			unbounded++
		}
	}
	n := float64(len(rows))
	b.ReportMetric(sum/n, "eDelay-s/device")
	b.ReportMetric(float64(verified)/n, "verified-frac")
	b.ReportMetric(float64(stealthy)/n, "stealth-frac")
	b.ReportMetric(float64(unbounded), "unbounded-devices")
}

func BenchmarkTableIIIPoCCases(b *testing.B) {
	var results []experiment.CaseResult
	for i := 0; i < b.N; i++ {
		results = experiment.RunCases(experiment.Table3Cases(), 500)
	}
	succeeded := 0
	for _, r := range results {
		if r.Err != nil {
			b.Fatalf("case %d: %v", r.Case.ID, r.Err)
		}
		if r.Succeeded() {
			succeeded++
		}
	}
	b.ReportMetric(float64(succeeded), "cases-succeeded")
	b.ReportMetric(float64(len(results)), "cases-total")
}

func BenchmarkVerificationTest(b *testing.B) {
	labels := []string{"C1", "L2", "CM1", "K2", "M7", "A1"}
	var results []experiment.VerifyResult
	for i := 0; i < b.N; i++ {
		results = experiment.RunVerification(labels, experiment.VerifyOptions{
			Seed: 600 + int64(i), Trials: 3,
		})
	}
	perfect := 0
	for _, r := range results {
		if r.Err != nil {
			b.Fatalf("%s: %v", r.Label, r.Err)
		}
		if r.Perfect() {
			perfect++
		}
	}
	b.ReportMetric(float64(perfect)/float64(len(results)), "perfect-frac")
}

func benchFinding(b *testing.B, id int) {
	b.Helper()
	holds := false
	for i := 0; i < b.N; i++ {
		results := experiment.RunFindings(700 + int64(i)*3)
		r := results[id-1]
		if r.Err != nil {
			b.Fatal(r.Err)
		}
		holds = r.Holds
	}
	v := 0.0
	if holds {
		v = 1
	}
	b.ReportMetric(v, "holds")
}

func BenchmarkFinding1OnDemand(b *testing.B)       { benchFinding(b, 1) }
func BenchmarkFinding2HalfOpen(b *testing.B)       { benchFinding(b, 2) }
func BenchmarkFinding3Unidirectional(b *testing.B) { benchFinding(b, 3) }

func BenchmarkDefenseAckTimeout(b *testing.B) {
	timeouts := []time.Duration{20 * time.Second, 10 * time.Second, 5 * time.Second}
	var results []experiment.AckDefenseResult
	for i := 0; i < b.N; i++ {
		results = experiment.RunAckTimeoutDefense("C2", timeouts, 800+int64(i))
	}
	for _, r := range results {
		if r.Err != nil {
			b.Fatal(r.Err)
		}
	}
	b.ReportMetric(results[0].AchievedDelay.Seconds(), "stock-window-s")
	b.ReportMetric(results[len(results)-1].AchievedDelay.Seconds(), "hardened-window-s")
	b.ReportMetric(float64(results[len(results)-1].TrafficPerHour)/float64(results[0].TrafficPerHour), "traffic-blowup")
}

func BenchmarkDefenseTimestamp(b *testing.B) {
	var res experiment.TimestampDefenseResult
	for i := 0; i < b.N; i++ {
		res = experiment.RunTimestampDefense(820 + int64(i))
	}
	if res.Err != nil {
		b.Fatal(res.Err)
	}
	metric := func(ok bool) float64 {
		if ok {
			return 1
		}
		return 0
	}
	b.ReportMetric(metric(res.TriggerDelayBlocked), "trigger-blocked")
	b.ReportMetric(metric(res.ConditionDelayStillWorks), "condition-bypass")
}

// BenchmarkSimulatedHomeHour measures raw simulator throughput: one hour
// of a ten-device home with keep-alives, per iteration.
func BenchmarkSimulatedHomeHour(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := experiment.NewTestbed(experiment.TestbedConfig{
			Seed:    0,
			Devices: []string{"C1", "M1", "L2", "C2", "M3", "P2", "CM1", "K2", "T1", "SD1"},
		})
		if err != nil {
			b.Fatal(err)
		}
		tb.Start()
		tb.Clock.RunFor(time.Hour)
		if tb.TotalAlarmCount() != 0 {
			b.Fatalf("idle hour raised %d alarms", tb.TotalAlarmCount())
		}
	}
}

// obsWorkload drives the simulator's hottest path — the event loop — for a
// fixed number of events. A nil registry exercises the uninstrumented
// (nil-handle) branch, which is what the pre-observability code paid.
func obsWorkload(reg *obs.Registry) {
	clk := simtime.NewClock()
	clk.Instrument(reg)
	const events = 200_000
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < events {
			clk.Schedule(time.Millisecond, tick)
		}
	}
	// Several concurrent chains keep the heap non-trivial.
	for i := 0; i < 8; i++ {
		clk.Schedule(time.Duration(i)*time.Microsecond, tick)
	}
	clk.Run()
}

// timeWorkload measures one workload run, from a clean GC state so
// collector pauses from earlier trials don't land inside the timing.
func timeWorkload(reg *obs.Registry) time.Duration {
	runtime.GC()
	start := time.Now()
	obsWorkload(reg)
	return time.Since(start)
}

// BenchmarkObsInstrumentedHotPath asserts the observability layer's event
// loop tax: a fully instrumented clock must stay within 5% of the
// uninstrumented (nil-registry) path, which matches the pre-obs seed code.
// Trials of the two variants are interleaved and the minimum of each is
// compared, so machine-load drift affects both sides equally.
func BenchmarkObsInstrumentedHotPath(b *testing.B) {
	obsWorkload(nil) // warm-up
	obsWorkload(obs.NewRegistry())
	var base, inst time.Duration
	for trial := 0; trial < 16; trial++ {
		if d := timeWorkload(nil); base == 0 || d < base {
			base = d
		}
		if d := timeWorkload(obs.NewRegistry()); inst == 0 || d < inst {
			inst = d
		}
	}
	overhead := float64(inst)/float64(base) - 1
	b.ReportMetric(overhead*100, "overhead-%")
	if overhead > 0.05 {
		b.Fatalf("instrumented hot path %.1f%% over uninstrumented (%v vs %v), budget is 5%%",
			overhead*100, inst, base)
	}
	for i := 0; i < b.N; i++ {
		obsWorkload(obs.NewRegistry())
	}
}

// BenchmarkTraceEmit measures the raw cost of one flight-recorder event on
// a pre-sized ring — the per-event price every instrumented layer pays when
// tracing is enabled.
func BenchmarkTraceEmit(b *testing.B) {
	tr := obs.NewTrace(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(time.Duration(i), "tcpsim", "rto_fired", "C1", int64(i))
	}
	if len(tr.Events()) == 0 {
		b.Fatal("trace recorded nothing")
	}
}

// traceWorkload runs the Table I hot path for one device. A positive
// TraceCap turns the flight recorder on; 0 leaves it off, nil-ing every
// capture-time handle (the zero-tax baseline).
func traceWorkload(b *testing.B, traceCap int) {
	b.Helper()
	rows := experiment.RunTable([]string{"C1"}, experiment.TableOptions{
		Seed: 77, Trials: 1, TraceCap: traceCap,
	})
	if rows[0].Err != nil {
		b.Fatal(rows[0].Err)
	}
}

// BenchmarkTraceHotPathOverhead asserts the flight recorder's tax on the
// table measurement path: a run with a 4,096-event ring must stay within
// 5% of a run with the recorder off. As in BenchmarkObsInstrumentedHotPath,
// trials interleave and the minimum of each side is compared, so machine
// load drifts both sides equally.
func BenchmarkTraceHotPathOverhead(b *testing.B) {
	const ring = 4096
	timeTable := func(traceCap int) time.Duration {
		runtime.GC()
		start := time.Now()
		for i := 0; i < 4; i++ {
			traceWorkload(b, traceCap)
		}
		return time.Since(start)
	}
	traceWorkload(b, 0) // warm-up
	traceWorkload(b, ring)
	var base, traced time.Duration
	for trial := 0; trial < 12; trial++ {
		if d := timeTable(0); base == 0 || d < base {
			base = d
		}
		if d := timeTable(ring); traced == 0 || d < traced {
			traced = d
		}
	}
	overhead := float64(traced)/float64(base) - 1
	b.ReportMetric(overhead*100, "overhead-%")
	if overhead > 0.05 {
		b.Fatalf("traced hot path %.1f%% over trace-disabled (%v vs %v), budget is 5%%",
			overhead*100, traced, base)
	}
	for i := 0; i < b.N; i++ {
		traceWorkload(b, ring)
	}
}

// BenchmarkFleetCampaign runs the default campaign over a synthetic
// population, reporting population throughput (homes/s) and campaign
// outcome fractions. Parallelism comes from the fleet worker pool, not
// b.RunParallel: the unit of work is one whole home, and every home's
// testbed is built from scratch.
func BenchmarkFleetCampaign(b *testing.B) {
	const homes = 64
	var res fleet.Result
	for i := 0; i < b.N; i++ {
		c := fleet.Campaign{
			Spec:      fleet.DefaultSpec(),
			Homes:     homes,
			Workers:   runtime.GOMAXPROCS(0),
			ShardSize: 8,
			Seed:      1000,
		}
		var err error
		res, err = c.Run()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(homes)*float64(b.N)/b.Elapsed().Seconds(), "homes/s")
	if res.TotalTrials > 0 {
		b.ReportMetric(float64(res.TotalSuccesses)/float64(res.TotalTrials), "success-frac")
		b.ReportMetric(float64(res.Metrics.Counter("fleet_alarms_total")), "alarms")
	}
}

// BenchmarkOfflineHoldHour runs the offline attack at fleet scale: in
// every home the attacker keeps one session blackholed for an hour of
// virtual time while it re-poisons ARP caches on a timer (Finding 2). That
// is the per-frame path — scheduler, ARP, frame delivery, capture — which
// the other fleet benchmarks, dominated by per-home set-up, barely touch.
func BenchmarkOfflineHoldHour(b *testing.B) {
	spec, err := fleet.ParseSpec([]byte(`{"attack":"offline","holdSecs":3600}`))
	if err != nil {
		b.Fatal(err)
	}
	const homes = 8
	var res fleet.Result
	for i := 0; i < b.N; i++ {
		c := fleet.Campaign{
			Spec:      spec,
			Homes:     homes,
			Workers:   runtime.GOMAXPROCS(0),
			ShardSize: 4,
			Seed:      1,
		}
		if res, err = c.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(homes)*float64(b.N)/b.Elapsed().Seconds(), "homes/s")
	if res.TotalTrials > 0 {
		b.ReportMetric(float64(res.TotalSuccesses)/float64(res.TotalTrials), "success-frac")
		b.ReportMetric(float64(res.Metrics.Counter("fleet_alarms_total")), "alarms")
	}
}

// BenchmarkReplayCampaign measures the record-and-replay family at fleet
// scale. On top of the campaign engine's per-home cost it pays for capture
// payload retention, fingerprint-driven target selection and the raw/app
// injection ladder, so it bounds the most expensive attack family.
func BenchmarkReplayCampaign(b *testing.B) {
	const homes = 24
	var res fleet.Result
	spec := fleet.DefaultSpec()
	spec.Name = "replay-bench"
	spec.Attack = fleet.AttackReplay
	spec.Targets = fleet.TargetSpec{Classes: []string{"plug", "thermostat", "water sensor"}, PerHome: 2}
	for i := 0; i < b.N; i++ {
		c := fleet.Campaign{
			Spec:      spec,
			Homes:     homes,
			Workers:   runtime.GOMAXPROCS(0),
			ShardSize: 4,
			Seed:      1000,
		}
		var err error
		res, err = c.Run()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(homes)*float64(b.N)/b.Elapsed().Seconds(), "homes/s")
	if res.TotalTrials > 0 {
		b.ReportMetric(float64(res.TotalSuccesses)/float64(res.TotalTrials), "success-frac")
	}
}

// BenchmarkAblationMargin regenerates the release-margin sweep: the design
// parameter trading stolen delay against stealth.
func BenchmarkAblationMargin(b *testing.B) {
	margins := []time.Duration{time.Second, 2 * time.Second, 5 * time.Second, 10 * time.Second}
	var points []experiment.MarginPoint
	for i := 0; i < b.N; i++ {
		points = experiment.RunMarginAblation("C1", margins, 2, 900+int64(i))
	}
	for _, p := range points {
		if p.Err != nil {
			b.Fatal(p.Err)
		}
	}
	b.ReportMetric(points[0].MeanDelay.Seconds(), "tight-margin-delay-s")
	b.ReportMetric(points[len(points)-1].MeanDelay.Seconds(), "wide-margin-delay-s")
}

// BenchmarkAblationBoundary regenerates the detection-cliff sweep around
// the SmartThings 47s window edge.
func BenchmarkAblationBoundary(b *testing.B) {
	holds := []time.Duration{40 * time.Second, 45 * time.Second, 50 * time.Second, 60 * time.Second}
	var points []experiment.BoundaryPoint
	for i := 0; i < b.N; i++ {
		points = experiment.RunDetectionBoundary("C1", holds, 910+int64(i))
	}
	survived := 0
	for _, p := range points {
		if p.Err != nil {
			b.Fatal(p.Err)
		}
		if !p.SessionDied {
			survived++
		}
	}
	b.ReportMetric(float64(survived), "holds-inside-window")
	b.ReportMetric(float64(len(points)-survived), "holds-past-cliff")
}
