package bench

import (
	"bytes"
	"strings"
	"testing"
)

// recordedSamples is a captured `go test -bench -benchmem` run across two
// packages, including the noise lines a real run interleaves (headers,
// PASS/ok, benchmark log output) and shuffled result order.
const recordedSamples = `goos: linux
goarch: amd64
pkg: repro
cpu: Imaginary CPU @ 3.50GHz
BenchmarkFleetCampaign-8   	       2	 612345678 ns/op	        104.5 homes/s	       0.9062 success-frac	 1234567 B/op	   23456 allocs/op
BenchmarkTableICloudDevices-8   	       3	 412345678 ns/op	        14.60 eDelay-s/device	       0.9394 stealth-frac	  987654 B/op	    8765 allocs/op
PASS
ok  	repro	2.342s
goos: linux
goarch: amd64
pkg: repro/internal/simtime
cpu: Imaginary CPU @ 3.50GHz
BenchmarkTimerChurn-8   	 9131304	       131.0 ns/op	      80 B/op	       1 allocs/op
Benchmark log line that should be ignored
BenchmarkTimerReset-8   	12345678	        98.70 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	repro/internal/simtime	3.456s
`

func parseRecorded(t *testing.T) Suite {
	t.Helper()
	results, err := Parse(strings.NewReader(recordedSamples))
	if err != nil {
		t.Fatal(err)
	}
	return NewSuite(results)
}

func TestParseRecordedSamples(t *testing.T) {
	s := parseRecorded(t)
	if len(s.Benchmarks) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4", len(s.Benchmarks))
	}
	r, ok := s.Find("repro", "BenchmarkFleetCampaign")
	if !ok {
		t.Fatal("BenchmarkFleetCampaign missing")
	}
	if r.Iterations != 2 || r.NsPerOp != 612345678 || r.AllocsPerOp != 23456 || r.BytesPerOp != 1234567 {
		t.Fatalf("FleetCampaign parsed wrong: %+v", r)
	}
	if v, ok := r.Metric("homes/s"); !ok || v != 104.5 {
		t.Fatalf("homes/s = %v ok=%v, want 104.5", v, ok)
	}
	if v, ok := r.Metric("success-frac"); !ok || v != 0.9062 {
		t.Fatalf("success-frac = %v ok=%v", v, ok)
	}
	reset, ok := s.Find("repro/internal/simtime", "BenchmarkTimerReset")
	if !ok || reset.AllocsPerOp != 0 {
		t.Fatalf("TimerReset: %+v ok=%v, want 0 allocs/op present", reset, ok)
	}
}

// The emitted document must be a pure function of the recorded samples:
// same input, same bytes, every time. This is what makes the committed
// BENCH_hotpath.json diffable.
func TestWriteJSONByteDeterministic(t *testing.T) {
	var first []byte
	for i := 0; i < 5; i++ {
		var buf bytes.Buffer
		if err := parseRecorded(t).WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = buf.Bytes()
			continue
		}
		if !bytes.Equal(first, buf.Bytes()) {
			t.Fatalf("run %d produced different bytes:\n%s\nvs\n%s", i, first, buf.Bytes())
		}
	}
	if !bytes.HasPrefix(first, []byte("{\n  \"schema\": \"phantomlab-bench/v1\"")) {
		t.Fatalf("unexpected document prefix: %.60s", first)
	}
}

func TestSuiteRoundTrips(t *testing.T) {
	s := parseRecorded(t)
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSuite(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := back.WriteJSON(&again); err != nil {
		t.Fatal(err)
	}
	var orig bytes.Buffer
	if err := s.WriteJSON(&orig); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig.Bytes(), again.Bytes()) {
		t.Fatal("suite did not survive a JSON round trip byte-identically")
	}
}

func TestBenchmarksSortedAndNamesCanonical(t *testing.T) {
	s := parseRecorded(t)
	for i, r := range s.Benchmarks {
		if strings.Contains(r.Name, "-") {
			t.Fatalf("name %q kept its GOMAXPROCS suffix", r.Name)
		}
		if i > 0 {
			prev := s.Benchmarks[i-1]
			if prev.Pkg+"."+prev.Name >= r.Pkg+"."+r.Name {
				t.Fatalf("benchmarks not sorted: %q before %q", prev.Name, r.Name)
			}
		}
	}
}

func TestCompareWithinTolerancePasses(t *testing.T) {
	base := parseRecorded(t)
	cur := parseRecorded(t)
	if regs := Compare(base, cur, DefaultTolerance); len(regs) != 0 {
		t.Fatalf("identical suites flagged: %v", regs)
	}
}

func TestCompareFlagsNsRegression(t *testing.T) {
	base := parseRecorded(t)
	cur := parseRecorded(t)
	for i := range cur.Benchmarks {
		if cur.Benchmarks[i].Name == "BenchmarkTimerReset" {
			cur.Benchmarks[i].NsPerOp *= 2
		}
	}
	regs := Compare(base, cur, DefaultTolerance)
	if len(regs) != 1 || !strings.Contains(regs[0], "BenchmarkTimerReset") || !strings.Contains(regs[0], "ns/op") {
		t.Fatalf("want one ns/op regression for TimerReset, got %v", regs)
	}
	// The CI preset ignores timing entirely — foreign hardware.
	if regs := Compare(base, cur, CITolerance); len(regs) != 0 {
		t.Fatalf("CI tolerance must not compare ns/op, got %v", regs)
	}
}

func TestCompareFlagsAllocRegression(t *testing.T) {
	base := parseRecorded(t)
	cur := parseRecorded(t)
	for i := range cur.Benchmarks {
		if cur.Benchmarks[i].Name == "BenchmarkFleetCampaign" {
			cur.Benchmarks[i].AllocsPerOp *= 1.5
		}
	}
	regs := Compare(base, cur, CITolerance)
	if len(regs) != 1 || !strings.Contains(regs[0], "allocs/op") {
		t.Fatalf("want one allocs/op regression, got %v", regs)
	}
}

// TestCompareFlagsOutcomeChange pins that outcome metrics must match the
// baseline exactly under both presets, while rates (units ending in /s)
// may move freely.
func TestCompareFlagsOutcomeChange(t *testing.T) {
	base := parseRecorded(t)
	for _, tol := range []Tolerance{DefaultTolerance, CITolerance} {
		cur := parseRecorded(t)
		for i := range cur.Benchmarks {
			if cur.Benchmarks[i].Name == "BenchmarkFleetCampaign" {
				cur.Benchmarks[i].Metrics = []Metric{{Unit: "homes/s", Value: 50}}
			}
		}
		regs := Compare(base, cur, tol)
		if len(regs) != 1 || !strings.Contains(regs[0], "success-frac") || !strings.Contains(regs[0], "missing") {
			t.Fatalf("%+v: want one missing success-frac, got %v", tol, regs)
		}
		for i := range cur.Benchmarks {
			if cur.Benchmarks[i].Name == "BenchmarkTableICloudDevices" {
				cur.Benchmarks[i].Metrics[0].Value = 14.59 // eDelay-s/device
			}
			if cur.Benchmarks[i].Name == "BenchmarkFleetCampaign" {
				cur.Benchmarks[i].Metrics = append(cur.Benchmarks[i].Metrics, Metric{Unit: "success-frac", Value: 0.9062})
			}
		}
		regs = Compare(base, cur, tol)
		if len(regs) != 1 || !strings.Contains(regs[0], "eDelay-s/device 14.59 differs from baseline 14.6") {
			t.Fatalf("%+v: want one eDelay-s/device change, got %v", tol, regs)
		}
	}
}

func TestCompareAllocSlackAbsorbsSmallCounts(t *testing.T) {
	base := parseRecorded(t)
	cur := parseRecorded(t)
	for i := range cur.Benchmarks {
		if cur.Benchmarks[i].Name == "BenchmarkTimerReset" {
			cur.Benchmarks[i].AllocsPerOp = 3 // 0 -> 3: under the noise floor
		}
	}
	if regs := Compare(base, cur, DefaultTolerance); len(regs) != 0 {
		t.Fatalf("slack should absorb +3 allocs/op from zero, got %v", regs)
	}
}

// TestCompareFlagsSetMismatch pins the contract that baseline and current
// must cover the same benchmark set: a benchmark dropped from the run is
// lost coverage, one added without refreshing the baseline is a stale
// baseline, and both directions fail with the offending name and a hint
// at the fix.
func TestCompareFlagsSetMismatch(t *testing.T) {
	base := parseRecorded(t)
	cur := parseRecorded(t)
	dropped := cur.Benchmarks[len(cur.Benchmarks)-1].key()
	cur.Benchmarks = cur.Benchmarks[:len(cur.Benchmarks)-1]

	regs := Compare(base, cur, CITolerance)
	if len(regs) != 1 || !strings.Contains(regs[0], dropped) || !strings.Contains(regs[0], "missing from current run") {
		t.Fatalf("want one coverage-loss regression naming %s, got %v", dropped, regs)
	}

	// The reverse — current grew a benchmark the baseline lacks — must fail
	// just as loudly: the committed baseline is stale.
	regs = Compare(cur, base, CITolerance)
	if len(regs) != 1 || !strings.Contains(regs[0], dropped) || !strings.Contains(regs[0], "missing from baseline") {
		t.Fatalf("want one stale-baseline regression naming %s, got %v", dropped, regs)
	}
	if !strings.Contains(regs[0], "make bench-json") {
		t.Fatalf("stale-baseline message should name the fix, got %q", regs[0])
	}

	// Disjoint in both directions: every divergent name is reported, so the
	// diff is complete, not first-error-only.
	both := parseRecorded(t)
	both.Benchmarks = append([]Result{}, base.Benchmarks[:2]...)
	tail := NewSuite(base.Benchmarks[2:])
	regs = Compare(NewSuite(both.Benchmarks), tail, CITolerance)
	if len(regs) != len(base.Benchmarks) {
		t.Fatalf("disjoint suites: want %d messages (one per name), got %v", len(base.Benchmarks), regs)
	}
}

func TestReadSuiteRejectsUnknownSchema(t *testing.T) {
	if _, err := ReadSuite(strings.NewReader(`{"schema":"something-else/v9"}`)); err == nil {
		t.Fatal("unknown schema accepted")
	}
}
