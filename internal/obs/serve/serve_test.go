package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/obs/timeline"
)

func get(t *testing.T, h http.Handler, path string) (int, string, string) {
	t.Helper()
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
}

// parseOpenMetrics reads sample lines ("name{labels} value") into a map,
// checking the exposition is well-formed enough to scrape: non-sample
// lines are # comments and the last line is # EOF.
func parseOpenMetrics(t *testing.T, body string) map[string]float64 {
	t.Helper()
	lines := strings.Split(strings.TrimRight(body, "\n"), "\n")
	if len(lines) == 0 || lines[len(lines)-1] != "# EOF" {
		t.Fatalf("exposition does not end with # EOF:\n%s", body)
	}
	out := make(map[string]float64)
	for _, ln := range lines {
		if ln == "" || strings.HasPrefix(ln, "#") {
			continue
		}
		sp := strings.LastIndexByte(ln, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", ln)
		}
		v, err := strconv.ParseFloat(ln[sp+1:], 64)
		if err != nil {
			t.Fatalf("malformed sample value in %q: %v", ln, err)
		}
		out[ln[:sp]] = v
	}
	return out
}

func testSnapshot(n int) obs.Snapshot {
	r := obs.NewRegistry()
	for i := 0; i < n; i++ {
		r.Counter("requests_total").Add(7)
		r.Histogram("lat_seconds", []float64{1, 10}).Observe(0.5 + float64(i))
	}
	r.Gauge("depth").Set(int64(n))
	return r.Snapshot()
}

func TestHealthz(t *testing.T) {
	code, body, _ := get(t, Plane{}.Handler(), "/healthz")
	if code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Fatalf("healthz = %d %q", code, body)
	}
}

func TestNilHooks404(t *testing.T) {
	h := Plane{}.Handler()
	for _, path := range []string{"/metrics", "/progress", "/trace"} {
		if code, _, _ := get(t, h, path); code != http.StatusNotFound {
			t.Errorf("%s with nil hook = %d, want 404", path, code)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	h := Plane{Metrics: func() obs.Snapshot { return testSnapshot(3) }}.Handler()
	code, body, ct := get(t, h, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	if ct != openMetricsContentType {
		t.Fatalf("content type = %q", ct)
	}
	samples := parseOpenMetrics(t, body)
	if samples["requests_total"] != 21 {
		t.Fatalf("requests_total = %v, want 21\n%s", samples["requests_total"], body)
	}
	if samples["lat_seconds_count"] != 3 {
		t.Fatalf("lat_seconds_count = %v, want 3", samples["lat_seconds_count"])
	}
}

// TestMetricsMidRunPrefixConsistent is the live-scrape contract: a mid-run
// scrape of a streaming accumulator parses as OpenMetrics and is the
// aggregate of the snapshots added so far — every family present in the
// final aggregate, every monotone sample (counters, bucket counts,
// histogram counts) no greater than its final value.
func TestMetricsMidRunPrefixConsistent(t *testing.T) {
	acc := obs.NewAccumulator()
	h := Plane{Metrics: acc.State}.Handler()

	var midBodies []string
	for i := 0; i < 4; i++ {
		acc.Add(testSnapshot(i + 1))
		_, body, _ := get(t, h, "/metrics")
		midBodies = append(midBodies, body)
	}
	final := parseOpenMetrics(t, midBodies[len(midBodies)-1])

	for i, body := range midBodies {
		mid := parseOpenMetrics(t, body)
		for key, v := range mid {
			fv, ok := final[key]
			if !ok {
				t.Fatalf("scrape %d: sample %q missing from final exposition", i, key)
			}
			monotone := strings.Contains(key, "_total") ||
				strings.Contains(key, "_bucket") ||
				strings.Contains(key, "_count") ||
				strings.Contains(key, "_sum")
			if monotone && v > fv {
				t.Errorf("scrape %d: %s = %v exceeds final %v", i, key, v, fv)
			}
		}
	}
}

func TestProgressEndpoint(t *testing.T) {
	start := time.Unix(1000, 0)
	tr := fleet.NewProgressTracker(start, 40)
	// One shard's homes recorded 4 trials against C1, 3 of them
	// successful, in the series a fleet home's registry keeps.
	reg := obs.NewRegistry()
	reg.Counter("fleet_trials_total", obs.L("model", "C1")).Add(4)
	reg.Counter("fleet_trials_success", obs.L("model", "C1")).Add(3)
	acc := obs.NewAccumulator()
	acc.AddRegistry(reg)
	tr.Observe(fleet.Progress{Total: 4, Partial: fleet.Partial{
		Spans:         []fleet.Span{{First: 0, Last: 1}},
		HomesAttacked: 10,
		Metrics:       acc.State(),
		MetricSums:    acc.HistogramSums(),
	}})
	h := Plane{Progress: func() any { return tr.ReportAt(start.Add(2 * time.Second)) }}.Handler()

	code, body, ct := get(t, h, "/progress")
	if code != http.StatusOK || ct != "application/json" {
		t.Fatalf("/progress = %d %q", code, ct)
	}
	var rep fleet.ProgressReport
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("progress not JSON: %v\n%s", err, body)
	}
	if rep.HomesDone != 10 || rep.HomesTotal != 40 || rep.HomesPerSec != 5 {
		t.Fatalf("progress payload wrong: %+v", rep)
	}
	if m := rep.PerModel; len(m) != 1 || m[0].Model != "C1" || m[0].Trials != 4 || m[0].Successes != 3 || m[0].SuccessRate != 0.75 {
		t.Fatalf("per-model wrong: %+v", rep.PerModel)
	}
}

func TestTraceEndpoint(t *testing.T) {
	tr := obs.NewTrace(16)
	for i := 0; i < 2; i++ {
		tr.Emit(time.Duration(i)*time.Millisecond, "serve", "tick", "", int64(i))
	}
	h := Plane{TraceSources: func() []timeline.Source {
		return []timeline.Source{{Name: "run", Events: tr.Events()}}
	}}.Handler()
	code, body, ct := get(t, h, "/trace")
	if code != http.StatusOK || ct != "application/json" {
		t.Fatalf("/trace = %d %q", code, ct)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("trace not Chrome JSON: %v\n%s", err, body)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}

	// A traceless run still serves a valid, empty document.
	empty := Plane{TraceSources: func() []timeline.Source { return nil }}.Handler()
	_, body, _ = get(t, empty, "/trace")
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("empty trace not valid JSON: %v\n%s", err, body)
	}
	if len(doc.TraceEvents) != 0 {
		t.Fatalf("empty trace has events: %s", body)
	}
}

func TestPprofExposed(t *testing.T) {
	code, body, _ := get(t, Plane{}.Handler(), "/debug/pprof/cmdline")
	if code != http.StatusOK || body == "" {
		t.Fatalf("/debug/pprof/cmdline = %d", code)
	}
}

// TestLiveFleetCampaign wires a real campaign to a real listener — the
// full -serve shape: scrape mid-run from the observer, then check the
// tracker ends on the final result's numbers.
func TestLiveFleetCampaign(t *testing.T) {
	tr := fleet.NewProgressTracker(time.Unix(0, 0), 24)
	srv, err := Start("127.0.0.1:0", Plane{
		Metrics:  tr.Metrics,
		Progress: func() any { return tr.ReportAt(time.Unix(1, 0)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	spec := fleet.DefaultSpec()
	spec.Trials = 1
	scrapes := 0
	c := fleet.Campaign{
		Spec: spec, Homes: 24, ShardSize: 4, Seed: 7, Workers: 3,
		Observe: func(p fleet.Progress) {
			tr.Observe(p)
			for _, path := range []string{"/healthz", "/metrics", "/progress"} {
				resp, err := http.Get("http://" + srv.Addr() + path)
				if err != nil {
					t.Errorf("mid-run GET %s: %v", path, err)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("mid-run GET %s = %d", path, resp.StatusCode)
				}
				scrapes++
			}
		},
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if scrapes == 0 {
		t.Fatal("no mid-run scrapes happened")
	}
	if res.TotalTrials == 0 {
		t.Fatal("campaign ran no trials")
	}
	if got := tr.ReportAt(time.Unix(1, 0)); got.HomesDone != 24 {
		t.Fatalf("tracker homesDone = %d, want 24", got.HomesDone)
	}
	live, err := json.Marshal(tr.Metrics())
	if err != nil {
		t.Fatal(err)
	}
	final, err := json.Marshal(res.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live, final) {
		t.Fatal("the tracker's last /metrics snapshot differs from Result.Metrics")
	}
}
