package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("frames_total", L("segment", "lan"))
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("Value = %d, want 5", c.Value())
	}
	if again := r.Counter("frames_total", L("segment", "lan")); again != c {
		t.Fatal("same name+labels should return the same handle")
	}
	if other := r.Counter("frames_total", L("segment", "wan")); other == c {
		t.Fatal("different labels should be a different handle")
	}
}

func TestGaugeHighWaterMark(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("queue_depth")
	g.Set(3)
	g.Set(9)
	g.Set(2)
	g.Add(1)
	if g.Value() != 3 {
		t.Fatalf("Value = %d, want 3", g.Value())
	}
	if g.Max() != 9 {
		t.Fatalf("Max = %d, want 9", g.Max())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency_seconds", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	h.ObserveDuration(2 * time.Second)
	snap := r.Snapshot()
	hv, ok := snap.Histogram("latency_seconds")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	// 0.5 and 1 land in <=1; 5 and 2s in <=10; 50 in <=100; 500 overflows.
	want := []uint64{2, 2, 1, 1}
	if !reflect.DeepEqual(hv.Counts, want) {
		t.Fatalf("Counts = %v, want %v", hv.Counts, want)
	}
	if hv.Count != 6 {
		t.Fatalf("Count = %d, want 6", hv.Count)
	}
	if hv.Sum != 0.5+1+5+50+500+2 {
		t.Fatalf("Sum = %v", hv.Sum)
	}
}

func TestHistogramBadBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-ascending bounds")
		}
	}()
	NewRegistry().Histogram("bad", []float64{5, 1})
}

func TestTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on re-registering x as a gauge")
		}
	}()
	r.Gauge("x")
}

func TestNilHandlesAndRegistryAreSafe(t *testing.T) {
	var r *Registry
	c := r.Counter("a")
	g := r.Gauge("b")
	h := r.Histogram("c", DurationBuckets)
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	h.ObserveDuration(time.Second)
	r.Trace().Add(TraceEvent{})
	r.SetTraceCapacity(10)
	if c.Value() != 0 || g.Value() != 0 || g.Max() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil handles should read as zero")
	}
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Fatal("nil registry snapshot should be empty")
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	build := func() Snapshot {
		r := NewRegistry()
		r.Counter("zeta").Add(1)
		r.Counter("alpha", L("x", "2")).Add(2)
		r.Counter("alpha", L("x", "1")).Add(3)
		r.Gauge("mid").Set(7)
		r.Histogram("h", []float64{1}).Observe(0.5)
		return r.Snapshot()
	}
	a, b := build(), build()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("snapshots differ:\n%+v\n%+v", a, b)
	}
	if a.Counters[0].Name != "alpha" || a.Counters[0].Labels[0].Value != "1" {
		t.Fatalf("counters not sorted: %+v", a.Counters)
	}
}

func TestSnapshotIsolatedFromRegistry(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n")
	c.Add(1)
	snap := r.Snapshot()
	c.Add(10)
	if snap.Counter("n") != 1 {
		t.Fatalf("snapshot mutated by later writes: %d", snap.Counter("n"))
	}
}

func TestMergeAcrossGoroutines(t *testing.T) {
	// The fleet's shape: one registry per worker, merged after the fact.
	// Run under -race this also proves snapshots cross goroutines safely.
	const workers = 4
	snaps := make([]Snapshot, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := NewRegistry()
			r.Counter("events_total").Add(uint64(10 * (w + 1)))
			r.Gauge("depth").Set(int64(w + 1))
			r.Histogram("lat", []float64{1, 10}).Observe(float64(w))
			snaps[w] = r.Snapshot()
		}(w)
	}
	wg.Wait()
	m := Merge(snaps...)
	if m.Counter("events_total") != 10+20+30+40 {
		t.Fatalf("merged counter = %d", m.Counter("events_total"))
	}
	g := m.Gauge("depth")
	if g.Max != workers {
		t.Fatalf("merged gauge max = %d, want %d", g.Max, workers)
	}
	if g.Value != 1+2+3+4 {
		t.Fatalf("merged gauge value = %d", g.Value)
	}
	h, ok := m.Histogram("lat")
	if !ok || h.Count != workers {
		t.Fatalf("merged histogram = %+v ok=%v", h, ok)
	}
}

func TestMergeMismatchedBoundsPanics(t *testing.T) {
	a := NewRegistry()
	a.Histogram("h", []float64{1}).Observe(0.5)
	b := NewRegistry()
	b.Histogram("h", []float64{2}).Observe(0.5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched bounds")
		}
	}()
	Merge(a.Snapshot(), b.Snapshot())
}

func TestTraceRingWraps(t *testing.T) {
	tr := NewTrace(3)
	for i := 0; i < 5; i++ {
		tr.Emit(time.Duration(i), "c", "e", "", int64(i))
	}
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("len = %d, want 3", len(evs))
	}
	for i, want := range []int64{2, 3, 4} {
		if evs[i].Value != want {
			t.Fatalf("events = %+v, want oldest-first 2,3,4", evs)
		}
	}
}

// TestTraceDisabled: a registry's flight recorder is off until a run asks
// for it, and SetTraceCapacity with a capacity of 0 or less turns it off
// again.
func TestTraceDisabled(t *testing.T) {
	r := NewRegistry()
	if r.Trace() != nil {
		t.Fatal("a new registry has a flight recorder")
	}
	r.Trace().Emit(0, "c", "e", "", 0)
	for _, n := range []int{0, -1} {
		r.SetTraceCapacity(4)
		r.SetTraceCapacity(n)
		if r.Trace() != nil {
			t.Fatalf("SetTraceCapacity(%d) left the recorder on", n)
		}
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.SetTraceCapacity(4)
	r.Counter("frames", L("segment", "lan")).Add(2)
	r.Gauge("depth").Set(5)
	r.Histogram("lat", []float64{1, 10}).Observe(3)
	r.Trace().Emit(time.Second, "netsim", "drop", "lan", 1)
	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counter("frames", L("segment", "lan")) != 2 {
		t.Fatalf("round-trip lost counter: %s", data)
	}
	// The recorder's events stay out of snapshots.
	if bytes.Contains(data, []byte("netsim")) || bytes.Contains(data, []byte("trace")) {
		t.Fatalf("snapshot carries trace events: %s", data)
	}
}

func TestFamilies(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", L("x", "1"))
	r.Counter("b_total", L("x", "2"))
	r.Gauge("a_depth")
	r.Histogram("c_lat", []float64{1})
	got := r.Snapshot().Families()
	want := []string{"a_depth", "b_total", "c_lat"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Families = %v, want %v", got, want)
	}
}

// TestSeriesIdentityUnambiguous pins that a series is its (name, labels)
// tuple, not a joined string: names and label values that contain the
// punctuation of the rendered form never alias another series, in the
// registry, in snapshot lookups or in a merge.
func TestSeriesIdentityUnambiguous(t *testing.T) {
	r := NewRegistry()
	braced := r.Counter("a{b=c}")
	labeled := r.Counter("a", L("b", "c"))
	if braced == labeled {
		t.Fatal(`Counter("a{b=c}") and Counter("a", b=c) returned the same handle`)
	}
	packed := r.Counter("x", L("k", "v}{k2=v2"))
	split := r.Counter("x", L("k", "v"), L("k2", "v2"))
	if packed == split {
		t.Fatal(`Counter("x", k="v}{k2=v2") and Counter("x", k=v, k2=v2) returned the same handle`)
	}
	braced.Add(1)
	labeled.Add(2)
	packed.Add(3)
	split.Add(4)
	r.Gauge("g{b=c}").Set(5)
	r.Gauge("g", L("b", "c")).Set(6)
	r.Histogram("h", []float64{1}, L("k", "v}{k2=v2")).Observe(0.5)
	r.Histogram("h", []float64{1}, L("k", "v"), L("k2", "v2")).Observe(7)

	s := r.Snapshot()
	if len(s.Counters) != 4 || len(s.Gauges) != 2 || len(s.Histograms) != 2 {
		t.Fatalf("snapshot has %d counters, %d gauges, %d histograms; want 4, 2, 2",
			len(s.Counters), len(s.Gauges), len(s.Histograms))
	}
	for _, m := range []Snapshot{s, Merge(s, s)} {
		k := m.Counter("a{b=c}")
		for _, c := range []struct {
			got  uint64
			want uint64
		}{
			{m.Counter("a{b=c}"), k},
			{m.Counter("a", L("b", "c")), 2 * k},
			{m.Counter("x", L("k", "v}{k2=v2")), 3 * k},
			{m.Counter("x", L("k", "v"), L("k2", "v2")), 4 * k},
			{uint64(m.Gauge("g{b=c}").Max), 5},
			{uint64(m.Gauge("g", L("b", "c")).Max), 6},
		} {
			if c.got != c.want {
				t.Fatalf("series read %d, want %d: identities alias in %+v", c.got, c.want, m)
			}
		}
		h, ok := m.Histogram("h", L("k", "v"), L("k2", "v2"))
		if !ok || h.Sum != 7*float64(k) {
			t.Fatalf("histogram h{k=v,k2=v2} = %+v, %v; want sum %d", h, ok, 7*k)
		}
	}
}
