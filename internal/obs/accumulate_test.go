package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// accSnap builds a representative snapshot: counters, gauges and
// histograms, with float sums that make fold order observable.
func accSnap(w int) Snapshot {
	r := NewRegistry()
	r.Counter("events_total").Add(uint64(10 * (w + 1)))
	r.Counter("shard_total", L("shard", string(rune('a'+w)))).Add(1)
	r.Gauge("depth").Set(int64(w + 1))
	h := r.Histogram("lat", []float64{1, 10})
	h.Observe(0.1 * float64(w+1))
	h.Observe(float64(w) + 0.3)
	return r.Snapshot()
}

func TestAccumulatorEqualsMerge(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5} {
		snaps := make([]Snapshot, n)
		for i := range snaps {
			snaps[i] = accSnap(i)
		}
		acc := NewAccumulator()
		for _, s := range snaps {
			acc.Add(s)
		}
		if got, want := acc.State(), Merge(snaps...); !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: Accumulator state diverges from Merge:\n got %+v\nwant %+v", n, got, want)
		}
	}
}

// TestMergeMonoid checks the laws the shard/checkpoint/resume splitting
// relies on: Snapshot{} is the identity, re-folding a merged aggregate
// changes nothing, and — because histogram sums accumulate exactly — the
// merged floats depend only on which snapshots went in, not how the fold
// was grouped. (Exact regrouping across an aggregate boundary goes
// through Accumulator.Absorb; see TestAbsorbReassociatesExactly.)
func TestMergeMonoid(t *testing.T) {
	a, b, c := accSnap(0), accSnap(1), accSnap(2)

	if got := Merge(); !reflect.DeepEqual(got, Snapshot{}) {
		t.Fatalf("Merge() = %+v, want zero Snapshot", got)
	}
	if got, want := Merge(Snapshot{}, a), Merge(a); !reflect.DeepEqual(got, want) {
		t.Fatalf("left identity violated:\n got %+v\nwant %+v", got, want)
	}
	if got, want := Merge(a, Snapshot{}), Merge(a); !reflect.DeepEqual(got, want) {
		t.Fatalf("right identity violated:\n got %+v\nwant %+v", got, want)
	}
	if got, want := Merge(Merge(a, b, c)), Merge(a, b, c); !reflect.DeepEqual(got, want) {
		t.Fatalf("re-folding a merged aggregate changed it:\n got %+v\nwant %+v", got, want)
	}
	// Exact sums make the one-shot fold grouping-independent: any argument
	// order reaches the same aggregate, float sums included.
	fwd, rev := Merge(a, b, c), Merge(c, b, a)
	if !reflect.DeepEqual(fwd, rev) {
		t.Fatalf("merge depends on argument order:\n fwd %+v\n rev %+v", fwd, rev)
	}
}

func TestAccumulatorMismatchedBoundsPanics(t *testing.T) {
	a := NewRegistry()
	a.Histogram("h", []float64{1}).Observe(0.5)
	b := NewRegistry()
	b.Histogram("h", []float64{2}).Observe(0.5)
	acc := NewAccumulator()
	acc.Add(a.Snapshot())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched bounds")
		}
	}()
	acc.Add(b.Snapshot())
}

func TestAccumulatorStateIsolated(t *testing.T) {
	acc := NewAccumulator()
	acc.Add(accSnap(0))
	before := acc.State()
	beforeEvents := before.Counter("events_total")
	beforeCount := len(before.Counters)
	acc.Add(accSnap(1))
	acc.Add(accSnap(2))
	if got := before.Counter("events_total"); got != beforeEvents {
		t.Fatalf("earlier State mutated by later Adds: %d != %d", got, beforeEvents)
	}
	if len(before.Counters) != beforeCount {
		t.Fatalf("earlier State grew: %d counters", len(before.Counters))
	}
}

// TestAccumulatorConcurrentReads drives the live-plane shape under -race:
// one writer folding snapshots while readers snapshot the state.
func TestAccumulatorConcurrentReads(t *testing.T) {
	acc := NewAccumulator()
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				s := acc.State()
				// A reader must always see an internally consistent
				// aggregate: whole snapshots only.
				if v := s.Counter("events_total"); v%10 != 0 {
					t.Errorf("torn read: events_total = %d", v)
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		acc.Add(accSnap(i % 8))
	}
	close(done)
	wg.Wait()
	serial := NewAccumulator()
	for i := 0; i < 200; i++ {
		serial.Add(accSnap(i % 8))
	}
	if !reflect.DeepEqual(acc.State(), serial.State()) {
		t.Fatal("concurrent reads changed the fold")
	}
}

// refMerger is the merge-join fold the by-id merger replaced, kept as the
// reference it must equal: each fold sorts a hand-assembled input into
// canonical order, then joins it with the accumulated state by
// compareMetric, building fresh histogram Counts on every combine.
type refMerger struct {
	out   Snapshot
	hsums []*FloatSum // exact sums, index-aligned with out.Histograms
}

func (m *refMerger) fold(s Snapshot, sums []FloatSum) {
	if !s.canonical() {
		s.Counters = slices.Clone(s.Counters)
		s.Gauges = slices.Clone(s.Gauges)
		s.Histograms = slices.Clone(s.Histograms)
		slices.SortFunc(s.Counters, compareCounters)
		slices.SortFunc(s.Gauges, compareGauges)
		slices.SortFunc(s.Histograms, compareHistograms)
	}
	m.out.Counters = refJoin(m.out.Counters, s.Counters, compareCounters, func(a, b CounterValue) CounterValue {
		a.Value += b.Value
		return a
	})
	m.out.Gauges = refJoin(m.out.Gauges, s.Gauges, compareGauges, func(a, b GaugeValue) GaugeValue {
		a.Value += b.Value
		if b.Max > a.Max {
			a.Max = b.Max
		}
		return a
	})
	var hs []HistogramValue
	var fs []*FloatSum
	take := func(h HistogramValue, f *FloatSum) {
		h.Sum = f.Value()
		hs = append(hs, h)
		fs = append(fs, f)
	}
	fresh := func(j int) *FloatSum {
		f := new(FloatSum)
		if sums != nil {
			*f = sums[j]
		} else {
			f.Add(s.Histograms[j].Sum)
		}
		return f
	}
	acc, b := m.out.Histograms, s.Histograms
	i, j := 0, 0
	for i < len(acc) && j < len(b) {
		switch c := compareHistograms(acc[i], b[j]); {
		case c < 0:
			take(acc[i], m.hsums[i])
			i++
		case c > 0:
			take(b[j], fresh(j))
			j++
		default:
			h := acc[i]
			if !boundsEqual(h.Bounds, b[j].Bounds) {
				panic("reference: mismatched bounds")
			}
			counts := slices.Clone(h.Counts)
			for k := range counts {
				counts[k] += b[j].Counts[k]
			}
			h.Counts = counts
			h.Count += b[j].Count
			f := m.hsums[i]
			if sums != nil {
				f.AddSum(&sums[j])
			} else {
				f.Add(b[j].Sum)
			}
			take(h, f)
			i++
			j++
		}
	}
	for ; i < len(acc); i++ {
		take(acc[i], m.hsums[i])
	}
	for ; j < len(b); j++ {
		take(b[j], fresh(j))
	}
	m.out.Histograms, m.hsums = hs, fs
}

func refJoin[T any](acc, b []T, cmp func(T, T) int, combine func(T, T) T) []T {
	var out []T
	i, j := 0, 0
	for i < len(acc) && j < len(b) {
		switch c := cmp(acc[i], b[j]); {
		case c < 0:
			out = append(out, acc[i])
			i++
		case c > 0:
			out = append(out, b[j])
			j++
		default:
			out = append(out, combine(acc[i], b[j]))
			i++
			j++
		}
	}
	out = append(out, acc[i:]...)
	return append(out, b[j:]...)
}

func (m *refMerger) sums() []FloatSum {
	out := make([]FloatSum, len(m.hsums))
	for i, f := range m.hsums {
		out[i] = *f
	}
	return out
}

// foldCase is a random sequence of fold inputs for the property tests.
// Every step is a snapshot; a step that came from a registry (nil
// included) also carries it, so the same input can go in through Add or
// AddRegistry.
type foldCase struct {
	steps []foldStep
}

type foldStep struct {
	snap  Snapshot
	reg   *Registry
	isReg bool
}

// The identity pool mixes overlapping series, and names and label values
// with the punctuation of the rendered form. Bounds are a function of the
// series, so shared series always agree on them.
var (
	poolNames  = []string{"q_total", "a", "a{b=c}", "x"}
	poolLabels = [][]Label{
		nil,
		{L("b", "c")},
		{L("k", "v}{k2=v2")},
		{L("k", "v"), L("k2", "v2")},
		{L("host", "C1"), L("cause", "reset")},
	}
	poolBounds = [][]float64{{1, 10}, {0.5}, DurationBuckets}
)

type poolSeries struct {
	name   string
	labels []Label
	bounds []float64
}

// pool returns the identities in a random order. An empty label list is
// spelled nil or {} at random: both are the same series.
func pool(r *rand.Rand) []poolSeries {
	var out []poolSeries
	for i, n := range poolNames {
		for j, l := range poolLabels {
			if l == nil && r.Intn(2) == 0 {
				l = []Label{}
			}
			out = append(out, poolSeries{n, l, poolBounds[(i+j)%len(poolBounds)]})
		}
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func poolFloat(r *rand.Rand) float64 {
	switch r.Intn(6) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return -r.Float64() * 1e6
	case 3:
		return r.NormFloat64() * 1e-3
	}
	return r.Float64() * 100
}

// Generate implements quick.Generator.
func (foldCase) Generate(r *rand.Rand, size int) reflect.Value {
	var c foldCase
	for n := r.Intn(6); n > 0; n-- {
		switch r.Intn(5) {
		case 0:
			c.steps = append(c.steps, foldStep{isReg: true})
		case 1, 2:
			c.steps = append(c.steps, genRegistryStep(r))
		default:
			c.steps = append(c.steps, foldStep{snap: genSnapshot(r)})
		}
	}
	return reflect.ValueOf(c)
}

// genSnapshot hand-assembles a snapshot: any subset of the pool per kind,
// in random (often non-canonical) order, with negative gauge maxima.
func genSnapshot(r *rand.Rand) Snapshot {
	var s Snapshot
	for _, p := range pool(r) {
		switch r.Intn(4) {
		case 0:
			s.Counters = append(s.Counters, CounterValue{Name: p.name, Labels: p.labels, Value: uint64(r.Intn(3)) * uint64(r.Int63n(1<<40))})
		case 1:
			v := r.Int63n(200) - 100
			s.Gauges = append(s.Gauges, GaugeValue{Name: p.name, Labels: p.labels, Value: v, Max: v - r.Int63n(50)})
		case 2:
			counts := make([]uint64, len(p.bounds)+1)
			var n uint64
			for k := range counts {
				counts[k] = uint64(r.Intn(3))
				n += counts[k]
			}
			s.Histograms = append(s.Histograms, HistogramValue{Name: p.name, Labels: p.labels, Bounds: p.bounds, Counts: counts, Sum: poolFloat(r), Count: n})
		}
	}
	return s
}

// genRegistryStep registers a random subset of the pool in a random
// order, records into it, and snapshots it.
func genRegistryStep(r *rand.Rand) foldStep {
	reg := NewRegistry()
	for _, p := range pool(r) {
		switch r.Intn(4) {
		case 0:
			reg.Counter(p.name, p.labels...).Add(uint64(r.Intn(1000)))
		case 1:
			g := reg.Gauge(p.name, p.labels...)
			for n := r.Intn(3); n > 0; n-- {
				g.Set(r.Int63n(200) - 100)
			}
		case 2:
			h := reg.Histogram(p.name, p.bounds, p.labels...)
			for n := r.Intn(4); n > 0; n-- {
				h.Observe(poolFloat(r))
			}
		}
	}
	return foldStep{snap: reg.Snapshot(), reg: reg, isReg: true}
}

// sameBytes reports whether a and b are deeply equal and encode to the
// same JSON.
func sameBytes(t *testing.T, what string, got, want any) bool {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Logf("%s differs from the reference:\n got %+v\nwant %+v", what, got, want)
		return false
	}
	g, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, w) {
		t.Logf("%s encodes differently from the reference:\n got %s\nwant %s", what, g, w)
		return false
	}
	return true
}

// TestFoldMatchesMergeJoinReference checks the by-id fold against the
// merge-join it replaced, over random snapshots and registries: Merge,
// mixed Add/AddRegistry sequences, State, HistogramSums and an Absorb
// round trip through a split fold must all equal the reference, field
// for field and byte for byte.
func TestFoldMatchesMergeJoinReference(t *testing.T) {
	prop := func(c foldCase, pick uint64, split uint8) bool {
		var ref refMerger
		snaps := make([]Snapshot, len(c.steps))
		for i, st := range c.steps {
			snaps[i] = st.snap
			ref.fold(st.snap, nil)
		}
		if !sameBytes(t, "Merge", Merge(snaps...), ref.out) {
			return false
		}
		// Each registry step goes in through AddRegistry when its bit
		// in pick is set, else as its snapshot.
		fold := func(acc *Accumulator, steps []foldStep, bit int) {
			for i, st := range steps {
				if st.isReg && pick>>((bit+i)%64)&1 == 1 {
					acc.AddRegistry(st.reg)
				} else {
					acc.Add(st.snap)
				}
			}
		}
		acc := NewAccumulator()
		fold(acc, c.steps, 0)
		if !sameBytes(t, "State", acc.State(), ref.out) ||
			!sameBytes(t, "HistogramSums", acc.HistogramSums(), ref.sums()) {
			return false
		}
		// Split the same fold in two and absorb both halves.
		k := int(split) % (len(c.steps) + 1)
		a, b := NewAccumulator(), NewAccumulator()
		fold(a, c.steps[:k], 0)
		fold(b, c.steps[k:], k)
		joined := NewAccumulator()
		for _, part := range []*Accumulator{a, b} {
			if err := joined.Absorb(part.State(), part.HistogramSums()); err != nil {
				t.Fatal(err)
			}
		}
		return sameBytes(t, "absorbed State", joined.State(), ref.out) &&
			sameBytes(t, "absorbed HistogramSums", joined.HistogramSums(), ref.sums())
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestAccumulatorStateFreshCounts: the accumulator adds histogram counts
// in place, so State must hand out copies.
func TestAccumulatorStateFreshCounts(t *testing.T) {
	acc := NewAccumulator()
	acc.Add(accSnap(0))
	s := acc.State()
	s.Histograms[0].Counts[0] += 100
	acc.Add(accSnap(1))
	if got, want := acc.State().Histograms[0].Counts, Merge(accSnap(0), accSnap(1)).Histograms[0].Counts; !reflect.DeepEqual(got, want) {
		t.Fatalf("State aliases the accumulator's counts: %v, want %v", got, want)
	}
}

var concurrentRun atomic.Int64

// TestSeriesTableConcurrent registers overlapping and never-seen series
// from eight goroutines at once, each into its own registries, folded
// into its own accumulator. The shared series table is the only state
// they share; the absorbed result must equal a serial run's.
func TestSeriesTableConcurrent(t *testing.T) {
	run := concurrentRun.Add(1) // fresh series on every -count repetition
	build := func(w, round int) *Registry {
		r := NewRegistry()
		r.Counter("conc_shared_total").Add(uint64(w + 1))
		r.Counter("conc_shared_total", L("w", strconv.Itoa(w%3))).Inc()
		r.Counter("conc_fresh_total", L("run", strconv.FormatInt(run, 10)), L("w", strconv.Itoa(w)), L("round", strconv.Itoa(round))).Add(uint64(round))
		r.Gauge("conc_depth", L("w", strconv.Itoa(w%2))).Set(int64(w * round))
		r.Histogram("conc_lat", []float64{1, 10}, L("w", strconv.Itoa(w%4))).Observe(float64(round) / 3)
		return r
	}
	type part struct {
		s    Snapshot
		sums []FloatSum
	}
	fold := func(w int) part {
		acc := NewAccumulator()
		for round := 0; round < 25; round++ {
			if round%2 == 0 {
				acc.AddRegistry(build(w, round))
			} else {
				acc.Add(build(w, round).Snapshot())
			}
		}
		return part{acc.State(), acc.HistogramSums()}
	}
	const workers = 8
	parts := make([]part, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			parts[w] = fold(w)
		}(w)
	}
	wg.Wait()
	got, want := NewAccumulator(), NewAccumulator()
	for w := 0; w < workers; w++ {
		serial := fold(w)
		if err := want.Absorb(serial.s, serial.sums); err != nil {
			t.Fatal(err)
		}
		if err := got.Absorb(parts[w].s, parts[w].sums); err != nil {
			t.Fatal(err)
		}
	}
	if !sameBytes(t, "concurrent fold", got.State(), want.State()) {
		t.Fatal("folding concurrently changed the result")
	}
	if n := len(got.State().Counters); n != 1+3+workers*25 {
		t.Fatalf("%d counter series, want %d", n, 1+3+workers*25)
	}
}
