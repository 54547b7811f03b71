package obs

import (
	"fmt"
	"slices"
	"sync"
)

// merger is the incremental form of Merge: fold() applies exactly one
// left-fold step, so folding snapshots s0..sn one at a time produces the
// same value — field for field, byte for byte once encoded — as
// Merge(s0, ..., sn). Merge and Accumulator both run on this type, which
// is what makes "stream the snapshots in as they land" and "retain them
// all and merge at the end" provably interchangeable. foldRegistry is the
// same step taken straight from a registry's handles, without building
// its snapshot.
//
// State is kept by series id, one slots table per kind, so a fold step
// adds each entry into its slot in place; only a series new to the
// aggregate inserts into the canonical order. Histogram counts are owned
// by the merger and never alias an input.
//
// Histogram sums are accumulated exactly: each histogram slot holds a
// FloatSum, and the emitted float64 Sum is that exact sum rounded once.
// The exact state is exportable (Accumulator.HistogramSums) and
// re-importable (fold with sums / Accumulator.Absorb), which is what lets
// a fold be split across checkpoints and processes and still land on
// identical bytes.
type merger struct {
	counters slots[CounterValue]
	gauges   slots[GaugeValue]
	hists    slots[histSlot]
	keybuf   []byte
}

// slots is one metric kind's share of a merger. vals holds each present
// series once, in first-appearance order; at maps a series id to its
// position in vals plus one (0: absent); order lists the positions in
// canonical order.
type slots[T any] struct {
	at    []int32
	vals  []T
	order []int32
}

// histSlot is a histogram's merged state. Its Sum field is stale: the
// emitted Sum is sum.Value().
type histSlot struct {
	HistogramValue
	sum FloatSum
}

// find returns the position of series id in vals, or -1.
func (s *slots[T]) find(id int32) int {
	if int(id) < len(s.at) {
		return int(s.at[id]) - 1
	}
	return -1
}

// insert adds v as series id's first value and files it into the
// canonical order by binary search on the identity ident reads.
func (s *slots[T]) insert(id int32, v T, ident func(*T) (string, []Label)) int {
	pos := int32(len(s.vals))
	s.vals = append(s.vals, v)
	if int(id) >= len(s.at) {
		n := max(int(id)+1, seriesCount())
		s.at = append(s.at, make([]int32, n-len(s.at))...)
	}
	s.at[id] = pos + 1
	name, labels := ident(&s.vals[pos])
	i, _ := slices.BinarySearchFunc(s.order, pos, func(p, _ int32) int {
		n, l := ident(&s.vals[p])
		return compareMetric(n, l, name, labels)
	})
	s.order = slices.Insert(s.order, i, pos)
	return int(pos)
}

func counterIdent(c *CounterValue) (string, []Label) { return c.Name, c.Labels }
func gaugeIdent(g *GaugeValue) (string, []Label)     { return g.Name, g.Labels }
func histIdent(h *histSlot) (string, []Label)        { return h.Name, h.Labels }

// id interns an input entry's identity.
func (m *merger) id(name string, labels []Label) int32 {
	m.keybuf = appendSeriesKey(m.keybuf[:0], name, labels)
	id, _ := internSeries(m.keybuf, name, labels)
	return id
}

func (m *merger) addCounter(id int32, v CounterValue) {
	if p := m.counters.find(id); p >= 0 {
		m.counters.vals[p].Value += v.Value
		return
	}
	m.counters.insert(id, v, counterIdent)
}

// addGauge sums values and keeps the largest high-water mark; a new
// series starts from its first value's, not from 0.
func (m *merger) addGauge(id int32, v GaugeValue) {
	if p := m.gauges.find(id); p >= 0 {
		g := &m.gauges.vals[p]
		g.Value += v.Value
		g.Max = max(g.Max, v.Max)
		return
	}
	m.gauges.insert(id, v, gaugeIdent)
}

// addHistogram folds v into series id. exact, when non-nil, is the exact
// sum behind v.Sum (an aggregate being absorbed); otherwise v.Sum itself
// is the value folded in.
func (m *merger) addHistogram(id int32, v HistogramValue, exact *FloatSum) {
	p := m.hists.find(id)
	if p < 0 {
		v.Counts = slices.Clone(v.Counts)
		p = m.hists.insert(id, histSlot{HistogramValue: v}, histIdent)
		h := &m.hists.vals[p]
		if exact != nil {
			h.sum = *exact
		} else {
			h.sum.Add(v.Sum)
		}
		return
	}
	h := &m.hists.vals[p]
	if !boundsEqual(h.Bounds, v.Bounds) {
		panic(fmt.Sprintf("obs: merge of histogram %s with mismatched bounds", describe(h.Name, h.Labels)))
	}
	for k := range h.Counts {
		h.Counts[k] += v.Counts[k]
	}
	if exact != nil {
		h.sum.AddSum(exact)
	} else {
		h.sum.Add(v.Sum)
	}
	h.Count += v.Count
}

// fold merges s into the accumulated state, in whatever order s lists
// its series. sums, when non-nil, carries the exact histogram sums behind
// s (index-aligned with s.Histograms): the fold then reproduces, limb for
// limb, the state it would have reached by folding whatever snapshot
// sequence produced s — the primitive behind Accumulator.Absorb.
func (m *merger) fold(s Snapshot, sums []FloatSum) {
	for _, c := range s.Counters {
		m.addCounter(m.id(c.Name, c.Labels), c)
	}
	for _, g := range s.Gauges {
		m.addGauge(m.id(g.Name, g.Labels), g)
	}
	for j, h := range s.Histograms {
		var exact *FloatSum
		if sums != nil {
			exact = &sums[j]
		}
		m.addHistogram(m.id(h.Name, h.Labels), h, exact)
	}
}

// foldRegistry is fold(r.Snapshot()) read straight from r's handles.
func (m *merger) foldRegistry(r *Registry) {
	if r == nil {
		return
	}
	for _, c := range r.counters {
		m.addCounter(c.id, CounterValue{Name: c.name, Labels: c.labels, Value: c.v})
	}
	for _, g := range r.gauges {
		m.addGauge(g.id, GaugeValue{Name: g.name, Labels: g.labels, Value: g.v, Max: g.max})
	}
	for _, h := range r.hists {
		m.addHistogram(h.id, HistogramValue{
			Name: h.name, Labels: h.labels,
			Bounds: h.bounds, Counts: h.counts, Sum: h.sum, Count: h.n,
		}, nil)
	}
}

// snapshot emits the aggregate in canonical order. It shares nothing
// mutable with the merger: histogram counts are copied.
func (m *merger) snapshot() Snapshot {
	var s Snapshot
	if len(m.counters.order) > 0 {
		s.Counters = make([]CounterValue, len(m.counters.order))
		for i, p := range m.counters.order {
			s.Counters[i] = m.counters.vals[p]
		}
	}
	if len(m.gauges.order) > 0 {
		s.Gauges = make([]GaugeValue, len(m.gauges.order))
		for i, p := range m.gauges.order {
			s.Gauges[i] = m.gauges.vals[p]
		}
	}
	if len(m.hists.order) > 0 {
		s.Histograms = make([]HistogramValue, len(m.hists.order))
		for i, p := range m.hists.order {
			h := &m.hists.vals[p]
			v := h.HistogramValue
			v.Counts = slices.Clone(h.Counts)
			v.Sum = h.sum.Value()
			s.Histograms[i] = v
		}
	}
	return s
}

// Accumulator folds snapshots into a running aggregate without retaining
// them: Add(s0); ...; Add(sn); State() equals Merge(s0, ..., sn), and each
// snapshot is released to the garbage collector as soon as its fold
// completes. It is the streaming replacement for the retain-all-then-Merge
// pattern, sized for campaigns whose snapshot count is unbounded.
//
// Unlike the rest of the package, an Accumulator is mutex-guarded: it sits
// on the wall-clock side of the sim/wall boundary, where campaign workers
// fold results in while an observability plane (internal/obs/serve) reads
// the current state concurrently. State returns an isolated value copy, so
// a reader's snapshot never changes under it as more folds land.
//
// Like Merge, Add panics when a histogram re-appears with different bucket
// bounds — bounds are part of a metric's identity.
type Accumulator struct {
	mu sync.Mutex
	m  merger
}

// NewAccumulator returns an empty accumulator: State() is a zero Snapshot
// until the first Add.
func NewAccumulator() *Accumulator { return &Accumulator{} }

// Add folds one snapshot into the aggregate. Histogram sums accumulate
// exactly, so the aggregate does not depend on Add order.
func (a *Accumulator) Add(s Snapshot) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.m.fold(s, nil)
}

// AddRegistry folds r's current state into the aggregate, exactly as
// Add(r.Snapshot()) would, without building the snapshot: each handle adds into its series' slot by id. Like Snapshot,
// it reads r, so only r's owning goroutine may call it.
func (a *Accumulator) AddRegistry(r *Registry) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.m.foldRegistry(r)
}

// HistogramSums returns the exact histogram sums behind the aggregate,
// index-aligned with State().Histograms. Each State() entry's Sum is the
// corresponding exact sum rounded once. Exporting State and HistogramSums
// together captures the accumulator's complete fold state; a fresh
// accumulator Absorbing that pair continues the fold as if it had
// performed every original Add itself.
func (a *Accumulator) HistogramSums() []FloatSum {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]FloatSum, len(a.m.hists.order))
	for i, p := range a.m.hists.order {
		out[i] = a.m.hists.vals[p].sum
	}
	return out
}

// Absorb folds a previously exported aggregate — a State() snapshot with
// its HistogramSums() — into this accumulator, exactly.
// Add(s) alone would restart each histogram's exact sum from the rounded
// float64 in the snapshot; Absorb carries the exact state across, so the
// result is bit-identical to having performed the source accumulator's
// Add calls in place. Any grouping of the same snapshots into absorbed
// aggregates converges on the same state, which is what makes checkpoint
// resume and per-process shard-range partials byte-identical to an
// uninterrupted single-process fold.
//
// sums must be index-aligned with s.Histograms and s must be in canonical
// order (State output always is).
func (a *Accumulator) Absorb(s Snapshot, sums []FloatSum) error {
	if len(sums) != len(s.Histograms) {
		return fmt.Errorf("obs: Absorb of %d exact sums for %d histograms", len(sums), len(s.Histograms))
	}
	if !s.canonical() {
		return fmt.Errorf("obs: Absorb needs a canonically ordered snapshot")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.m.fold(s, sums)
	return nil
}

// State returns the current aggregate as an isolated snapshot value: equal
// to Merge of everything Added so far, and unaffected by later Adds (its
// histogram counts are fresh copies). Safe to call from any goroutine at
// any time — this is the read side of the live /metrics endpoint.
func (a *Accumulator) State() Snapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.m.snapshot()
}
