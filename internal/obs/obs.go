// Package obs is the simulator's observability layer: a zero-dependency
// metrics registry (counters, gauges with high-water marks, histograms with
// fixed bucket boundaries) plus a lightweight event-trace ring buffer.
//
// The package is designed for the single-threaded simtime world: metric
// handles are plain structs and mutation is a direct field update — no
// locks, no atomics on the hot path. A Registry therefore belongs to
// exactly one simulation (one goroutine). The synchronization boundary is
// Snapshot: the owning goroutine takes a value-copy Snapshot after its run,
// and snapshots from many independent runs (the parallel table runner's
// workers) are merged with Merge, which is safe to call from any goroutine
// because snapshots are plain values.
//
// Every handle method is nil-receiver safe, so instrumented components pay
// a single predictable branch when no registry is attached.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Label is one key=value dimension of a metric.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

func labelKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte('{')
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
		b.WriteByte('}')
	}
	return b.String()
}

// appendKey is labelKey into a caller-owned scratch buffer. The registry's
// lookup path builds keys this way and probes its maps with string(buf),
// which the compiler compiles without materialising a string — the key
// string is only allocated when a genuinely new metric registers.
func appendKey(b []byte, name string, labels []Label) []byte {
	b = append(b, name...)
	for _, l := range labels {
		b = append(b, '{')
		b = append(b, l.Key...)
		b = append(b, '=')
		b = append(b, l.Value...)
		b = append(b, '}')
	}
	return b
}

// compareMetric orders metric identities by name, then pairwise by label
// key and value, with a shorter label list sorting first. This tuple order
// is the one canonical metric order: registration, Snapshot and Merge all
// use it, so merge-joins over snapshots never need to build key strings.
func compareMetric(nameA string, labelsA []Label, nameB string, labelsB []Label) int {
	if c := strings.Compare(nameA, nameB); c != 0 {
		return c
	}
	n := len(labelsA)
	if len(labelsB) < n {
		n = len(labelsB)
	}
	for i := 0; i < n; i++ {
		if c := strings.Compare(labelsA[i].Key, labelsB[i].Key); c != 0 {
			return c
		}
		if c := strings.Compare(labelsA[i].Value, labelsB[i].Value); c != 0 {
			return c
		}
	}
	switch {
	case len(labelsA) < len(labelsB):
		return -1
	case len(labelsA) > len(labelsB):
		return 1
	}
	return 0
}

// Counter is a monotonically increasing count.
type Counter struct {
	name   string
	labels []Label
	v      uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v++
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v += n
}

// Value returns the current count (0 on a nil handle).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is an instantaneous value that also tracks its high-water mark.
type Gauge struct {
	name   string
	labels []Label
	v      int64
	max    int64
}

// Set records the current value and updates the high-water mark.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v = v
	if v > g.max {
		g.max = v
	}
}

// Add shifts the current value by d.
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.Set(g.v + d)
}

// Value returns the current value (0 on a nil handle).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Max returns the high-water mark (0 on a nil handle).
func (g *Gauge) Max() int64 {
	if g == nil {
		return 0
	}
	return g.max
}

// Histogram is a fixed-boundary histogram. Bounds are upper bounds in
// ascending order; an observation lands in the first bucket whose bound is
// >= the value, or in the implicit +Inf overflow bucket.
type Histogram struct {
	name   string
	labels []Label
	bounds []float64
	counts []uint64 // len(bounds)+1; last is +Inf
	sum    float64
	n      uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.n++
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	if h == nil {
		return
	}
	h.Observe(d.Seconds())
}

// Count returns the number of observations (0 on a nil handle).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.n
}

// Sum returns the sum of observations (0 on a nil handle).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// DurationBuckets is a general-purpose set of histogram bounds, in seconds,
// spanning sub-millisecond latencies up to multi-hour holds.
var DurationBuckets = []float64{
	0.001, 0.01, 0.1, 0.5, 1, 2, 5, 10, 30, 60, 120, 300, 900, 3600, 7200,
}

// CountBuckets is a general-purpose set of bounds for event/step counts.
var CountBuckets = []float64{
	1, 10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000,
}

// Registry owns a simulation's metrics and its trace buffer. The zero
// value is not usable; create one with NewRegistry. A nil *Registry is a
// valid "off" registry: every constructor returns a nil handle and every
// handle method no-ops.
type Registry struct {
	// counters/gauges/hists are maintained in labelKey order (binary
	// insertion on first registration), so Snapshot emits deterministically
	// without sorting.
	counters []*Counter
	gauges   []*Gauge
	hists    []*Histogram
	byKey    map[string]any
	// keybuf is the lookup-key scratch; handle constructors probe byKey
	// with string(keybuf), allocating a key string only on a true first
	// registration.
	keybuf []byte
	trace  *Trace
}

// NewRegistry creates an empty registry with a default-sized trace buffer.
func NewRegistry() *Registry {
	return &Registry{
		byKey: make(map[string]any),
		trace: NewTrace(DefaultTraceCap),
	}
}

// insertSorted places h at its tuple-ordered position in s.
func insertSorted[T any](s []*T, less func(a, b *T) bool, h *T) []*T {
	i := sort.Search(len(s), func(i int) bool { return less(h, s[i]) })
	s = append(s, nil)
	copy(s[i+1:], s[i:])
	s[i] = h
	return s
}

func counterLess(a, b *Counter) bool {
	return compareMetric(a.name, a.labels, b.name, b.labels) < 0
}
func gaugeLess(a, b *Gauge) bool {
	return compareMetric(a.name, a.labels, b.name, b.labels) < 0
}
func histogramLess(a, b *Histogram) bool {
	return compareMetric(a.name, a.labels, b.name, b.labels) < 0
}

// Counter returns the counter with the given name and labels, creating it
// on first use. Repeated calls with equal name+labels return the same
// handle.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	r.keybuf = appendKey(r.keybuf[:0], name, labels)
	if m, ok := r.byKey[string(r.keybuf)]; ok {
		c, ok := m.(*Counter)
		if !ok {
			panic(fmt.Sprintf("obs: %s already registered as a different metric type", string(r.keybuf)))
		}
		return c
	}
	c := &Counter{name: name, labels: labels}
	r.byKey[string(r.keybuf)] = c
	r.counters = insertSorted(r.counters, counterLess, c)
	return c
}

// Gauge returns the gauge with the given name and labels, creating it on
// first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	r.keybuf = appendKey(r.keybuf[:0], name, labels)
	if m, ok := r.byKey[string(r.keybuf)]; ok {
		g, ok := m.(*Gauge)
		if !ok {
			panic(fmt.Sprintf("obs: %s already registered as a different metric type", string(r.keybuf)))
		}
		return g
	}
	g := &Gauge{name: name, labels: labels}
	r.byKey[string(r.keybuf)] = g
	r.gauges = insertSorted(r.gauges, gaugeLess, g)
	return g
}

// Histogram returns the histogram with the given name, bounds and labels,
// creating it on first use. Bounds must be ascending; they are fixed at
// creation and later calls reuse the original bounds.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	r.keybuf = appendKey(r.keybuf[:0], name, labels)
	if m, ok := r.byKey[string(r.keybuf)]; ok {
		h, ok := m.(*Histogram)
		if !ok {
			panic(fmt.Sprintf("obs: %s already registered as a different metric type", string(r.keybuf)))
		}
		return h
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %s bounds not ascending", name))
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	h := &Histogram{name: name, labels: labels, bounds: b, counts: make([]uint64, len(b)+1)}
	r.byKey[string(r.keybuf)] = h
	r.hists = insertSorted(r.hists, histogramLess, h)
	return h
}

func boundsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Trace returns the registry's trace buffer (nil on a nil registry, which
// Trace methods tolerate).
func (r *Registry) Trace() *Trace {
	if r == nil {
		return nil
	}
	return r.trace
}

// SetTraceCapacity replaces the trace buffer with one of the given
// capacity, discarding buffered events. A capacity of 0 disables tracing.
// When the capacity is unchanged the existing ring is cleared in place, so
// handles that captured it stay valid and nothing reallocates.
func (r *Registry) SetTraceCapacity(n int) {
	if r == nil {
		return
	}
	if n < 0 {
		n = 0
	}
	if r.trace != nil && r.trace.capn == n {
		r.trace.Reset()
		return
	}
	r.trace = NewTrace(n)
}

// Snapshot is a value copy of a registry's state at one instant. It is a
// plain value: safe to pass between goroutines, compare with
// reflect.DeepEqual, and encode as JSON.
type Snapshot struct {
	Counters   []CounterValue   `json:"counters"`
	Gauges     []GaugeValue     `json:"gauges"`
	Histograms []HistogramValue `json:"histograms"`
	Trace      []TraceEvent     `json:"trace,omitempty"`
	// TraceEvicted counts stored trace events overwritten by ring-buffer
	// wraparound; TraceDiscarded counts events a disabled trace refused.
	// TraceDropped is their sum, kept for compatibility.
	TraceEvicted   uint64 `json:"traceEvicted,omitempty"`
	TraceDiscarded uint64 `json:"traceDiscarded,omitempty"`
	TraceDropped   uint64 `json:"traceDropped,omitempty"`
}

// CounterValue is one counter in a snapshot.
type CounterValue struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Value  uint64  `json:"value"`
}

// GaugeValue is one gauge in a snapshot.
type GaugeValue struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Value  int64   `json:"value"`
	Max    int64   `json:"max"`
}

// HistogramValue is one histogram in a snapshot.
type HistogramValue struct {
	Name   string    `json:"name"`
	Labels []Label   `json:"labels,omitempty"`
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Sum    float64   `json:"sum"`
	Count  uint64    `json:"count"`
}

// Snapshot copies the registry's current state. Metrics are emitted in a
// deterministic order (sorted by name, then labels) so equal runs produce
// byte-identical snapshots. Label slices and histogram bounds are shared
// with the registry's handles — both are immutable after registration —
// while every mutable field (values, histogram counts, trace events) is
// copied, so the snapshot stays a stable value as the simulation runs on.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	s.Counters = make([]CounterValue, 0, len(r.counters))
	for _, c := range r.counters {
		s.Counters = append(s.Counters, CounterValue{Name: c.name, Labels: c.labels, Value: c.v})
	}
	s.Gauges = make([]GaugeValue, 0, len(r.gauges))
	for _, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeValue{Name: g.name, Labels: g.labels, Value: g.v, Max: g.max})
	}
	s.Histograms = make([]HistogramValue, 0, len(r.hists))
	for _, h := range r.hists {
		counts := make([]uint64, len(h.counts))
		copy(counts, h.counts)
		s.Histograms = append(s.Histograms, HistogramValue{
			Name: h.name, Labels: h.labels,
			Bounds: h.bounds, Counts: counts, Sum: h.sum, Count: h.n,
		})
	}
	if r.trace != nil {
		s.Trace = r.trace.Events()
		s.TraceEvicted = r.trace.Evicted()
		s.TraceDiscarded = r.trace.Discarded()
		s.TraceDropped = r.trace.Dropped()
	}
	// The registry's handle slices are maintained in key order, so the
	// snapshot is already sorted.
	return s
}

func (s *Snapshot) sort() {
	sort.Slice(s.Counters, func(i, j int) bool {
		return compareMetric(s.Counters[i].Name, s.Counters[i].Labels, s.Counters[j].Name, s.Counters[j].Labels) < 0
	})
	sort.Slice(s.Gauges, func(i, j int) bool {
		return compareMetric(s.Gauges[i].Name, s.Gauges[i].Labels, s.Gauges[j].Name, s.Gauges[j].Labels) < 0
	})
	sort.Slice(s.Histograms, func(i, j int) bool {
		return compareMetric(s.Histograms[i].Name, s.Histograms[i].Labels, s.Histograms[j].Name, s.Histograms[j].Labels) < 0
	})
}

func countersSorted(v []CounterValue) bool {
	for i := 1; i < len(v); i++ {
		if compareMetric(v[i-1].Name, v[i-1].Labels, v[i].Name, v[i].Labels) > 0 {
			return false
		}
	}
	return true
}

func gaugesSorted(v []GaugeValue) bool {
	for i := 1; i < len(v); i++ {
		if compareMetric(v[i-1].Name, v[i-1].Labels, v[i].Name, v[i].Labels) > 0 {
			return false
		}
	}
	return true
}

func histogramsSorted(v []HistogramValue) bool {
	for i := 1; i < len(v); i++ {
		if compareMetric(v[i-1].Name, v[i-1].Labels, v[i].Name, v[i].Labels) > 0 {
			return false
		}
	}
	return true
}

// Counter returns the value of the named counter in the snapshot, or 0.
func (s Snapshot) Counter(name string, labels ...Label) uint64 {
	k := labelKey(name, labels)
	for _, c := range s.Counters {
		if labelKey(c.Name, c.Labels) == k {
			return c.Value
		}
	}
	return 0
}

// Gauge returns the named gauge in the snapshot, or a zero value.
func (s Snapshot) Gauge(name string, labels ...Label) GaugeValue {
	k := labelKey(name, labels)
	for _, g := range s.Gauges {
		if labelKey(g.Name, g.Labels) == k {
			return g
		}
	}
	return GaugeValue{Name: name, Labels: labels}
}

// Histogram returns the named histogram in the snapshot and whether it
// exists.
func (s Snapshot) Histogram(name string, labels ...Label) (HistogramValue, bool) {
	k := labelKey(name, labels)
	for _, h := range s.Histograms {
		if labelKey(h.Name, h.Labels) == k {
			return h, true
		}
	}
	return HistogramValue{}, false
}

// Families returns the sorted set of metric family names (counter, gauge
// and histogram names without labels) present in the snapshot.
func (s Snapshot) Families() []string {
	seen := make(map[string]bool)
	for _, c := range s.Counters {
		seen[c.Name] = true
	}
	for _, g := range s.Gauges {
		seen[g.Name] = true
	}
	for _, h := range s.Histograms {
		seen[h.Name] = true
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Merge combines snapshots from independent runs into one: counters and
// histogram buckets sum, gauge values sum while high-water marks take the
// per-run maximum (a merged queue-depth HWM answers "the deepest any one
// run got"). Histograms with mismatched bounds panic — bounds are part of
// a metric's identity. Traces are concatenated in argument order. Merge
// only touches plain values, so it is safe wherever the snapshots
// themselves were safely produced.
//
// Registry snapshots are already in canonical tuple order, so the merge is
// a sorted merge-join that never builds key strings; a hand-assembled
// unsorted snapshot is detected and sorted into a copy first. The result
// shares label slices (and pass-through histogram bounds/counts) with its
// inputs — all immutable by the snapshot contract.
//
// Histogram sums are accumulated exactly (see FloatSum): the merged Sum
// is the real-number sum of the input Sums rounded to float64 once, never
// a chain of per-step roundings. The result therefore depends only on
// WHICH snapshots were merged, not on how a fixed-order fold was grouped
// — but a merged Snapshot carries only the rounded Sum, so re-merging an
// already-merged snapshot as a plain input restarts its exact sum from
// that rounded value. Splitting one logical fold across aggregates and
// recombining exactly goes through Accumulator.Absorb, which transfers
// the exact state (Accumulator.HistogramSums) across the boundary. Merge
// panics if a histogram Sum is NaN or ±Inf — an exact sum over those is
// meaningless.
//
// Merge makes snapshots a monoid: Snapshot{} is the identity
// (Merge() == Snapshot{}, and folding the empty snapshot in changes
// nothing), merging is deterministic in its inputs, re-folding a merged
// aggregate changes nothing, and — through Absorb — the fold
// re-associates exactly under any grouping, floating-point sums included.
// Trace order still follows argument order, so deterministic callers fold
// in a fixed order. The monoid laws are property-tested in
// accumulate_test.go; they are what lets aggregation split arbitrarily
// across shards, checkpoints, resumes, and worker processes.
//
// Merge is a left fold over the merger type; Accumulator (accumulate.go)
// runs the identical fold one snapshot at a time, which is what guarantees
// streamed and retained aggregation byte-identical results.
func Merge(snaps ...Snapshot) Snapshot {
	var m merger
	for _, s := range snaps {
		m.fold(s)
	}
	return m.out
}

// mergeCounters joins the accumulator acc with the sorted input b into dst.
func mergeCounters(dst, acc, b []CounterValue) []CounterValue {
	i, j := 0, 0
	for i < len(acc) && j < len(b) {
		switch c := compareMetric(acc[i].Name, acc[i].Labels, b[j].Name, b[j].Labels); {
		case c < 0:
			dst = append(dst, acc[i])
			i++
		case c > 0:
			dst = append(dst, b[j])
			j++
		default:
			m := acc[i]
			m.Value += b[j].Value
			dst = append(dst, m)
			i++
			j++
		}
	}
	dst = append(dst, acc[i:]...)
	dst = append(dst, b[j:]...)
	return dst
}

func mergeGauges(dst, acc, b []GaugeValue) []GaugeValue {
	i, j := 0, 0
	for i < len(acc) && j < len(b) {
		switch c := compareMetric(acc[i].Name, acc[i].Labels, b[j].Name, b[j].Labels); {
		case c < 0:
			dst = append(dst, acc[i])
			i++
		case c > 0:
			dst = append(dst, b[j])
			j++
		default:
			m := acc[i]
			m.Value += b[j].Value
			if b[j].Max > m.Max {
				m.Max = b[j].Max
			}
			dst = append(dst, m)
			i++
			j++
		}
	}
	dst = append(dst, acc[i:]...)
	dst = append(dst, b[j:]...)
	return dst
}

// mergeHistograms joins acc with b. A combine allocates fresh Counts — an
// accumulator entry may still alias an input snapshot's slice, which must
// never be mutated.
//
// Sums are kept exactly: dsums/asums carry one FloatSum per accumulator
// entry (index-aligned), and every entry's Sum field is that exact sum
// rounded once — never a chain of per-fold float roundings. bsums, when
// non-nil, carries the exact sums behind b's entries (an aggregate being
// absorbed); when nil, b is an ordinary snapshot and b's rounded Sum is
// the value folded in. Keeping the exact state is what makes absorbing
// independently-folded aggregates reproduce a serial fold bit-for-bit.
func mergeHistograms(dst []HistogramValue, dsums []*FloatSum, acc []HistogramValue, asums []*FloatSum, b []HistogramValue, bsums []FloatSum) ([]HistogramValue, []*FloatSum) {
	appendB := func(h HistogramValue, j int) {
		f := new(FloatSum)
		if bsums != nil {
			*f = bsums[j]
		} else {
			f.Add(h.Sum)
		}
		h.Sum = f.Value()
		dst = append(dst, h)
		dsums = append(dsums, f)
	}
	i, j := 0, 0
	for i < len(acc) && j < len(b) {
		switch c := compareMetric(acc[i].Name, acc[i].Labels, b[j].Name, b[j].Labels); {
		case c < 0:
			dst = append(dst, acc[i])
			dsums = append(dsums, asums[i])
			i++
		case c > 0:
			appendB(b[j], j)
			j++
		default:
			m := acc[i]
			h := b[j]
			if !boundsEqual(m.Bounds, h.Bounds) {
				panic(fmt.Sprintf("obs: merge of histogram %s with mismatched bounds", labelKey(m.Name, m.Labels)))
			}
			counts := make([]uint64, len(m.Counts))
			copy(counts, m.Counts)
			for k := range counts {
				counts[k] += h.Counts[k]
			}
			m.Counts = counts
			f := asums[i]
			if bsums != nil {
				f.AddSum(&bsums[j])
			} else {
				f.Add(h.Sum)
			}
			m.Sum = f.Value()
			m.Count += h.Count
			dst = append(dst, m)
			dsums = append(dsums, f)
			i++
			j++
		}
	}
	for ; i < len(acc); i++ {
		dst = append(dst, acc[i])
		dsums = append(dsums, asums[i])
	}
	for ; j < len(b); j++ {
		appendB(b[j], j)
	}
	return dst, dsums
}
