// Package obs is the simulator's observability layer: a zero-dependency
// metrics registry (counters, gauges with high-water marks, histograms with
// fixed bucket boundaries) plus an opt-in event-trace ring buffer, the
// flight recorder.
//
// The package is designed for the single-threaded simtime world: metric
// handles are plain structs and mutation is a direct field update — no
// locks, no atomics on the hot path. A Registry therefore belongs to
// exactly one simulation (one goroutine). The synchronization boundary is
// Snapshot: the owning goroutine takes a value-copy Snapshot after its run,
// and snapshots from many independent runs (the fleet's workers) are
// merged with Merge, which is safe to call from any goroutine because
// snapshots are plain values. Snapshots hold metrics only: a run that
// turned its recorder on reads the events off Registry.Trace itself. The
// one state registries share is the lock-guarded series table
// (series.go), which gives every series a dense id the first time any
// registry or merge names it.
//
// Every handle method is nil-receiver safe, so instrumented components pay
// a single predictable branch when no registry is attached.
package obs

import (
	"fmt"
	"slices"
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

// describe renders a series identity for panic messages. It is not an
// identity: series are told apart by appendSeriesKey and compareMetric.
func describe(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	return fmt.Sprintf("%s%v", name, labels)
}

// compareMetric orders metric identities by name, then pairwise by label
// key and value, with a shorter label list sorting first. This tuple order
// is the one canonical metric order: every Snapshot and every merged
// aggregate lists its series in it, and the snapshot lookups match on it.
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
	id     int32
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
	id     int32
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
	id     int32
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

// Registry owns a simulation's metrics and, when SetTraceCapacity turned
// it on, its flight recorder. The zero value is not usable; create one
// with NewRegistry. A nil *Registry is a valid "off" registry: every
// constructor returns a nil handle and every handle method no-ops.
type Registry struct {
	// counters/gauges/hists hold the handles in registration order;
	// Snapshot sorts its copy once.
	counters []*Counter
	gauges   []*Gauge
	hists    []*Histogram
	// handles maps a series id to this registry's handle for it: the kind
	// in the low two bits and the position in that kind's slice above
	// them. 0 means the registry has no handle for the id.
	handles []int32
	// spare is the unused rest of the current chunk of Counters.
	spare []Counter
	// keybuf is the scratch for series keys; a key string is allocated
	// only when a series is new to the whole process.
	keybuf []byte
	// trace is the flight recorder; nil while it is off.
	trace *Trace
}

// Handle kinds, as stored in Registry.handles.
const (
	kindCounter int32 = 1 + iota
	kindGauge
	kindHistogram
)

// counterChunk is how many Counters a registry allocates at once: a
// testbed registers dozens, mostly per-host tcpsim series.
const counterChunk = 32

// NewRegistry creates an empty registry with its flight recorder off.
func NewRegistry() *Registry { return &Registry{} }

// find returns the id and interned identity of (name, labels), and the
// position of this registry's handle for it, or -1 when it has none yet.
// An existing handle of another kind panics.
func (r *Registry) find(kind int32, name string, labels []Label) (int32, seriesDef, int) {
	r.keybuf = appendSeriesKey(r.keybuf[:0], name, labels)
	id, d := internSeries(r.keybuf, name, labels)
	if int(id) < len(r.handles) {
		if h := r.handles[id]; h != 0 {
			if h&3 != kind {
				panic(fmt.Sprintf("obs: %s already registered as a different metric type", describe(d.name, d.labels)))
			}
			return id, d, int(h >> 2)
		}
	}
	return id, d, -1
}

// bind records pos as this registry's handle of the given kind for id.
// The index grows to cover every id the process has interned, so a
// registry of known series sizes it once.
func (r *Registry) bind(id, kind int32, pos int) {
	if int(id) >= len(r.handles) {
		n := max(int(id)+1, seriesCount())
		r.handles = append(r.handles, make([]int32, n-len(r.handles))...)
	}
	r.handles[id] = int32(pos)<<2 | kind
}

// Counter returns the counter with the given name and labels, creating it
// on first use. Repeated calls with equal name+labels return the same
// handle. The registry keeps no reference to labels.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	id, d, pos := r.find(kindCounter, name, labels)
	if pos >= 0 {
		return r.counters[pos]
	}
	if len(r.spare) == 0 {
		r.spare = make([]Counter, counterChunk)
	}
	c := &r.spare[0]
	r.spare = r.spare[1:]
	c.id, c.name, c.labels = id, d.name, d.labels
	r.bind(id, kindCounter, len(r.counters))
	if r.counters == nil {
		r.counters = make([]*Counter, 0, counterChunk)
	}
	r.counters = append(r.counters, c)
	return c
}

// Gauge returns the gauge with the given name and labels, creating it on
// first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	id, d, pos := r.find(kindGauge, name, labels)
	if pos >= 0 {
		return r.gauges[pos]
	}
	g := &Gauge{id: id, name: d.name, labels: d.labels}
	r.bind(id, kindGauge, len(r.gauges))
	r.gauges = append(r.gauges, g)
	return g
}

// Histogram returns the histogram with the given name, bounds and labels,
// creating it on first use. Bounds must be ascending; they are fixed at
// creation and later calls reuse the original bounds. Bounds belong to the
// handle, not to the series: two registries may give one series different
// bounds, and only merging them panics.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	id, d, pos := r.find(kindHistogram, name, labels)
	if pos >= 0 {
		return r.hists[pos]
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %s bounds not ascending", name))
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	h := &Histogram{id: id, name: d.name, labels: d.labels, bounds: b, counts: make([]uint64, len(b)+1)}
	r.bind(id, kindHistogram, len(r.hists))
	r.hists = append(r.hists, h)
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

// Trace returns the registry's flight recorder: nil while it is off and
// on a nil registry, which Trace methods tolerate.
func (r *Registry) Trace() *Trace {
	if r == nil {
		return nil
	}
	return r.trace
}

// SetTraceCapacity replaces the flight recorder with an empty ring of n
// events, or turns it off when n <= 0. Components capture the ring when
// they are instrumented, so set it before instrumenting any.
func (r *Registry) SetTraceCapacity(n int) {
	if r == nil {
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

// Snapshot copies the registry's current state. Metrics are emitted in
// canonical order (sorted by name, then labels) so equal runs produce
// byte-identical snapshots. Label slices and histogram bounds are shared
// with the registry's handles — both are immutable after registration —
// while every mutable field (values, histogram counts) is copied, so the
// snapshot stays a stable value as the simulation runs on.
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
	// Handles are kept in registration order; sort the copy once.
	slices.SortFunc(s.Counters, compareCounters)
	slices.SortFunc(s.Gauges, compareGauges)
	slices.SortFunc(s.Histograms, compareHistograms)
	return s
}

func compareCounters(a, b CounterValue) int { return compareMetric(a.Name, a.Labels, b.Name, b.Labels) }
func compareGauges(a, b GaugeValue) int     { return compareMetric(a.Name, a.Labels, b.Name, b.Labels) }
func compareHistograms(a, b HistogramValue) int {
	return compareMetric(a.Name, a.Labels, b.Name, b.Labels)
}

// canonical reports whether every section of s is in canonical order.
func (s *Snapshot) canonical() bool {
	return slices.IsSortedFunc(s.Counters, compareCounters) &&
		slices.IsSortedFunc(s.Gauges, compareGauges) &&
		slices.IsSortedFunc(s.Histograms, compareHistograms)
}

// Counter returns the value of the named counter in the snapshot, or 0.
func (s Snapshot) Counter(name string, labels ...Label) uint64 {
	for _, c := range s.Counters {
		if compareMetric(c.Name, c.Labels, name, labels) == 0 {
			return c.Value
		}
	}
	return 0
}

// Gauge returns the named gauge in the snapshot, or a zero value.
func (s Snapshot) Gauge(name string, labels ...Label) GaugeValue {
	for _, g := range s.Gauges {
		if compareMetric(g.Name, g.Labels, name, labels) == 0 {
			return g
		}
	}
	return GaugeValue{Name: name, Labels: labels}
}

// Histogram returns the named histogram in the snapshot and whether it
// exists.
func (s Snapshot) Histogram(name string, labels ...Label) (HistogramValue, bool) {
	for _, h := range s.Histograms {
		if compareMetric(h.Name, h.Labels, name, labels) == 0 {
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
	slices.Sort(out)
	return out
}

// Merge combines snapshots from independent runs into one: counters and
// histogram buckets sum, gauge values sum while high-water marks take the
// per-run maximum (a merged queue-depth HWM answers "the deepest any one
// run got"). Histograms with mismatched bounds panic — bounds are part of
// a metric's identity. Merge only touches plain values, so it is safe
// wherever the snapshots themselves were safely produced.
//
// The fold works by series id (see the series table): each input entry is
// interned and added into its dense slot, whatever order the input lists
// its series in, and the result lists them in canonical order. The result
// shares label slices and histogram bounds with its inputs — immutable by
// the snapshot contract — and owns its histogram counts.
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
// The monoid laws are property-tested in
// accumulate_test.go; they are what lets aggregation split arbitrarily
// across shards, checkpoints, resumes, and worker processes.
//
// Merge is a left fold over the merger type; Accumulator (accumulate.go)
// runs the identical fold one snapshot (or registry) at a time, which is
// what guarantees streamed and retained aggregation byte-identical
// results.
func Merge(snaps ...Snapshot) Snapshot {
	var m merger
	for _, s := range snaps {
		m.fold(s, nil)
	}
	return m.snapshot()
}
