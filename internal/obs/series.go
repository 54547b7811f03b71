package obs

import (
	"encoding/binary"
	"slices"
	"sync"
)

// seriesDef is one interned series identity: the name and the table's own
// copy of the label list (nil when there are none).
type seriesDef struct {
	name   string
	labels []Label
}

// series is the process-wide series table: every (name, labels) identity
// any Registry or merger has seen maps to one dense int32 id, assigned in
// first-use order. Registries find their handles by id and the merger
// folds by id, so the hot paths index slices instead of hashing and
// merge-joining key strings.
//
// Like a sync.Pool, the table's contents cannot be observed: ids never
// reach a snapshot, every output is in compareMetric order, and two
// processes (or two test orders) that assign different ids produce the
// same bytes. Tests therefore cannot interfere through it. It only grows,
// bounded by the number of distinct series the program ever registers;
// label values are catalog labels, domains and causes, never per-home
// data.
var series struct {
	mu   sync.RWMutex
	ids  map[string]int32
	defs []seriesDef
}

// appendSeriesKey appends the unambiguous encoding of a series identity
// to b: every part is length-prefixed, so no choice of name, label keys
// or label values can make two different identities encode alike (as
// joining them with punctuation would — `a{b=c}` with no labels against
// `a` with b=c).
func appendSeriesKey(b []byte, name string, labels []Label) []byte {
	b = binary.AppendUvarint(b, uint64(len(name)))
	b = append(b, name...)
	for _, l := range labels {
		b = binary.AppendUvarint(b, uint64(len(l.Key)))
		b = append(b, l.Key...)
		b = binary.AppendUvarint(b, uint64(len(l.Value)))
		b = append(b, l.Value...)
	}
	return b
}

// internSeries returns the id and the interned identity of the series
// whose key (appendSeriesKey of name and labels) is key, registering it on
// first use. labels is copied, never retained.
func internSeries(key []byte, name string, labels []Label) (int32, seriesDef) {
	series.mu.RLock()
	id, ok := series.ids[string(key)]
	var d seriesDef
	if ok {
		d = series.defs[id]
	}
	series.mu.RUnlock()
	if ok {
		return id, d
	}
	series.mu.Lock()
	defer series.mu.Unlock()
	if id, ok := series.ids[string(key)]; ok {
		return id, series.defs[id]
	}
	if series.ids == nil {
		series.ids = make(map[string]int32)
	}
	id = int32(len(series.defs))
	d = seriesDef{name: name}
	if len(labels) > 0 {
		d.labels = slices.Clone(labels)
	}
	series.ids[string(key)] = id
	series.defs = append(series.defs, d)
	return id, d
}

// seriesCount returns how many series the process has interned.
func seriesCount() int {
	series.mu.RLock()
	defer series.mu.RUnlock()
	return len(series.defs)
}
