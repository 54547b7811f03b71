package core

import (
	"repro/internal/obs"
	"repro/internal/sniff"
)

// coreMetrics are the attack toolkit's obs handles. The zero value (all
// nil) is the uninstrumented no-op state; every Bridge carries a copy of
// its attacker's handles by value.
type coreMetrics struct {
	bridges        *obs.Counter
	observed       [2]*obs.Counter // indexed by sniff.Direction - 1
	held           [2]*obs.Counter
	released       [2]*obs.Counter
	heldDepth      *obs.Gauge
	releaseLatency *obs.Histogram
	spoofedSends   *obs.Counter
	trace          *obs.Trace
}

// Instrument registers the attacker's metrics with reg:
//
//	core_bridges_total                      split connections established
//	core_records_observed_total{dir}        TLS records crossing any bridge
//	core_records_held_total{dir}            records a hold enqueued
//	core_records_released_total{dir}        held records flushed by Release
//	core_held_records                       records currently queued (Max = high-water)
//	core_release_latency_seconds            hold duration per Release call
//	core_spoofed_sends_total                records sent onward with spoofed addresses
//
// dir is c2s (device to server) or s2c. Call before creating hijackers;
// existing bridges keep their zero-value (no-op) handles.
func (a *Attacker) Instrument(reg *obs.Registry) {
	dirCounter := func(name string) [2]*obs.Counter {
		return [2]*obs.Counter{
			reg.Counter(name, obs.L("dir", sniff.DirClientToServer.String())),
			reg.Counter(name, obs.L("dir", sniff.DirServerToClient.String())),
		}
	}
	a.met = coreMetrics{
		bridges:        reg.Counter("core_bridges_total"),
		observed:       dirCounter("core_records_observed_total"),
		held:           dirCounter("core_records_held_total"),
		released:       dirCounter("core_records_released_total"),
		heldDepth:      reg.Gauge("core_held_records"),
		releaseLatency: reg.Histogram("core_release_latency_seconds", obs.DurationBuckets),
		spoofedSends:   reg.Counter("core_spoofed_sends_total"),
	}
	a.Capture.Instrument(reg)
	if tr := reg.Trace(); tr.Enabled() {
		a.met.trace = tr
	}
}

func (m coreMetrics) byDir(c [2]*obs.Counter, d sniff.Direction) *obs.Counter {
	if d != sniff.DirClientToServer && d != sniff.DirServerToClient {
		return nil
	}
	return c[d-1]
}
