// Package defense implements the paper's Section VII countermeasures and
// the analysis of their costs and limitations:
//
//   - Requiring per-message acknowledgements with a short timeout
//     (VII-A): shrinks the attack window, at the price of extra traffic
//     when keep-alive intervals shrink alongside (the LIFX example), and
//     is impractical for battery devices.
//   - Timestamp checking at the receiver (VII-B): detects delayed trigger
//     events, but cannot undo actions fired while a *condition* event was
//     still in flight, and cannot stop the pure delay attacks.
package defense

import (
	"time"

	"repro/internal/device"
	"repro/internal/tlssim"
)

// HardenProfile returns a device variant implementing countermeasure
// VII-A: every event message must be acknowledged within ackTimeout, and
// the keep-alive machinery is tightened to the same bound so the
// keep-alive path cannot be exploited for longer than the messages
// themselves.
func HardenProfile(p device.Profile, ackTimeout time.Duration) device.Profile {
	q := p
	// Tighten, never loosen: devices with an already-shorter timeout keep it.
	if q.EventTimeout == 0 || q.EventTimeout > ackTimeout {
		q.EventTimeout = ackTimeout
	}
	if q.KeepAlivePeriod > 0 {
		if q.KeepAlivePeriod > ackTimeout {
			q.KeepAlivePeriod = ackTimeout
		}
		if q.KeepAliveTimeout > ackTimeout {
			q.KeepAliveTimeout = ackTimeout
		}
	}
	if q.CommandTimeout == 0 || q.CommandTimeout > ackTimeout {
		q.CommandTimeout = ackTimeout
	}
	if q.ServerIdleTimeout > ackTimeout {
		q.ServerIdleTimeout = ackTimeout
	}
	return q
}

// perMessageOverhead is the fixed per-record framing cost on the wire:
// TLS header+tag, the TCP and IP headers, and the layer-2 frame header.
const perMessageOverhead = tlssim.Overhead + 15 + 12 + 14

// ackSegmentBytes approximates the bare TCP acknowledgement each record
// elicits (empty segment + IP + frame headers).
const ackSegmentBytes = 15 + 12 + 14

// KeepAliveTrafficPerHour estimates the keep-alive bandwidth of a profile:
// one request and one response per period, plus their transport ACKs. This
// is the cost side of shortening intervals — the paper's LIFX bulb, with a
// sub-2s interval, burns >150 MB per hour of such traffic. (The estimate
// counts protocol payloads as sized by the profile; the simulator's
// measured numbers land within a few frame headers of this.)
func KeepAliveTrafficPerHour(p device.Profile) int64 {
	if p.KeepAlivePeriod <= 0 {
		return 0
	}
	exchanges := int64(time.Hour / p.KeepAlivePeriod)
	respLen := 32 // server keep-alive responses are small fixed records
	perExchange := int64(p.KeepAliveLen+perMessageOverhead) +
		int64(respLen+perMessageOverhead) +
		2*ackSegmentBytes
	return exchanges * perExchange
}

// MeasureKeepAliveTraffic reads actual keep-alive bandwidth from a
// segment's counters over an interval. The caller runs the clock; this
// just diffs byte counts.
type TrafficMeter struct {
	stats func() uint64
	start uint64
}

// NewTrafficMeter starts metering a traffic byte counter.
func NewTrafficMeter(stats func() uint64) *TrafficMeter {
	return &TrafficMeter{stats: stats, start: stats()}
}

// Bytes reports bytes accumulated since the meter started.
func (m *TrafficMeter) Bytes() uint64 { return m.stats() - m.start }
