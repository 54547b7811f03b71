// Package sniff implements the passive side of the attack: promiscuous
// capture of frames on the WiFi segment, per-flow TCP stream reassembly,
// and extraction of TLS record metadata (timing, direction, cleartext
// lengths). Record lengths and keep-alive periods are the fingerprints
// that let an attacker recognise device models and message types in
// encrypted traffic (Section II-C / the profiling step of Section IV-C).
package sniff

import (
	"sort"

	"repro/internal/ipnet"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/tcpsim"
	"repro/internal/tlssim"
)

// Direction orients a record within a flow.
type Direction int

// Directions. The TCP initiator is the device side everywhere in the
// simulated home, so client-to-server means device-to-server.
const (
	DirClientToServer Direction = iota + 1
	DirServerToClient
)

// String names the direction.
func (d Direction) String() string {
	if d == DirClientToServer {
		return "c2s"
	}
	return "s2c"
}

// FlowKey identifies a TCP connection, oriented by its initiator.
type FlowKey struct {
	Client tcpsim.Endpoint
	Server tcpsim.Endpoint
}

// RecordMeta is one observed TLS record.
type RecordMeta struct {
	At   simtime.Time
	Flow FlowKey
	Dir  Direction
	Type tlssim.RecordType
	// WireLen is the record's total on-the-wire size (header + body).
	WireLen int
	// Payload is the record's raw wire bytes (header included), retained
	// only when the capture has a payload budget and that budget has not
	// evicted it. Replay attacks re-inject these bytes.
	Payload []byte
}

// PlainLen estimates the record's plaintext length (application records
// carry header + AEAD overhead).
func (r RecordMeta) PlainLen() int {
	if r.Type == tlssim.RecordApplication {
		return r.WireLen - tlssim.Overhead
	}
	return r.WireLen - tlssim.HeaderLen
}

// maxOOOSegments bounds the out-of-order reassembly buffer per stream
// direction. Overflow drops the new segment and counts it.
const maxOOOSegments = 512

// maxWindow is TCP's largest unscaled window. A segment that starts
// further ahead of its stream's next expected byte is taken to belong to
// another stream: a MITM'd connection puts two TCP streams on one
// four-tuple (the device's and the attacker's re-origination of it), each
// from its own initial sequence number, so the untracked stream's segments
// fall anywhere relative to the tracked one's, and buffered they would
// wait for a gap that never fills. The test assumes a lossless LAN:
// tcpsim keeps no send window, so after a lost segment a sender may run
// more than maxWindow bytes ahead, and the capture would ignore those
// bytes and stall the stream; no home sets a loss rate on the segment the
// capture taps.
const maxWindow = 65535

// Capture reassembles TLS record metadata from observed frames.
type Capture struct {
	clk   *simtime.Clock
	flows map[FlowKey]*flowState

	records []RecordMeta

	// retainBudget > 0 enables payload retention: each flow keeps up to
	// that many raw record bytes, oldest-evicted-first.
	retainBudget int

	mEvictedRecords *obs.Counter
	mEvictedBytes   *obs.Counter
	mOOODropped     *obs.Counter
}

type flowState struct {
	key     FlowKey
	streams [2]*dirStream
	// retained indexes this flow's payload-bearing records (into
	// Capture.records) in arrival order; retainedBytes is their budget use.
	retained      []int
	retainedBytes int
}

// dirStream reassembles one direction of a flow.
type dirStream struct {
	started bool
	nextSeq uint32
	ooo     map[uint32][]byte
	buf     []byte
}

// NewCapture creates an empty capture that logs every record it
// observes for Records and FlowRecords. A per-flow retain budget above 0
// also keeps each record's raw bytes, and when a flow exceeds its budget
// the oldest retained payloads are evicted and counted; 0 or less logs
// metadata only.
func NewCapture(clk *simtime.Clock, retain int) *Capture {
	return &Capture{clk: clk, flows: make(map[FlowKey]*flowState), retainBudget: max(retain, 0)}
}

// Instrument attaches registry counters for the capture's memory-bound
// events: retention evictions and out-of-order drops.
func (c *Capture) Instrument(reg *obs.Registry) {
	c.mEvictedRecords = reg.Counter("sniff_retained_evicted_records_total")
	c.mEvictedBytes = reg.Counter("sniff_retained_evicted_bytes_total")
	c.mOOODropped = reg.Counter("sniff_ooo_dropped_total")
}

// Records returns every record logged so far.
func (c *Capture) Records() []RecordMeta {
	out := make([]RecordMeta, len(c.records))
	copy(out, c.records)
	return out
}

// FlowRecords returns the logged records of one flow in order.
func (c *Capture) FlowRecords(key FlowKey) []RecordMeta {
	var out []RecordMeta
	for _, r := range c.records {
		if r.Flow == key {
			out = append(out, r)
		}
	}
	return out
}

// Flows lists the flows seen so far, ordered by client then server
// endpoint. The flow table is a map, so without the sort the listing
// would change order run to run — and Flows feeds fingerprinting and
// attack target selection, which must be pure functions of the capture.
func (c *Capture) Flows() []FlowKey {
	out := make([]FlowKey, 0, len(c.flows))
	for k := range c.flows {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return flowKeyLess(out[i], out[j]) })
	return out
}

func flowKeyLess(a, b FlowKey) bool {
	if a.Client != b.Client {
		return endpointLess(a.Client, b.Client)
	}
	return endpointLess(a.Server, b.Server)
}

func endpointLess(a, b tcpsim.Endpoint) bool {
	if a.Addr != b.Addr {
		return a.Addr < b.Addr
	}
	return a.Port < b.Port
}

// StreamSeq returns the next expected TCP sequence number of one direction
// of a live flow — everything an attacker needs to forge a valid in-window
// segment (such as the RST used to take over an established session).
func (c *Capture) StreamSeq(key FlowKey, dir Direction) (uint32, bool) {
	fs, ok := c.flows[key]
	if !ok {
		return 0, false
	}
	st := fs.streams[dir-1]
	if !st.started {
		return 0, false
	}
	return st.nextSeq, true
}

// HandleFrame ingests one layer-2 frame; it is the capture's netsim tap.
func (c *Capture) HandleFrame(f netsim.Frame) {
	if f.Type != netsim.EtherTypeIPv4 {
		return
	}
	pkt, err := ipnet.Unmarshal(f.Payload)
	if err != nil || pkt.Proto != ipnet.ProtoTCP {
		return
	}
	seg, err := tcpsim.UnmarshalSegment(pkt.Payload)
	if err != nil {
		return
	}
	src := tcpsim.Endpoint{Addr: pkt.Src, Port: seg.SrcPort}
	dst := tcpsim.Endpoint{Addr: pkt.Dst, Port: seg.DstPort}

	// Orientation: a bare SYN starts a flow with src as client. Data on
	// unknown flows is attributed by matching either orientation.
	if seg.Flags.Has(tcpsim.FlagSYN) && !seg.Flags.Has(tcpsim.FlagACK) {
		key := FlowKey{Client: src, Server: dst}
		fs := &flowState{key: key}
		fs.streams[0] = &dirStream{nextSeq: seg.Seq + 1, started: true, ooo: make(map[uint32][]byte)}
		fs.streams[1] = &dirStream{ooo: make(map[uint32][]byte)}
		c.flows[key] = fs
		return
	}

	fs, dir := c.lookup(src, dst)
	if fs == nil {
		return
	}
	st := fs.streams[dir-1]
	if seg.Flags.Has(tcpsim.FlagSYN) { // SYN-ACK seeds the server stream
		st.nextSeq = seg.Seq + 1
		st.started = true
		return
	}
	if seg.Flags.Has(tcpsim.FlagRST) {
		delete(c.flows, fs.key)
		return
	}
	if !st.started || len(seg.Payload) == 0 {
		return
	}
	c.ingest(fs, dir, st, seg)
}

func (c *Capture) lookup(src, dst tcpsim.Endpoint) (*flowState, Direction) {
	if fs, ok := c.flows[FlowKey{Client: src, Server: dst}]; ok {
		return fs, DirClientToServer
	}
	if fs, ok := c.flows[FlowKey{Client: dst, Server: src}]; ok {
		return fs, DirServerToClient
	}
	return nil, 0
}

func (c *Capture) ingest(fs *flowState, dir Direction, st *dirStream, seg tcpsim.Segment) {
	switch ahead := seg.Seq - st.nextSeq; {
	case ahead == 0:
		st.buf = append(st.buf, seg.Payload...)
		st.nextSeq += uint32(len(seg.Payload))
		for {
			p, ok := st.ooo[st.nextSeq]
			if !ok {
				break
			}
			delete(st.ooo, st.nextSeq)
			st.buf = append(st.buf, p...)
			st.nextSeq += uint32(len(p))
		}
		c.drainRecords(fs, dir, st)
	case ahead <= maxWindow:
		if len(st.ooo) >= maxOOOSegments {
			c.mOOODropped.Inc()
			return
		}
		// Detach from the delivered frame: netsim recycles its payload
		// buffers once delivery returns, and this byte range waits here
		// until the gap fills.
		st.ooo[seg.Seq] = append([]byte(nil), seg.Payload...)
	default:
		// A retransmission of already-captured bytes, or a segment of
		// another stream beyond the window: ignore.
	}
}

// drainRecords consumes and logs every complete record at the front of
// st.buf, then moves the unconsumed tail to the front so the buffer keeps
// its capacity and the next ingest appends without reallocating. Nothing
// keeps buf bytes past the call: retained payloads are clones.
func (c *Capture) drainRecords(fs *flowState, dir Direction, st *dirStream) {
	off := 0
	for {
		rec := st.buf[off:]
		total, ok := tlssim.RecordLen(rec)
		if !ok {
			break
		}
		off += total
		meta := RecordMeta{
			At:      c.clk.Now(),
			Flow:    fs.key,
			Dir:     dir,
			Type:    tlssim.RecordType(rec[0]),
			WireLen: total,
		}
		if c.retainBudget > 0 {
			// Clone: the compaction below reuses the stream buffer.
			meta.Payload = append([]byte(nil), rec[:total]...)
		}
		idx := len(c.records)
		c.records = append(c.records, meta)
		if meta.Payload != nil {
			c.retainRecord(fs, idx, total)
		}
	}
	if off > 0 {
		st.buf = st.buf[:copy(st.buf, st.buf[off:])]
	}
}

// retainRecord charges a freshly retained payload against its flow's
// budget, evicting the oldest retained payloads until it fits. A record
// larger than the whole budget evicts itself immediately.
func (c *Capture) retainRecord(fs *flowState, idx, size int) {
	fs.retained = append(fs.retained, idx)
	fs.retainedBytes += size
	for fs.retainedBytes > c.retainBudget && len(fs.retained) > 0 {
		old := fs.retained[0]
		fs.retained = fs.retained[1:]
		n := len(c.records[old].Payload)
		c.records[old].Payload = nil
		fs.retainedBytes -= n
		c.mEvictedRecords.Inc()
		c.mEvictedBytes.Add(uint64(n))
	}
}
