package sniff_test

import (
	"bytes"
	"testing"

	"repro/internal/ipaddr"
	"repro/internal/ipnet"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/sniff"
	"repro/internal/tcpsim"
	"repro/internal/tlssim"
)

// feeder crafts oriented frames for a single synthetic flow.
type feeder struct {
	cap      *sniff.Capture
	src, dst tcpsim.Endpoint
	nextSeq  uint32
}

func newFeeder(cap *sniff.Capture, clientPort uint16) *feeder {
	f := &feeder{
		cap: cap,
		src: tcpsim.Endpoint{Addr: ipaddr.MustParse("192.168.1.10"), Port: clientPort},
		dst: tcpsim.Endpoint{Addr: ipaddr.MustParse("100.64.10.10"), Port: 443},
	}
	f.frame(tcpsim.Segment{Seq: 100, Flags: tcpsim.FlagSYN}, f.src, f.dst)
	f.frame(tcpsim.Segment{Seq: 500, Ack: 101, Flags: tcpsim.FlagSYN | tcpsim.FlagACK}, f.dst, f.src)
	f.nextSeq = 101
	return f
}

func (f *feeder) frame(seg tcpsim.Segment, from, to tcpsim.Endpoint) {
	seg.SrcPort, seg.DstPort = from.Port, to.Port
	p := ipnet.Packet{Src: from.Addr, Dst: to.Addr, Proto: ipnet.ProtoTCP, Payload: seg.Marshal()}
	f.cap.HandleFrame(netsim.Frame{Type: netsim.EtherTypeIPv4, Payload: p.Marshal()})
}

// record sends one in-order application record with an n-byte body filled
// with the given byte, and returns its full wire image.
func (f *feeder) record(n int, fill byte) []byte {
	rec := appRecord(n, fill)
	f.stream(rec)
	return rec
}

// appRecord returns the wire image of an application record with an
// n-byte body filled with the given byte.
func appRecord(n int, fill byte) []byte {
	rec := make([]byte, tlssim.HeaderLen+n)
	rec[0] = byte(tlssim.RecordApplication)
	rec[1], rec[2] = 3, 3
	rec[3], rec[4] = byte(n>>8), byte(n)
	for i := tlssim.HeaderLen; i < len(rec); i++ {
		rec[i] = fill
	}
	return rec
}

// stream sends b as the next in-order client-to-server segment.
func (f *feeder) stream(b []byte) {
	f.frame(tcpsim.Segment{Seq: f.nextSeq, Flags: tcpsim.FlagACK, Payload: b}, f.src, f.dst)
	f.nextSeq += uint32(len(b))
}

// instrumented returns a capture with the given per-flow retain budget that
// reports into a fresh registry, where the tests read its counters.
func instrumented(retain int) (*sniff.Capture, *obs.Registry) {
	cap := sniff.NewCapture(simtime.NewClock(), retain)
	reg := obs.NewRegistry()
	cap.Instrument(reg)
	return cap, reg
}

// evicted reads the retention eviction counters: records, then bytes.
func evicted(reg *obs.Registry) (uint64, uint64) {
	snap := reg.Snapshot()
	return snap.Counter("sniff_retained_evicted_records_total"), snap.Counter("sniff_retained_evicted_bytes_total")
}

func TestRetentionBudgetEvictsOldestFirst(t *testing.T) {
	cap, reg := instrumented(100)
	f := newFeeder(cap, 50000)
	wires := [][]byte{f.record(40, 'a'), f.record(40, 'b'), f.record(40, 'c')}

	recs := cap.Records()
	if len(recs) != 3 {
		t.Fatalf("captured %d records, want 3", len(recs))
	}
	// Three 45-byte records against a 100-byte budget: the first is evicted,
	// the later two stay.
	if recs[0].Payload != nil {
		t.Fatal("oldest record still retained past the budget")
	}
	for i := 1; i < 3; i++ {
		if !bytes.Equal(recs[i].Payload, wires[i]) {
			t.Fatalf("record %d payload = %x, want wire image %x", i, recs[i].Payload, wires[i])
		}
	}
	if n, b := evicted(reg); n != 1 || b != 45 {
		t.Fatalf("evicted %d records / %d bytes, want 1 / 45", n, b)
	}
}

func TestRetentionBudgetIsPerFlow(t *testing.T) {
	cap, reg := instrumented(100)
	a := newFeeder(cap, 50000)
	b := newFeeder(cap, 50001)
	// Fill flow A past its budget; flow B stays small.
	a.record(40, 'a')
	a.record(40, 'b')
	a.record(40, 'c')
	bw := b.record(40, 'x')

	var bRecs []sniff.RecordMeta
	for _, r := range cap.Records() {
		if r.Flow.Client.Port == 50001 {
			bRecs = append(bRecs, r)
		}
	}
	if len(bRecs) != 1 || !bytes.Equal(bRecs[0].Payload, bw) {
		t.Fatalf("flow B lost its payload to flow A's budget: %+v", bRecs)
	}
	if n, _ := evicted(reg); n != 1 {
		t.Fatalf("evictions = %d, want 1 (flow A only)", n)
	}
}

func TestRetentionOversizedRecordEvictsItself(t *testing.T) {
	cap, reg := instrumented(40)
	f := newFeeder(cap, 50000)
	f.record(60, 'z') // 65 wire bytes > whole budget
	recs := cap.Records()
	if len(recs) != 1 {
		t.Fatalf("captured %d records, want 1", len(recs))
	}
	if recs[0].Payload != nil {
		t.Fatal("oversized record retained past the budget")
	}
	if n, b := evicted(reg); n != 1 || b != 65 {
		t.Fatalf("evicted %d / %d, want 1 / 65", n, b)
	}
}

func TestRetentionOffKeepsNothing(t *testing.T) {
	cap, reg := instrumented(-5) // negative clamps to metadata only
	f := newFeeder(cap, 50000)
	f.record(40, 'a')
	recs := cap.Records()
	if len(recs) != 1 || recs[0].Payload != nil {
		t.Fatalf("retention off but payload kept: %+v", recs)
	}
	if n, _ := evicted(reg); n != 0 {
		t.Fatal("retention off still counted evictions")
	}
}

func TestOutOfOrderBufferCapDropsAndCounts(t *testing.T) {
	cap, reg := instrumented(0)
	f := newFeeder(cap, 50000)

	// Non-contiguous future segments pile up in the reassembly buffer until
	// the cap; everything past it is dropped and counted, not stored.
	for i := 0; i < 520; i++ {
		seq := f.nextSeq + 100 + uint32(i)*10
		f.frame(tcpsim.Segment{Seq: seq, Flags: tcpsim.FlagACK, Payload: []byte{1}}, f.src, f.dst)
	}
	if got := reg.Snapshot().Counter("sniff_ooo_dropped_total"); got != 8 {
		t.Fatalf("sniff_ooo_dropped_total = %d, want 8 (520 - cap of 512)", got)
	}
	if len(cap.Records()) != 0 {
		t.Fatal("out-of-order segments produced records without the gap filling")
	}
}

// TestSegmentBeyondWindowIgnored: a segment that starts more than TCP's
// largest unscaled window ahead of its stream belongs to another stream
// on the four-tuple (a hijacked flow carries the device's and the
// attacker's), so the capture neither buffers nor counts it, and
// allocates nothing for it. A segment inside the window still waits for
// its gap to fill.
func TestSegmentBeyondWindowIgnored(t *testing.T) {
	cap, reg := instrumented(1024)
	f := newFeeder(cap, 50000)
	f.record(40, 'a')

	// More far-ahead segments than the out-of-order cap holds, so a
	// capture that buffered them would also count drops.
	const runs = 600
	frames := make([]netsim.Frame, runs+1)
	for i := range frames {
		seg := tcpsim.Segment{SrcPort: f.src.Port, DstPort: f.dst.Port, Seq: f.nextSeq + 65536 + uint32(i)*1000, Flags: tcpsim.FlagACK, Payload: appRecord(40, 'z')}
		p := ipnet.Packet{Src: f.src.Addr, Dst: f.dst.Addr, Proto: ipnet.ProtoTCP, Payload: seg.Marshal()}
		frames[i] = netsim.Frame{Type: netsim.EtherTypeIPv4, Payload: p.Marshal()}
	}
	next := 0
	if n := testing.AllocsPerRun(runs, func() {
		cap.HandleFrame(frames[next])
		next++
	}); n != 0 {
		t.Fatalf("a segment beyond the window allocates %.2f per op, want 0", n)
	}
	if got := reg.Snapshot().Counter("sniff_ooo_dropped_total"); got != 0 {
		t.Fatalf("sniff_ooo_dropped_total = %d, want 0: nothing was buffered", got)
	}

	// A record split in two, its second half first, within the window.
	wire := appRecord(40, 'b')
	f.frame(tcpsim.Segment{Seq: f.nextSeq + 20, Flags: tcpsim.FlagACK, Payload: wire[20:]}, f.src, f.dst)
	f.stream(wire[:20])
	f.nextSeq += uint32(len(wire) - 20)
	recs := cap.Records()
	if len(recs) != 2 || !bytes.Equal(recs[1].Payload, wire) {
		t.Fatalf("records = %+v, want the first record and the reassembled %x", recs, wire)
	}
	flow := sniff.FlowKey{Client: f.src, Server: f.dst}
	if seq, ok := cap.StreamSeq(flow, sniff.DirClientToServer); !ok || seq != f.nextSeq {
		t.Fatalf("StreamSeq = %d, %v; want %d", seq, ok, f.nextSeq)
	}
}
