package sniff_test

import (
	"bytes"
	"testing"

	"repro/internal/ipnet"
	"repro/internal/netsim"
	"repro/internal/simtime"
	"repro/internal/sniff"
	"repro/internal/tcpsim"
)

// TestCaptureLogsOnlyAfterRecord: a capture no reader asked for logs
// nothing, yet tracks the stream, so a log started between two segments
// of one record begins with that record, whole.
func TestCaptureLogsOnlyAfterRecord(t *testing.T) {
	cap := sniff.NewCapture(simtime.NewClock())
	f := newFeeder(cap, 50000)
	f.record(40, 'a')
	flow := sniff.FlowKey{Client: f.src, Server: f.dst}
	if got := cap.Flows(); len(got) != 1 || got[0] != flow {
		t.Fatalf("Flows() = %v, want the one flow", got)
	}
	if len(cap.Records()) != 0 || len(cap.FlowRecords(flow)) != 0 {
		t.Fatal("a capture nobody asked to record logged records")
	}

	// The second record's first half arrives before Record, its second
	// half after.
	wire := appRecord(40, 'b')
	f.stream(wire[:20])
	cap.Record(64)
	f.stream(wire[20:])
	third := f.record(10, 'c')

	recs := cap.FlowRecords(flow)
	if len(recs) != 2 || recs[0].WireLen != 45 || recs[1].WireLen != 15 {
		t.Fatalf("records after a mid-stream Record = %+v, want the 45- and 15-byte records", recs)
	}
	if !bytes.Equal(recs[0].Payload, wire) || !bytes.Equal(recs[1].Payload, third) {
		t.Fatalf("retained payloads %x / %x, want %x / %x", recs[0].Payload, recs[1].Payload, wire, third)
	}
	if seq, ok := cap.StreamSeq(flow, sniff.DirClientToServer); !ok || seq != f.nextSeq {
		t.Fatalf("StreamSeq = %d, %v; want %d", seq, ok, f.nextSeq)
	}
}

// TestCaptureWithoutReaderAllocFree: a capture no reader asked for
// reassembles and delimits a stream of application records without
// allocating once its buffers have grown.
func TestCaptureWithoutReaderAllocFree(t *testing.T) {
	cap := sniff.NewCapture(simtime.NewClock())
	f := newFeeder(cap, 50000)
	f.record(100, 'w') // grow the reassembly buffer

	// Each run delivers one prebuilt frame: a whole 105-byte record and
	// the first half of the next, or the second half and the record
	// after it, so half-records wait in the buffer between runs.
	const rounds = 100
	rec := appRecord(100, 'r')
	frames := make([]netsim.Frame, rounds+1)
	for i := range frames {
		var payload []byte
		if i%2 == 0 {
			payload = append(append(payload, rec...), rec[:50]...)
		} else {
			payload = append(append(payload, rec[50:]...), rec...)
		}
		seg := tcpsim.Segment{SrcPort: f.src.Port, DstPort: f.dst.Port, Seq: f.nextSeq, Flags: tcpsim.FlagACK, Payload: payload}
		f.nextSeq += uint32(len(payload))
		p := ipnet.Packet{Src: f.src.Addr, Dst: f.dst.Addr, Proto: ipnet.ProtoTCP, Payload: seg.Marshal()}
		frames[i] = netsim.Frame{Type: netsim.EtherTypeIPv4, Payload: p.Marshal()}
	}
	next := 0
	if n := testing.AllocsPerRun(rounds, func() {
		cap.HandleFrame(frames[next])
		next++
	}); n != 0 {
		t.Fatalf("ingesting a record allocates %.2f per op, want 0", n)
	}
	// AllocsPerRun adds one warm-up run to the measured ones.
	flow := sniff.FlowKey{Client: f.src, Server: f.dst}
	if seq, ok := cap.StreamSeq(flow, sniff.DirClientToServer); next != rounds+1 || !ok || seq != f.nextSeq {
		t.Fatalf("after %d frames StreamSeq = %d, %v; want %d", next, seq, ok, f.nextSeq)
	}
	if len(cap.Records()) != 0 {
		t.Fatal("a capture nobody asked to record logged records")
	}
}
