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

// recordStream builds a TLS record stream from fuzz bytes: each record
// takes a type byte and a length byte, then that many body bytes. When the
// bytes run out mid-record the stream ends there, leaving the capture a
// partial record to hold.
func recordStream(data []byte) []byte {
	var out []byte
	for len(data) >= 2 {
		typ, n := data[0], int(data[1])
		data = data[2:]
		out = append(out, typ, 3, 3, 0, byte(n))
		k := min(n, len(data))
		out = append(out, data[:k]...)
		data = data[k:]
	}
	return out
}

// captureStream feeds stream to a fresh recording capture, cut into
// in-order segments whose lengths cycle through cuts (each byte c gives a
// c+1-byte segment), or as one segment when cuts is empty.
func captureStream(stream, cuts []byte) []sniff.RecordMeta {
	cap := sniff.NewCapture(simtime.NewClock(), 1024)
	f := newFeeder(cap, 50000)
	for i := 0; len(stream) > 0; i++ {
		n := len(stream)
		if len(cuts) > 0 {
			n = min(n, int(cuts[i%len(cuts)])+1)
		}
		f.stream(stream[:n])
		stream = stream[n:]
	}
	return cap.Records()
}

// FuzzCaptureReassembly: where a stream's segment boundaries fall must not
// change the records reassembled from it, and no bytes, framed or not, may
// panic the capture, also when they arrive on a live flow.
func FuzzCaptureReassembly(f *testing.F) {
	f.Add([]byte{23, 4, 'a', 'b', 'c', 'd', 22, 2, 'x', 'y', 21, 0}, []byte{0, 3})
	f.Add([]byte{23, 200, 1, 2, 3}, []byte{1})
	f.Add([]byte{23, 3, 1, 2, 3, 23, 3, 4, 5, 6}, []byte{6})
	f.Add([]byte{}, []byte{})
	// A segment of the fuzz flow far beyond its window, as the second
	// stream of a hijacked four-tuple sends.
	far := newFeeder(sniff.NewCapture(simtime.NewClock(), 0), 50000)
	seg := tcpsim.Segment{SrcPort: far.src.Port, DstPort: far.dst.Port, Seq: far.nextSeq + 1<<30, Flags: tcpsim.FlagACK, Payload: appRecord(8, 'f')}
	pkt := ipnet.Packet{Src: far.src.Addr, Dst: far.dst.Addr, Proto: ipnet.ProtoTCP, Payload: seg.Marshal()}
	f.Add(pkt.Marshal(), []byte{2})
	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		if len(data) > 4096 {
			data = data[:4096] // keep every stream inside one IP packet
		}
		raw := sniff.NewCapture(simtime.NewClock(), 1024)
		live := newFeeder(raw, 50000)
		raw.HandleFrame(netsim.Frame{Type: netsim.EtherTypeIPv4, Payload: data})
		live.stream(data)

		stream := recordStream(data)
		want := captureStream(stream, nil)
		got := captureStream(stream, cuts)
		if len(got) != len(want) {
			t.Fatalf("split feed gave %d records, one segment gave %d", len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Type != w.Type || g.WireLen != w.WireLen || !bytes.Equal(g.Payload, w.Payload) {
				t.Fatalf("record %d: split feed %d/%d/%x, one segment %d/%d/%x",
					i, g.Type, g.WireLen, g.Payload, w.Type, w.WireLen, w.Payload)
			}
		}
	})
}
