package core

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/ipaddr"
	"repro/internal/ipnet"
	"repro/internal/netsim"
	"repro/internal/simtime"
	"repro/internal/sniff"
	"repro/internal/tcpsim"
	"repro/internal/tlssim"
)

// feedBridge is a bridge between two real TCP connections to a peer host,
// fed device-to-server bytes directly through onData. far collects what
// the peer receives on the server side.
type feedBridge struct {
	clk *simtime.Clock
	h   *Hijacker
	b   *Bridge
	far []byte
}

func newFeedBridge(t *testing.T) *feedBridge {
	t.Helper()
	clk := simtime.NewClock()
	nw := netsim.NewNetwork(clk, 1)
	lan := nw.NewSegment("lan", time.Millisecond, 0)
	relayIP := ipnet.NewStack(clk, nw.NewHost("relay"))
	relayIP.MustAddIface(lan, "192.168.1.66/24")
	peerIP := ipnet.NewStack(clk, nw.NewHost("peer"))
	peerIP.MustAddIface(lan, "192.168.1.20/24")
	relay := tcpsim.NewStack(clk, relayIP, tcpsim.Config{}, 7)
	peer := tcpsim.NewStack(clk, peerIP, tcpsim.Config{}, 8)

	fb := &feedBridge{clk: clk}
	for _, port := range []uint16{8883, 443} {
		if _, err := peer.Listen(port, func(c *tcpsim.Conn) {
			if port == 443 {
				c.OnData = func(b []byte) { fb.far = append(fb.far, b...) }
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	peerAddr := ipaddr.MustParse("192.168.1.20")
	devConn := relay.Dial(tcpsim.Endpoint{Addr: peerAddr, Port: 8883})
	srvConn := relay.Dial(tcpsim.Endpoint{Addr: peerAddr, Port: 443})
	fb.h = &Hijacker{atk: &Attacker{Clock: clk}}
	fb.b = newBridge(fb.h, devConn, srvConn)
	clk.RunFor(time.Second)
	if devConn.State() != tcpsim.StateEstablished || srvConn.State() != tcpsim.StateEstablished {
		t.Fatal("bridge connections not established")
	}
	return fb
}

// appRecord returns an application record with an n-byte body filled with
// the given byte.
func appRecord(n int, fill byte) []byte {
	rec := []byte{byte(tlssim.RecordApplication), 3, 3, byte(n >> 8), byte(n)}
	return append(rec, bytes.Repeat([]byte{fill}, n)...)
}

// TestBridgeForwardsSplitRecordsAcrossHold feeds a bridge ten records cut
// at arbitrary points. A manual hold captures the third, the next three
// queue behind it while later bytes reuse the reassembly buffer, and the
// release flushes them before the last four flow through. The far side
// must receive every record once, in order and byte-equal.
func TestBridgeForwardsSplitRecordsAcrossHold(t *testing.T) {
	var records [][]byte
	for i := range 10 {
		records = append(records, appRecord(20+7*i, byte('a'+i)))
	}
	for _, cuts := range [][]int{{1}, {2, 3}, {5, 17, 1}, {40}, {64, 3}, {1000}} {
		fb := newFeedBridge(t)
		st := fb.b.dir(sniff.DirClientToServer)
		heldLen := len(records[2])
		op := fb.h.arm(&DelayOp{
			h:      fb.h,
			dir:    sniff.DirClientToServer,
			match:  func(cr ClassifiedRecord) bool { return cr.WireLen == heldLen },
			manual: true,
		})
		// feed sends stream in pieces whose lengths cycle through cuts.
		i := 0
		feed := func(stream []byte) {
			for len(stream) > 0 {
				n := min(len(stream), cuts[i%len(cuts)])
				i++
				fb.b.onData(sniff.DirClientToServer, stream[:n])
				stream = stream[n:]
			}
		}

		feed(bytes.Join(records[:6], nil))
		// Records 7 and 8 arrive whole and a third of 9 with them, so the
		// buffer's front is overwritten while the queue waits.
		feed(bytes.Join(records[6:8], nil))
		feed(records[8][:len(records[8])/3])
		fb.clk.RunFor(time.Second)
		if got := fb.b.HeldCount(sniff.DirClientToServer); got != 6 {
			t.Fatalf("cuts %v: %d records held, want records 2 to 7 queued", cuts, got)
		}
		for k, rec := range st.queue {
			if !bytes.Equal(rec, records[2+k]) {
				t.Fatalf("cuts %v: queued record %d is %x after later data, want %x", cuts, k, rec, records[2+k])
			}
		}
		if want := bytes.Join(records[:2], nil); !bytes.Equal(fb.far, want) {
			t.Fatalf("cuts %v: far side got %d bytes during the hold, want the first two records (%d)", cuts, len(fb.far), len(want))
		}

		op.Release()
		feed(records[8][len(records[8])/3:])
		feed(records[9])
		fb.clk.RunFor(time.Second)
		if want := bytes.Join(records, nil); !bytes.Equal(fb.far, want) {
			t.Fatalf("cuts %v: far side got\n%x\nwant\n%x", cuts, fb.far, want)
		}
		if got := fb.b.HeldCount(sniff.DirClientToServer); got != 0 || fb.b.ForwardedCount(sniff.DirClientToServer) != len(records) {
			t.Fatalf("cuts %v: held %d, forwarded %d after release; want 0 and %d", cuts, got, fb.b.ForwardedCount(sniff.DirClientToServer), len(records))
		}
	}
}

// TestBridgeForwardAllocFree: once a bridge's buffer has grown, forwarding
// records split across deliveries allocates nothing in the bridge or below
// it.
func TestBridgeForwardAllocFree(t *testing.T) {
	fb := newFeedBridge(t)
	rec := appRecord(100, 'r')
	// Each run delivers a whole record and the first half of the next, or
	// the second half and the record after it.
	chunks := [2][]byte{
		append(append([]byte(nil), rec...), rec[:50]...),
		append(append([]byte(nil), rec[50:]...), rec...),
	}
	fb.far = make([]byte, 0, 64<<10)
	next := 0
	run := func() {
		fb.b.onData(sniff.DirClientToServer, chunks[next%2])
		next++
		fb.clk.RunFor(10 * time.Millisecond)
	}
	run()
	run()
	fb.far = fb.far[:0]
	const runs = 100
	if n := testing.AllocsPerRun(runs, run); n != 0 {
		t.Fatalf("forwarding a record allocates %.2f per op, want 0", n)
	}
	// AllocsPerRun adds one warm-up run to the measured ones: 101 runs
	// after the first two forward 151 whole records.
	if want := bytes.Repeat(rec, 151); !bytes.Equal(fb.far, want) {
		t.Fatalf("far side got %d bytes, want %d", len(fb.far), len(want))
	}
}
