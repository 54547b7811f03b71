package sniff_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/ipaddr"
	"repro/internal/ipnet"
	"repro/internal/netsim"
	"repro/internal/simtime"
	"repro/internal/sniff"
	"repro/internal/tcpsim"
)

// TestFlowsOrderDeterministic is the regression test for the unsorted
// map-range in Capture.Flows surfaced by the maporder analyzer: the flow
// table is a map, so before the sort the listing changed order from call
// to call (and run to run). Flows feeds fingerprinting and target
// selection, so its byte layout must be a pure function of the capture.
func TestFlowsOrderDeterministic(t *testing.T) {
	clk := simtime.NewClock()
	cap := sniff.NewCapture(clk, 0)

	// Enough flows that a map-ordered listing is overwhelmingly unlikely
	// to match the sorted order by chance (1/64! per call).
	server := tcpsim.Endpoint{Addr: ipaddr.MustParse("100.64.10.10"), Port: 443}
	for i := 0; i < 64; i++ {
		client := tcpsim.Endpoint{
			Addr: ipaddr.MustParse(fmt.Sprintf("192.168.1.%d", 10+i)),
			Port: uint16(50000 + i),
		}
		seg := tcpsim.Segment{Seq: 100, Flags: tcpsim.FlagSYN, SrcPort: client.Port, DstPort: server.Port}
		p := ipnet.Packet{Src: client.Addr, Dst: server.Addr, Proto: ipnet.ProtoTCP, Payload: seg.Marshal()}
		cap.HandleFrame(netsim.Frame{Type: netsim.EtherTypeIPv4, Payload: p.Marshal()})
	}

	first := cap.Flows()
	if len(first) != 64 {
		t.Fatalf("Flows() = %d flows, want 64", len(first))
	}
	if !sort.SliceIsSorted(first, func(i, j int) bool {
		a, b := first[i].Client, first[j].Client
		if a.Addr != b.Addr {
			return a.Addr < b.Addr
		}
		return a.Port < b.Port
	}) {
		t.Fatalf("Flows() not sorted by client endpoint: %v", first)
	}
	// Repeated calls over the same map must produce identical bytes.
	for call := 0; call < 5; call++ {
		if got := cap.Flows(); !reflect.DeepEqual(got, first) {
			t.Fatalf("Flows() call %d differs from first call:\n got %v\nwant %v", call+2, got, first)
		}
	}
}
