package sniff_test

import (
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/ipaddr"
	"repro/internal/ipnet"
	"repro/internal/netsim"
	"repro/internal/simtime"
	"repro/internal/sniff"
	"repro/internal/tcpsim"
	"repro/internal/tlssim"
)

// buildHome deploys devices and attaches a capture to the WiFi segment.
func buildHome(t *testing.T, labels ...string) (*experiment.Testbed, *sniff.Capture) {
	t.Helper()
	tb, err := experiment.NewTestbed(experiment.TestbedConfig{Seed: 11, Devices: labels})
	if err != nil {
		t.Fatal(err)
	}
	cap := tb.NewCapture(0)
	tb.Start()
	return tb, cap
}

func TestCaptureSeesHandshakeAndRecords(t *testing.T) {
	tb, cap := buildHome(t, "P2")
	if err := tb.Device("P2").TriggerEvent("switch", "on"); err != nil {
		t.Fatal(err)
	}
	tb.Clock.RunFor(2 * time.Second)
	recs := cap.Records()
	if len(recs) == 0 {
		t.Fatal("no records captured")
	}
	var hs, app int
	for _, r := range recs {
		switch r.Type {
		case tlssim.RecordHandshake:
			hs++
		case tlssim.RecordApplication:
			app++
		}
	}
	if hs < 2 {
		t.Fatalf("handshake records = %d, want >= 2", hs)
	}
	if app == 0 {
		t.Fatal("no application records")
	}
}

func TestEventRecordHasProfileWireLength(t *testing.T) {
	tb, cap := buildHome(t, "P2")
	before := len(cap.Records())
	if err := tb.Device("P2").TriggerEvent("switch", "on"); err != nil {
		t.Fatal(err)
	}
	tb.Clock.RunFor(time.Second)
	want := tb.Profile("P2").EventLen + tlssim.Overhead
	found := false
	for _, r := range cap.Records()[before:] {
		if r.Dir == sniff.DirClientToServer && r.WireLen == want {
			found = true
		}
	}
	if !found {
		t.Fatalf("no c2s record of wire length %d after event", want)
	}
}

func TestClassifierRecognisesEventAndKeepAlive(t *testing.T) {
	tb, cap := buildHome(t, "C2") // Ring contact via H3
	// Let keep-alives flow, then trigger an event.
	tb.Clock.RunFor(2 * time.Minute)
	if err := tb.Device("C2").TriggerEvent("contact", "open"); err != nil {
		t.Fatal(err)
	}
	tb.Clock.RunFor(2 * time.Second)

	cl := sniff.NewClassifier(sniff.BuildCatalogSignatures())
	kinds := make(map[sniff.MsgKind]int)
	origins := make(map[string]int)
	for _, r := range cap.Records() {
		if r.Type != tlssim.RecordApplication {
			continue
		}
		if m, ok := cl.Classify("H3", r); ok {
			kinds[m.Kind]++
			origins[m.Origin]++
		}
	}
	if kinds[sniff.KindKeepAlive] == 0 {
		t.Fatal("no keep-alives classified")
	}
	if origins["C2"] == 0 {
		t.Fatal("C2 event not classified")
	}
}

func TestIdentifyFlowPicksRightModel(t *testing.T) {
	tb, cap := buildHome(t, "C2", "P2")
	tb.Clock.RunFor(3 * time.Minute)
	// Events disambiguate models that share keep-alive signatures (e.g.
	// TP-Link's plug and bulb ride the same cloud protocol).
	if err := tb.Device("C2").TriggerEvent("contact", "open"); err != nil {
		t.Fatal(err)
	}
	if err := tb.Device("P2").TriggerEvent("switch", "on"); err != nil {
		t.Fatal(err)
	}
	tb.Clock.RunFor(2 * time.Second)

	cl := sniff.NewClassifier(sniff.BuildCatalogSignatures())
	// Find the flow from the Ring hub's address.
	ringAddr := tb.DeviceAddrs["H3"]
	kasaAddr := tb.DeviceAddrs["P2"]
	identified := make(map[string]string)
	for _, flow := range cap.Flows() {
		model, score, ok := cl.IdentifyFlow(cap.FlowRecords(flow))
		if !ok || score < 0.5 {
			continue
		}
		identified[flow.Client.Addr.String()] = model
	}
	if identified[ringAddr.String()] != "H3" {
		t.Fatalf("ring flow identified as %q, want H3 (map %v)", identified[ringAddr.String()], identified)
	}
	if identified[kasaAddr.String()] != "P2" {
		t.Fatalf("kasa flow identified as %q, want P2", identified[kasaAddr.String()])
	}
}

func TestHAPFlowCaptured(t *testing.T) {
	tb, cap := buildHome(t, "A1")
	if err := tb.Device("A1").TriggerEvent("contact", "open"); err != nil {
		t.Fatal(err)
	}
	tb.Clock.RunFor(time.Second)
	want := tb.Profile("A1").EventLen + tlssim.Overhead
	found := false
	for _, r := range cap.Records() {
		if r.WireLen == want && r.Dir == sniff.DirClientToServer {
			found = true
		}
	}
	if !found {
		t.Fatalf("HAP event record of %d bytes not captured", want)
	}
}

func TestPlainLen(t *testing.T) {
	r := sniff.RecordMeta{Type: tlssim.RecordApplication, WireLen: 1007}
	if r.PlainLen() != 1007-tlssim.Overhead {
		t.Fatalf("PlainLen = %d", r.PlainLen())
	}
	h := sniff.RecordMeta{Type: tlssim.RecordHandshake, WireLen: 53}
	if h.PlainLen() != 48 {
		t.Fatalf("handshake PlainLen = %d", h.PlainLen())
	}
}

func TestSignatureCollisionsAreRare(t *testing.T) {
	// Within one model's signature, wire lengths must be unambiguous per
	// direction — otherwise the attacker could not classify messages.
	for _, sig := range sniff.BuildCatalogSignatures() {
		seen := make(map[[2]int]string)
		for _, m := range sig.Messages {
			key := [2]int{int(m.Dir), m.WireLen}
			if prev, dup := seen[key]; dup {
				t.Errorf("model %s: ambiguous wire length %d (%s vs %s)",
					sig.Owner, m.WireLen, prev, m.Origin)
			}
			seen[key] = m.Origin
		}
	}
}

func TestCaptureReassemblesOutOfOrderSegments(t *testing.T) {
	// Feed the capture crafted frames with segments out of order; the
	// record must still be extracted once the gap fills.
	clk := simtime.NewClock()
	cap := sniff.NewCapture(clk, 0)

	src := tcpsim.Endpoint{Addr: ipaddr.MustParse("192.168.1.10"), Port: 50000}
	dst := tcpsim.Endpoint{Addr: ipaddr.MustParse("100.64.10.10"), Port: 443}
	frame := func(seg tcpsim.Segment, from, to tcpsim.Endpoint) netsim.Frame {
		seg.SrcPort, seg.DstPort = from.Port, to.Port
		p := ipnet.Packet{Src: from.Addr, Dst: to.Addr, Proto: ipnet.ProtoTCP, Payload: seg.Marshal()}
		return netsim.Frame{Type: netsim.EtherTypeIPv4, Payload: p.Marshal()}
	}

	// SYN / SYN-ACK orient the flow.
	cap.HandleFrame(frame(tcpsim.Segment{Seq: 100, Flags: tcpsim.FlagSYN}, src, dst))
	cap.HandleFrame(frame(tcpsim.Segment{Seq: 500, Ack: 101, Flags: tcpsim.FlagSYN | tcpsim.FlagACK}, dst, src))

	// One 40-byte application record split into two segments, delivered in
	// reverse order.
	rec := make([]byte, 5+40)
	rec[0] = byte(tlssim.RecordApplication)
	rec[1], rec[2] = 3, 3
	rec[4] = 40
	first, second := rec[:20], rec[20:]
	cap.HandleFrame(frame(tcpsim.Segment{Seq: 101 + 20, Flags: tcpsim.FlagACK, Payload: second}, src, dst))
	if len(cap.Records()) != 0 {
		t.Fatal("record extracted before the gap filled")
	}
	cap.HandleFrame(frame(tcpsim.Segment{Seq: 101, Flags: tcpsim.FlagACK, Payload: first}, src, dst))
	recs := cap.Records()
	if len(recs) != 1 || recs[0].WireLen != 45 || recs[0].Dir != sniff.DirClientToServer {
		t.Fatalf("records = %+v", recs)
	}

	// Retransmission of already-seen bytes must not duplicate the record.
	cap.HandleFrame(frame(tcpsim.Segment{Seq: 101, Flags: tcpsim.FlagACK, Payload: first}, src, dst))
	if len(cap.Records()) != 1 {
		t.Fatal("retransmission duplicated a record")
	}

	// StreamSeq reflects the reassembled position.
	flow := sniff.FlowKey{Client: src, Server: dst}
	seq, ok := cap.StreamSeq(flow, sniff.DirClientToServer)
	if !ok || seq != 101+45 {
		t.Fatalf("StreamSeq = %d,%v want %d", seq, ok, 101+45)
	}

	// RST forgets the flow.
	cap.HandleFrame(frame(tcpsim.Segment{Seq: 600, Flags: tcpsim.FlagRST}, dst, src))
	if _, ok := cap.StreamSeq(flow, sniff.DirClientToServer); ok {
		t.Fatal("flow should be forgotten after RST")
	}
}

func TestCaptureIgnoresGarbage(t *testing.T) {
	clk := simtime.NewClock()
	cap := sniff.NewCapture(clk, 0)
	cap.HandleFrame(netsim.Frame{Type: netsim.EtherTypeARP, Payload: []byte{1, 2, 3}})
	cap.HandleFrame(netsim.Frame{Type: netsim.EtherTypeIPv4, Payload: []byte{9}})
	p := ipnet.Packet{Src: 1, Dst: 2, Proto: ipnet.Protocol(99), Payload: []byte("x")}
	cap.HandleFrame(netsim.Frame{Type: netsim.EtherTypeIPv4, Payload: p.Marshal()})
	if len(cap.Records()) != 0 || len(cap.Flows()) != 0 {
		t.Fatal("garbage produced state")
	}
}
