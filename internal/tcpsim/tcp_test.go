package tcpsim

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/ipaddr"
	"repro/internal/ipnet"
	"repro/internal/netsim"
	"repro/internal/simtime"
)

// env wires two hosts on one LAN with TCP stacks.
type env struct {
	clk    *simtime.Clock
	net    *netsim.Network
	seg    *netsim.Segment
	client *Stack
	server *Stack
}

func newEnv(cfg Config) *env {
	clk := simtime.NewClock()
	nw := netsim.NewNetwork(clk, 1)
	seg := nw.NewSegment("lan", time.Millisecond, 0)

	clientIP := ipnet.NewStack(clk, nw.NewHost("client"))
	clientIP.MustAddIface(seg, "192.168.1.10/24")
	serverIP := ipnet.NewStack(clk, nw.NewHost("server"))
	serverIP.MustAddIface(seg, "192.168.1.20/24")

	return &env{
		clk:    clk,
		net:    nw,
		seg:    seg,
		client: NewStack(clk, clientIP, cfg, 7),
		server: NewStack(clk, serverIP, cfg, 8),
	}
}

func (e *env) serverAddr() ipaddr.Addr { return ipaddr.MustParse("192.168.1.20") }

// connect establishes a connection and returns both halves.
func (e *env) connect(t *testing.T, port uint16) (client, server *Conn) {
	t.Helper()
	var srvConn *Conn
	if _, err := e.server.Listen(port, func(c *Conn) { srvConn = c }); err != nil {
		t.Fatal(err)
	}
	cli := e.client.Dial(Endpoint{Addr: e.serverAddr(), Port: port})
	established := false
	cli.OnEstablished = func() { established = true }
	e.clk.RunFor(time.Second)
	if !established {
		t.Fatal("handshake did not complete")
	}
	if srvConn == nil || srvConn.State() != StateEstablished {
		t.Fatal("server side not established")
	}
	return cli, srvConn
}

func TestHandshake(t *testing.T) {
	e := newEnv(Config{})
	cli, srv := e.connect(t, 443)
	if cli.State() != StateEstablished || srv.State() != StateEstablished {
		t.Fatalf("states: %v / %v", cli.State(), srv.State())
	}
}

func TestDataTransferBothDirections(t *testing.T) {
	e := newEnv(Config{})
	cli, srv := e.connect(t, 443)
	var fromCli, fromSrv bytes.Buffer
	srv.OnData = func(b []byte) { fromCli.Write(b) }
	cli.OnData = func(b []byte) { fromSrv.Write(b) }
	if err := cli.Send([]byte("hello server")); err != nil {
		t.Fatal(err)
	}
	if err := srv.Send([]byte("hello client")); err != nil {
		t.Fatal(err)
	}
	e.clk.RunFor(time.Second)
	if fromCli.String() != "hello server" || fromSrv.String() != "hello client" {
		t.Fatalf("got %q / %q", fromCli.String(), fromSrv.String())
	}
}

func TestLargeTransferSegmented(t *testing.T) {
	e := newEnv(Config{MSS: 100})
	cli, srv := e.connect(t, 443)
	var got bytes.Buffer
	srv.OnData = func(b []byte) { got.Write(b) }
	data := make([]byte, 10_000)
	for i := range data {
		data[i] = byte(i % 251)
	}
	if err := cli.Send(data); err != nil {
		t.Fatal(err)
	}
	e.clk.RunFor(5 * time.Second)
	if !bytes.Equal(got.Bytes(), data) {
		t.Fatalf("received %d bytes, want %d (content mismatch=%v)",
			got.Len(), len(data), !bytes.Equal(got.Bytes(), data))
	}
	if cli.Stats().Retransmits != 0 {
		t.Fatalf("lossless network should need no retransmits, got %d", cli.Stats().Retransmits)
	}
}

func TestGracefulClose(t *testing.T) {
	e := newEnv(Config{})
	cli, srv := e.connect(t, 443)
	var cliErr, srvErr error
	cliClosed, srvClosed := false, false
	cli.OnClose = func(err error) { cliClosed, cliErr = true, err }
	srv.OnClose = func(err error) { srvClosed, srvErr = true, err }
	cli.Close()
	e.clk.RunFor(time.Second)
	if !cliClosed || !srvClosed {
		t.Fatalf("closed: cli=%v srv=%v", cliClosed, srvClosed)
	}
	if cliErr != nil || srvErr != nil {
		t.Fatalf("graceful close errors: %v / %v", cliErr, srvErr)
	}
	if e.client.ConnCount() != 0 || e.server.ConnCount() != 0 {
		t.Fatalf("lingering conns: %d / %d", e.client.ConnCount(), e.server.ConnCount())
	}
}

func TestDataBeforeCloseDelivered(t *testing.T) {
	e := newEnv(Config{})
	cli, srv := e.connect(t, 443)
	var got bytes.Buffer
	srv.OnData = func(b []byte) { got.Write(b) }
	if err := cli.Send([]byte("last words")); err != nil {
		t.Fatal(err)
	}
	cli.Close()
	e.clk.RunFor(time.Second)
	if got.String() != "last words" {
		t.Fatalf("got %q", got.String())
	}
}

func TestSendAfterCloseFails(t *testing.T) {
	e := newEnv(Config{})
	cli, _ := e.connect(t, 443)
	cli.Close()
	if err := cli.Send([]byte("x")); err == nil {
		t.Fatal("Send after Close should fail")
	}
}

func TestAbortSendsRST(t *testing.T) {
	e := newEnv(Config{})
	cli, srv := e.connect(t, 443)
	var srvErr error
	srv.OnClose = func(err error) { srvErr = err }
	cli.Abort()
	e.clk.RunFor(time.Second)
	if srvErr != ErrReset {
		t.Fatalf("server close err = %v, want ErrReset", srvErr)
	}
}

func TestSynToClosedPortGetsRST(t *testing.T) {
	e := newEnv(Config{})
	cli := e.client.Dial(Endpoint{Addr: e.serverAddr(), Port: 9999})
	var err error
	closed := false
	cli.OnClose = func(e error) { closed, err = true, e }
	e.clk.RunFor(time.Second)
	if !closed || err != ErrReset {
		t.Fatalf("closed=%v err=%v, want reset", closed, err)
	}
}

func TestRetransmissionTimeoutAborts(t *testing.T) {
	// No listener and RSTs disabled: SYN goes unanswered until retries are
	// exhausted.
	e := newEnv(Config{RTOInitial: 100 * time.Millisecond, MaxRetries: 3})
	e.server.SendRST = false
	cli := e.client.Dial(Endpoint{Addr: e.serverAddr(), Port: 9999})
	var err error
	cli.OnClose = func(e error) { err = e }
	e.clk.RunFor(time.Minute)
	if err != ErrTimeout {
		t.Fatalf("close err = %v, want ErrTimeout", err)
	}
	// 1 initial + 3 retries.
	if got := cli.Stats().SegmentsSent; got != 4 {
		t.Fatalf("sent %d SYNs, want 4", got)
	}
}

func TestRetransmitBackoffDoubles(t *testing.T) {
	e := newEnv(Config{RTOInitial: 100 * time.Millisecond, MaxRetries: 10})
	e.server.SendRST = false
	e.client.Dial(Endpoint{Addr: e.serverAddr(), Port: 9999})
	// Observe retransmission times via a tap.
	var times []simtime.Time
	e.seg.AddTap(func(f netsim.Frame) {
		if f.Type == netsim.EtherTypeIPv4 {
			times = append(times, e.clk.Now())
		}
	})
	e.clk.RunFor(2 * time.Second)
	// Transmissions at ~0, 100ms, 300ms, 700ms, 1500ms (+1ms latency each).
	if len(times) < 4 {
		t.Fatalf("saw %d transmissions, want >= 4", len(times))
	}
	gap1 := times[2] - times[1]
	gap2 := times[3] - times[2]
	if gap2 < gap1*18/10 {
		t.Fatalf("backoff not doubling: gaps %v then %v", gap1, gap2)
	}
}

func TestDataRetransmittedAfterLoss(t *testing.T) {
	// Simulate loss by detaching the server NIC briefly.
	e := newEnv(Config{RTOInitial: 50 * time.Millisecond})
	cli, srv := e.connect(t, 443)
	var got bytes.Buffer
	srv.OnData = func(b []byte) { got.Write(b) }
	srvNIC := e.server.ip.Ifaces()[0].NIC()
	srvNIC.SetDown(true)
	if err := cli.Send([]byte("persistent")); err != nil {
		t.Fatal(err)
	}
	e.clk.RunFor(80 * time.Millisecond)
	srvNIC.SetDown(false)
	e.clk.RunFor(time.Second)
	if got.String() != "persistent" {
		t.Fatalf("got %q after recovery", got.String())
	}
	if cli.Stats().Retransmits == 0 {
		t.Fatal("expected at least one retransmission")
	}
}

func TestKeepAliveProbesIdleConnection(t *testing.T) {
	e := newEnv(Config{
		EnableKeepAlive:   true,
		KeepAliveIdle:     10 * time.Second,
		KeepAliveInterval: 2 * time.Second,
		KeepAliveProbes:   3,
	})
	cli, srv := e.connect(t, 443)
	_ = srv
	e.clk.RunFor(15 * time.Second)
	if cli.Stats().ProbesSent == 0 {
		t.Fatal("no keep-alive probes sent on idle connection")
	}
	if cli.State() != StateEstablished {
		t.Fatalf("answered probes should keep the connection up, state=%v", cli.State())
	}
}

func TestKeepAliveTimeoutAbortsWhenPeerGone(t *testing.T) {
	e := newEnv(Config{
		EnableKeepAlive:   true,
		KeepAliveIdle:     10 * time.Second,
		KeepAliveInterval: 2 * time.Second,
		KeepAliveProbes:   3,
		RTOInitial:        time.Hour, // keep RTO out of the picture
	})
	cli, _ := e.connect(t, 443)
	var err error
	cli.OnClose = func(e error) { err = e }
	e.server.ip.Ifaces()[0].NIC().SetDown(true)
	e.clk.RunFor(time.Minute)
	if err != ErrKeepAliveTimeout {
		t.Fatalf("close err = %v, want ErrKeepAliveTimeout", err)
	}
}

func TestKeepAliveSuppressedByActivity(t *testing.T) {
	e := newEnv(Config{
		EnableKeepAlive:   true,
		KeepAliveIdle:     10 * time.Second,
		KeepAliveInterval: 2 * time.Second,
		KeepAliveProbes:   3,
	})
	cli, srv := e.connect(t, 443)
	srv.OnData = func([]byte) {}
	// Send data every 5s — under the 10s idle threshold.
	tick := simtime.NewTicker(e.clk, 5*time.Second, func() { _ = cli.Send([]byte("ping")) })
	e.clk.RunFor(60 * time.Second)
	tick.Stop()
	if got := cli.Stats().ProbesSent; got != 0 {
		t.Fatalf("probes sent despite activity: %d", got)
	}
}

func TestOutOfOrderReassembly(t *testing.T) {
	// Deliver segments out of order by reordering at a custom relay; here we
	// cheat by injecting segments directly into the server's handler.
	e := newEnv(Config{})
	cli, srv := e.connect(t, 443)
	var got bytes.Buffer
	srv.OnData = func(b []byte) { got.Write(b) }
	// Build two in-sequence segments from the client but deliver swapped.
	base := cli.sndNxt
	seg1 := Segment{SrcPort: cli.local.Port, DstPort: 443, Seq: base, Ack: cli.rcvNxt, Flags: FlagACK, Payload: []byte("AAAA")}
	seg2 := Segment{SrcPort: cli.local.Port, DstPort: 443, Seq: base + 4, Ack: cli.rcvNxt, Flags: FlagACK, Payload: []byte("BBBB")}
	srvAddr := e.serverAddr()
	cliAddr := ipaddr.MustParse("192.168.1.10")
	e.server.HandlePacket(ipnet.Packet{Src: cliAddr, Dst: srvAddr, Proto: ipnet.ProtoTCP, Payload: seg2.Marshal()})
	e.server.HandlePacket(ipnet.Packet{Src: cliAddr, Dst: srvAddr, Proto: ipnet.ProtoTCP, Payload: seg1.Marshal()})
	e.clk.RunFor(time.Second)
	if got.String() != "AAAABBBB" {
		t.Fatalf("reassembled %q, want AAAABBBB", got.String())
	}
}

func TestDuplicateSegmentIgnored(t *testing.T) {
	e := newEnv(Config{})
	cli, srv := e.connect(t, 443)
	var got bytes.Buffer
	srv.OnData = func(b []byte) { got.Write(b) }
	base := cli.sndNxt
	seg := Segment{SrcPort: cli.local.Port, DstPort: 443, Seq: base, Ack: cli.rcvNxt, Flags: FlagACK, Payload: []byte("once")}
	srvAddr := e.serverAddr()
	cliAddr := ipaddr.MustParse("192.168.1.10")
	p := ipnet.Packet{Src: cliAddr, Dst: srvAddr, Proto: ipnet.ProtoTCP, Payload: seg.Marshal()}
	e.server.HandlePacket(p)
	e.server.HandlePacket(p)
	e.clk.RunFor(time.Second)
	if got.String() != "once" {
		t.Fatalf("got %q, duplicate delivered twice", got.String())
	}
}

func TestSimultaneousConnections(t *testing.T) {
	e := newEnv(Config{})
	conns := make(map[*Conn][]byte)
	if _, err := e.server.Listen(443, func(c *Conn) {
		c.OnData = func(b []byte) { conns[c] = append(conns[c], b...) }
	}); err != nil {
		t.Fatal(err)
	}
	var clis []*Conn
	for i := 0; i < 5; i++ {
		clis = append(clis, e.client.Dial(Endpoint{Addr: e.serverAddr(), Port: 443}))
	}
	e.clk.RunFor(time.Second)
	for i, c := range clis {
		if err := c.Send([]byte{byte('a' + i)}); err != nil {
			t.Fatal(err)
		}
	}
	e.clk.RunFor(time.Second)
	if len(conns) != 5 {
		t.Fatalf("server saw %d conns, want 5", len(conns))
	}
	seen := make(map[string]bool)
	for _, data := range conns {
		seen[string(data)] = true
	}
	for i := 0; i < 5; i++ {
		if !seen[string(byte('a'+i))] {
			t.Fatalf("missing data from conn %d", i)
		}
	}
}

func TestListenDuplicatePort(t *testing.T) {
	e := newEnv(Config{})
	if _, err := e.server.Listen(443, func(*Conn) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.server.Listen(443, func(*Conn) {}); err == nil {
		t.Fatal("duplicate listen should fail")
	}
}

func TestCloseListenerStopsAccepting(t *testing.T) {
	e := newEnv(Config{})
	l, err := e.server.Listen(443, func(*Conn) {})
	if err != nil {
		t.Fatal(err)
	}
	e.server.CloseListener(l)
	cli := e.client.Dial(Endpoint{Addr: e.serverAddr(), Port: 443})
	var cliErr error
	cli.OnClose = func(e error) { cliErr = e }
	e.clk.RunFor(time.Second)
	if cliErr != ErrReset {
		t.Fatalf("dial to closed listener: err=%v, want reset", cliErr)
	}
}

func TestOnCloseFiresExactlyOnce(t *testing.T) {
	e := newEnv(Config{})
	cli, srv := e.connect(t, 443)
	n := 0
	cli.OnClose = func(error) { n++ }
	cli.Close()
	srv.Close()
	e.clk.RunFor(time.Second)
	cli.Abort()
	if n != 1 {
		t.Fatalf("OnClose fired %d times", n)
	}
}

func TestSpoofedDial(t *testing.T) {
	// A third host dials the server claiming the client's address; replies
	// route to the real client's IP, so the spoofer must sit on-path. Here
	// we verify the spoofed source is what the server observes.
	e := newEnv(Config{})
	accepted := make(map[ipaddr.Addr]bool)
	if _, err := e.server.Listen(443, func(c *Conn) { accepted[c.Remote().Addr] = true }); err != nil {
		t.Fatal(err)
	}
	fake := ipaddr.MustParse("192.168.1.10") // the client's own address
	e.client.DialFrom(Endpoint{Addr: fake, Port: 50000}, Endpoint{Addr: e.serverAddr(), Port: 443})
	e.clk.RunFor(time.Second)
	if !accepted[fake] {
		t.Fatalf("server saw remotes %v, want %v", accepted, fake)
	}
}

func TestSegmentMarshalRoundTrip(t *testing.T) {
	f := func(srcPort, dstPort uint16, seq, ack uint32, flags uint8, payload []byte) bool {
		if len(payload) > 60000 {
			return true
		}
		s := Segment{
			SrcPort: srcPort, DstPort: dstPort,
			Seq: seq, Ack: ack,
			Flags:   Flags(flags),
			Payload: payload,
		}
		got, err := UnmarshalSegment(s.Marshal())
		if err != nil {
			return false
		}
		return got.SrcPort == s.SrcPort && got.DstPort == s.DstPort &&
			got.Seq == s.Seq && got.Ack == s.Ack && got.Flags == s.Flags &&
			bytes.Equal(got.Payload, s.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSeqComparisonWraparound(t *testing.T) {
	if !seqLT(0xffffff00, 0x10) {
		t.Fatal("wraparound compare failed: 0xffffff00 should be before 0x10")
	}
	if seqGT(0xffffff00, 0x10) {
		t.Fatal("wraparound greater-than failed")
	}
	if !seqLEQ(5, 5) {
		t.Fatal("seqLEQ equal failed")
	}
}

func TestFlagsString(t *testing.T) {
	if got := (FlagSYN | FlagACK).String(); got != "SA" {
		t.Fatalf("flags string = %q, want SA", got)
	}
	if got := Flags(0).String(); got != "-" {
		t.Fatalf("empty flags = %q", got)
	}
}

// Property: any payload stream sent over a lossless link arrives intact and
// in order regardless of chunking.
func TestPropertyStreamIntegrity(t *testing.T) {
	f := func(chunks [][]byte) bool {
		e := newEnv(Config{MSS: 64})
		var srv *Conn
		if _, err := e.server.Listen(443, func(c *Conn) { srv = c }); err != nil {
			return false
		}
		cli := e.client.Dial(Endpoint{Addr: e.serverAddr(), Port: 443})
		e.clk.RunFor(time.Second)
		if srv == nil || cli.State() != StateEstablished {
			return false
		}
		var want, got bytes.Buffer
		srv.OnData = func(b []byte) { got.Write(b) }
		for _, ch := range chunks {
			if len(ch) > 500 {
				ch = ch[:500]
			}
			want.Write(ch)
			if err := cli.Send(ch); err != nil {
				return false
			}
		}
		e.clk.RunFor(time.Minute)
		return bytes.Equal(want.Bytes(), got.Bytes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSRTTTracksNetworkLatency(t *testing.T) {
	e := newEnv(Config{})
	cli, srv := e.connect(t, 443)
	srv.OnData = func([]byte) {}
	for i := 0; i < 20; i++ {
		if err := cli.Send([]byte("sample")); err != nil {
			t.Fatal(err)
		}
		e.clk.RunFor(time.Second)
	}
	srtt, n := cli.SRTT()
	if n < 20 {
		t.Fatalf("samples = %d, want >= 20", n)
	}
	// One LAN hop each way at 1ms.
	if srtt < time.Millisecond || srtt > 4*time.Millisecond {
		t.Fatalf("srtt = %v, want about 2ms", srtt)
	}
}

func TestSRTTIgnoresRetransmittedSegments(t *testing.T) {
	// Karn's rule: a segment that was retransmitted contributes no sample,
	// so a long outage cannot poison the estimate.
	e := newEnv(Config{RTOInitial: 50 * time.Millisecond})
	cli, srv := e.connect(t, 443)
	srv.OnData = func([]byte) {}
	for i := 0; i < 5; i++ {
		_ = cli.Send([]byte("x"))
		e.clk.RunFor(time.Second)
	}
	before, nBefore := cli.SRTT()
	srvNIC := e.server.ip.Ifaces()[0].NIC()
	srvNIC.SetDown(true)
	_ = cli.Send([]byte("lost"))
	e.clk.RunFor(200 * time.Millisecond)
	srvNIC.SetDown(false)
	e.clk.RunFor(2 * time.Second)
	after, nAfter := cli.SRTT()
	if nAfter != nBefore {
		t.Fatalf("retransmitted segment produced a sample: %d -> %d", nBefore, nAfter)
	}
	if after != before {
		t.Fatalf("srtt changed across a retransmission: %v -> %v", before, after)
	}
}

func TestStreamSurvivesLossyLink(t *testing.T) {
	// Failure injection: 20% frame loss; retransmission must still deliver
	// the stream intact and in order.
	e := newEnv(Config{RTOInitial: 100 * time.Millisecond, MaxRetries: 10, MSS: 200})
	e.seg.SetLossRate(0)
	cli, srv := e.connect(t, 443)
	var got bytes.Buffer
	srv.OnData = func(b []byte) { got.Write(b) }
	e.seg.SetLossRate(0.2)
	data := make([]byte, 5000)
	for i := range data {
		data[i] = byte(i % 251)
	}
	if err := cli.Send(data); err != nil {
		t.Fatal(err)
	}
	e.clk.RunFor(5 * time.Minute)
	e.seg.SetLossRate(0)
	if !bytes.Equal(got.Bytes(), data) {
		t.Fatalf("received %d/%d bytes intact=%v", got.Len(), len(data), bytes.Equal(got.Bytes(), data))
	}
	if cli.Stats().Retransmits == 0 {
		t.Fatal("a 20%-loss link should force retransmissions")
	}
}

// The per-frame send path allocates nothing after warm-up: the chunk comes
// from the stack's pool, the retransmission queue keeps its capacity as
// ACKed entries retire, and the frame buffers below recycle.
func TestSendUntilAckedAllocFree(t *testing.T) {
	e := newEnv(Config{})
	cli, srv := e.connect(t, 443)
	received := 0
	srv.OnData = func(b []byte) { received += len(b) }
	payload := make([]byte, 100)
	const runs = 100
	n := testing.AllocsPerRun(runs, func() {
		if err := cli.Send(payload); err != nil {
			t.Fatal(err)
		}
		e.clk.RunFor(10 * time.Millisecond) // one 2 ms round trip, with room
		if len(cli.rtxq) != 0 {
			t.Fatalf("%d segments still unacknowledged", len(cli.rtxq))
		}
	})
	if n != 0 {
		t.Fatalf("send-until-ACKed allocates %.2f per op, want 0", n)
	}
	// AllocsPerRun adds one warm-up run to the measured ones.
	if want := (runs + 1) * len(payload); received != want {
		t.Fatalf("server received %d bytes, want %d", received, want)
	}
}
