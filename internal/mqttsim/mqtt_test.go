package mqttsim

import (
	"testing"
	"time"

	"repro/internal/ipaddr"
	"repro/internal/ipnet"
	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/simtime"
	"repro/internal/tcpsim"
	"repro/internal/tlssim"
)

// env wires a device-side client and a broker over a simulated LAN.
type env struct {
	clk     *simtime.Clock
	broker  *Broker
	cliTCP  *tcpsim.Stack
	rng     *simtime.Rand
	srvAddr tcpsim.Endpoint
}

func newEnv() *env {
	clk := simtime.NewClock()
	nw := netsim.NewNetwork(clk, 1)
	seg := nw.NewSegment("lan", time.Millisecond, 0)

	devIP := ipnet.NewStack(clk, nw.NewHost("device"))
	devIP.MustAddIface(seg, "192.168.1.10/24")
	srvIP := ipnet.NewStack(clk, nw.NewHost("broker"))
	srvIP.MustAddIface(seg, "192.168.1.20/24")

	devTCP := tcpsim.NewStack(clk, devIP, tcpsim.Config{}, 7)
	srvTCP := tcpsim.NewStack(clk, srvIP, tcpsim.Config{}, 8)

	rng := simtime.NewRand(99)
	broker := NewBroker(clk)
	if _, err := srvTCP.Listen(8883, func(c *tcpsim.Conn) {
		broker.Accept(tlssim.Server(c, rng))
	}); err != nil {
		panic(err)
	}
	return &env{
		clk:     clk,
		broker:  broker,
		cliTCP:  devTCP,
		rng:     rng,
		srvAddr: tcpsim.Endpoint{Addr: ipaddr.MustParse("192.168.1.20"), Port: 8883},
	}
}

func (e *env) dial(cfg ClientConfig) *Client {
	tcp := e.cliTCP.Dial(e.srvAddr)
	return NewClient(e.clk, tlssim.Client(tcp, e.rng), cfg)
}

func defaultCfg() ClientConfig {
	return ClientConfig{
		ClientID:    "dev-1",
		KeepAlive:   31 * time.Second,
		Pattern:     proto.PatternOnIdle,
		PingTimeout: 16 * time.Second,
	}
}

func TestConnectHandshake(t *testing.T) {
	e := newEnv()
	connected := false
	cli := e.dial(defaultCfg())
	cli.OnConnected = func() { connected = true }
	e.clk.RunFor(time.Second)
	if !connected || !cli.Connected() {
		t.Fatal("client never connected")
	}
	if _, ok := e.broker.ActiveSession("dev-1"); !ok {
		t.Fatal("broker has no active session")
	}
}

func TestPublishReachesBroker(t *testing.T) {
	e := newEnv()
	var got []Packet
	e.broker.OnPublish = func(_ *Session, p Packet) { got = append(got, p) }
	cli := e.dial(defaultCfg())
	e.clk.RunFor(time.Second)
	if _, err := cli.Publish("contact/state", []byte("open"), 256, false); err != nil {
		t.Fatal(err)
	}
	e.clk.RunFor(time.Second)
	if len(got) != 1 || string(got[0].Payload) != "open" || got[0].Topic != "contact/state" {
		t.Fatalf("broker got %v", got)
	}
}

func TestPublishTimestampIsGenerationTime(t *testing.T) {
	e := newEnv()
	var ts simtime.Time
	e.broker.OnPublish = func(_ *Session, p Packet) { ts = p.Timestamp }
	cli := e.dial(defaultCfg())
	e.clk.RunFor(time.Second)
	e.clk.RunUntil(10 * time.Second)
	if _, err := cli.Publish("t", []byte("x"), 0, false); err != nil {
		t.Fatal(err)
	}
	e.clk.RunFor(time.Second)
	if ts != 10*time.Second {
		t.Fatalf("timestamp = %v, want 10s", ts)
	}
}

func TestPublishWithAck(t *testing.T) {
	e := newEnv()
	cli := e.dial(defaultCfg())
	e.clk.RunFor(time.Second)
	// Watch the PUBACKs arriving at the client.
	acked := uint16(0)
	origOnMessage := cli.sess.OnMessage
	cli.sess.OnMessage = func(b []byte) {
		if pkt, err := Unmarshal(b); err == nil && pkt.Type == PacketPubAck {
			acked = pkt.ID
		}
		origOnMessage(b)
	}
	id, err := cli.Publish("t", []byte("x"), 0, true)
	if err != nil {
		t.Fatal(err)
	}
	e.clk.RunFor(time.Second)
	if acked != id || id == 0 {
		t.Fatalf("acked=%d want %d", acked, id)
	}
}

func TestKeepAlivePingsOnIdle(t *testing.T) {
	e := newEnv()
	cli := e.dial(defaultCfg())
	closed := false
	cli.OnClosed = func(proto.CloseReason) { closed = true }
	e.clk.RunFor(5 * time.Minute)
	if closed {
		t.Fatal("idle session with answered pings should stay up")
	}
}

func TestOnIdlePatternResetsOnPublish(t *testing.T) {
	// With the on-idle pattern, publishing every 20s (< 31s keep-alive)
	// suppresses pings entirely.
	e := newEnv()
	pings := 0
	e.broker.OnPublish = func(*Session, Packet) {}
	cli := e.dial(defaultCfg())
	e.clk.RunFor(time.Second)
	// Count the PINGRESPs the client sees.
	origOnMessage := cli.sess.OnMessage
	cli.sess.OnMessage = func(b []byte) {
		if pkt, err := Unmarshal(b); err == nil && pkt.Type == PacketPingResp {
			pings++
		}
		origOnMessage(b)
	}
	tick := simtime.NewTicker(e.clk, 20*time.Second, func() {
		_, _ = cli.Publish("t", []byte("x"), 0, false)
	})
	e.clk.RunFor(3 * time.Minute)
	tick.Stop()
	if pings != 0 {
		t.Fatalf("on-idle pattern sent %d pings despite activity", pings)
	}
}

func TestFixedPatternPingsDespiteActivity(t *testing.T) {
	e := newEnv()
	cfg := defaultCfg()
	cfg.Pattern = proto.PatternFixed
	cfg.KeepAlive = 30 * time.Second
	pings := 0
	cli := e.dial(cfg)
	e.clk.RunFor(time.Second)
	origOnMessage := cli.sess.OnMessage
	cli.sess.OnMessage = func(b []byte) {
		if pkt, err := Unmarshal(b); err == nil && pkt.Type == PacketPingResp {
			pings++
		}
		origOnMessage(b)
	}
	tick := simtime.NewTicker(e.clk, 10*time.Second, func() {
		_, _ = cli.Publish("t", []byte("x"), 0, false)
	})
	e.clk.RunFor(3 * time.Minute)
	tick.Stop()
	if pings < 4 {
		t.Fatalf("fixed pattern sent only %d pings in 3min, want >= 4", pings)
	}
}

func TestPingTimeoutClosesSession(t *testing.T) {
	// Kill the broker-side NIC so pings go unanswered: the client must end
	// the session PingTimeout after the unanswered ping.
	e := newEnv()
	cli := e.dial(defaultCfg())
	var reason proto.CloseReason
	var closedAt simtime.Time
	cli.OnClosed = func(r proto.CloseReason) { reason, closedAt = r, e.clk.Now() }
	e.clk.RunFor(time.Second)
	// Rather than severing the link (which would trip the TCP RTO through
	// unacked segments), make the broker deaf at the MQTT layer just before
	// the first ping (due ~31s after CONNECT): pings then go unanswered
	// while TCP stays perfectly healthy.
	e.clk.At(20*time.Second, func() {
		s, _ := e.broker.ActiveSession("dev-1")
		s.sess.OnMessage = func([]byte) {} // broker goes deaf at MQTT layer
	})
	e.clk.RunFor(5 * time.Minute)
	if reason != proto.ReasonKeepAliveTimeout {
		t.Fatalf("close reason = %v, want keepalive-timeout", reason)
	}
	// First ping at ~32s (CONNECT+31s), deadline 16s later: ~48s.
	want := 48 * time.Second
	if closedAt < want-2*time.Second || closedAt > want+2*time.Second {
		t.Fatalf("closed at %v, want about %v", closedAt, want)
	}
}

func TestAckTimeoutClosesSession(t *testing.T) {
	e := newEnv()
	cfg := defaultCfg()
	cfg.AckTimeout = 5 * time.Second
	cli := e.dial(cfg)
	var reason proto.CloseReason
	cli.OnClosed = func(r proto.CloseReason) { reason = r }
	e.clk.RunFor(time.Second)
	// Broker goes deaf: PUBLISH will never be acked.
	s, _ := e.broker.ActiveSession("dev-1")
	s.sess.OnMessage = func([]byte) {}
	if _, err := cli.Publish("t", []byte("x"), 0, true); err != nil {
		t.Fatal(err)
	}
	e.clk.RunFor(time.Minute)
	if reason != proto.ReasonAckTimeout {
		t.Fatalf("close reason = %v, want ack-timeout", reason)
	}
}

func TestPubAckStopsAckTimeout(t *testing.T) {
	e := newEnv()
	cfg := defaultCfg()
	cfg.AckTimeout = 5 * time.Second
	cli := e.dial(cfg)
	closed := false
	cli.OnClosed = func(proto.CloseReason) { closed = true }
	e.clk.RunFor(time.Second)
	if _, err := cli.Publish("t", []byte("x"), 0, true); err != nil {
		t.Fatal(err)
	}
	e.clk.RunFor(time.Minute)
	if closed {
		t.Fatal("an acknowledged PUBLISH timed out and closed the session")
	}
}

func TestNoAckTimeoutWhenZero(t *testing.T) {
	e := newEnv()
	cli := e.dial(defaultCfg()) // AckTimeout zero: ∞ per Table I
	closed := false
	cli.OnClosed = func(proto.CloseReason) { closed = true }
	e.clk.RunFor(time.Second)
	s, _ := e.broker.ActiveSession("dev-1")
	deaf := true
	orig := s.sess.OnMessage
	s.sess.OnMessage = func(b []byte) {
		if pkt, err := Unmarshal(b); err == nil && pkt.Type == PacketPublish && deaf {
			return // swallow only the PUBLISH, keep answering pings
		}
		orig(b)
	}
	if _, err := cli.Publish("t", []byte("x"), 0, true); err != nil {
		t.Fatal(err)
	}
	e.clk.RunFor(5 * time.Minute)
	if closed {
		t.Fatal("session closed despite no normal-message timeout")
	}
}

func TestBrokerCommandDelivered(t *testing.T) {
	e := newEnv()
	cli := e.dial(defaultCfg())
	var gotCmd Packet
	cli.OnCommand = func(p Packet) { gotCmd = p }
	e.clk.RunFor(time.Second)
	var res proto.CommandResult
	err := e.broker.Publish("dev-1", "lock/set", []byte("lock"), 128, 21*time.Second, func(r proto.CommandResult) { res = r })
	if err != nil {
		t.Fatal(err)
	}
	e.clk.RunFor(time.Second)
	if string(gotCmd.Payload) != "lock" {
		t.Fatalf("device got %v", gotCmd)
	}
	if !res.Acked {
		t.Fatal("command not acked")
	}
}

func TestBrokerCommandTimeoutClosesSession(t *testing.T) {
	e := newEnv()
	cli := e.dial(defaultCfg())
	cli.OnCommand = func(Packet) {}
	e.clk.RunFor(time.Second)
	// Device goes deaf so the PUBACK never comes.
	cli.sess.OnMessage = func([]byte) {}
	var res proto.CommandResult
	gotRes := false
	err := e.broker.Publish("dev-1", "lock/set", []byte("lock"), 0, 21*time.Second, func(r proto.CommandResult) { res, gotRes = r, true })
	if err != nil {
		t.Fatal(err)
	}
	e.clk.RunFor(time.Minute)
	if !gotRes || res.Acked {
		t.Fatalf("res=%v gotRes=%v, want unacked result", res, gotRes)
	}
	if res.Duration < 21*time.Second {
		t.Fatalf("timeout after %v, want >= 21s", res.Duration)
	}
	if len(e.broker.Alarms()) == 0 {
		t.Fatal("command timeout should raise an alarm")
	}
}

func TestCommandToUnknownClientFails(t *testing.T) {
	e := newEnv()
	if err := e.broker.Publish("ghost", "t", nil, 0, 0, nil); err == nil {
		t.Fatal("command to unknown client should fail")
	}
}

func TestPassiveBrokerRaisesNoAlarmOnSilence(t *testing.T) {
	// Finding 3: like production servers, the broker never probes, so a
	// silent client looks idle forever.
	e := newEnv()
	cli := e.dial(defaultCfg())
	e.clk.RunFor(time.Second)
	// Client stops all traffic including pings (simulate by stopping timer).
	cli.pingTimer.Stop()
	e.clk.RunFor(30 * time.Minute)
	if n := len(e.broker.Alarms()); n != 0 {
		t.Fatalf("passive broker raised %d alarms", n)
	}
}

func TestReconnectSupersedesWithoutAlarm(t *testing.T) {
	// Finding 2: a new connection supersedes the old one, which lingers
	// half-open; no alarm is raised at any point.
	e := newEnv()
	e.dial(defaultCfg())
	e.clk.RunFor(time.Second)
	first, _ := e.broker.ActiveSession("dev-1")
	// Same device reconnects (e.g. after a device-side timeout the server
	// never saw).
	e.dial(defaultCfg())
	e.clk.RunFor(time.Second)
	second, _ := e.broker.ActiveSession("dev-1")
	if first == second {
		t.Fatal("second session should supersede")
	}
	if e.broker.HalfOpenCount("dev-1") != 1 {
		t.Fatalf("half-open count = %d, want 1", e.broker.HalfOpenCount("dev-1"))
	}
	if len(e.broker.Alarms()) != 0 {
		t.Fatalf("alarms = %v, want none", e.broker.Alarms())
	}
	// The stale half-open session eventually dies; still no alarm because a
	// live replacement exists.
	first.sess.Close()
	e.clk.RunFor(time.Second)
	if e.broker.HalfOpenCount("dev-1") != 0 {
		t.Fatal("half-open session not reaped")
	}
	if len(e.broker.Alarms()) != 0 {
		t.Fatalf("alarms after half-open close = %v, want none", e.broker.Alarms())
	}
}

func TestAbruptLossWithoutReplacementAlarms(t *testing.T) {
	e := newEnv()
	cli := e.dial(defaultCfg())
	e.clk.RunFor(time.Second)
	cli.sess.TCP().Abort() // crash, RST reaches broker
	e.clk.RunFor(time.Second)
	alarms := e.broker.Alarms()
	if len(alarms) != 1 || alarms[0].Kind != "device-offline" {
		t.Fatalf("alarms = %v, want one device-offline", alarms)
	}
}

func TestGracefulDisconnectNoAlarm(t *testing.T) {
	e := newEnv()
	cli := e.dial(defaultCfg())
	e.clk.RunFor(time.Second)
	cli.Disconnect()
	e.clk.RunFor(time.Second)
	if len(e.broker.Alarms()) != 0 {
		t.Fatalf("alarms = %v, want none for clean disconnect", e.broker.Alarms())
	}
	if _, ok := e.broker.ActiveSession("dev-1"); ok {
		t.Fatal("session should be gone after disconnect")
	}
}

func TestPacketRoundTrip(t *testing.T) {
	tests := []Packet{
		{Type: PacketConnect, ClientID: "dev", KeepAlive: 31 * time.Second},
		{Type: PacketConnAck},
		{Type: PacketSubscribe, Topic: "a/b"},
		{Type: PacketPublish, Topic: "x", ID: 7, Payload: []byte("data"), Timestamp: 5 * time.Second},
		{Type: PacketPubAck, ID: 7},
		{Type: PacketPingReq},
		{Type: PacketPingResp},
		{Type: PacketDisconnect},
	}
	for _, want := range tests {
		got, err := Unmarshal(want.AppendTo(nil, 0))
		if err != nil {
			t.Fatalf("%v: %v", want.Type, err)
		}
		if got.Type != want.Type || got.ClientID != want.ClientID ||
			got.KeepAlive != want.KeepAlive || got.Topic != want.Topic ||
			got.ID != want.ID || string(got.Payload) != string(want.Payload) ||
			got.Timestamp != want.Timestamp {
			t.Fatalf("round trip %+v -> %+v", want, got)
		}
	}
}

func TestPacketPadding(t *testing.T) {
	p := Packet{Type: PacketPingReq}
	b := p.AppendTo(nil, 48)
	if len(b) != 48 {
		t.Fatalf("padded len = %d, want 48", len(b))
	}
	got, err := Unmarshal(b)
	if err != nil || got.Type != PacketPingReq {
		t.Fatalf("padded packet decode: %v %v", got, err)
	}
}

func TestUnmarshalGarbage(t *testing.T) {
	if _, err := Unmarshal([]byte{0xff, 0x01}); err == nil {
		t.Fatal("garbage should fail to decode")
	}
	if _, err := Unmarshal(nil); err == nil {
		t.Fatal("empty should fail to decode")
	}
}

// TestDecodedPacketOutlivesNextRecord: the session reuses its receive
// buffer for the next record, so a decoded packet must own its topic and
// payload. Two same-shaped publishes put the second one's bytes exactly
// where the first one's were.
func TestDecodedPacketOutlivesNextRecord(t *testing.T) {
	e := newEnv()
	var got []Packet
	e.broker.OnPublish = func(_ *Session, p Packet) { got = append(got, p) }
	cli := e.dial(defaultCfg())
	e.clk.RunFor(time.Second)
	if _, err := cli.Publish("door/first", []byte("open"), 128, false); err != nil {
		t.Fatal(err)
	}
	e.clk.RunFor(time.Second)
	if _, err := cli.Publish("lamp/other", []byte("shut"), 128, false); err != nil {
		t.Fatal(err)
	}
	e.clk.RunFor(time.Second)
	if len(got) != 2 || got[0].Topic != "door/first" || string(got[0].Payload) != "open" ||
		got[1].Topic != "lamp/other" || string(got[1].Payload) != "shut" {
		t.Fatalf("broker kept %+v", got)
	}
}

// TestAppendToAllocFree: encoding into a grown buffer allocates nothing.
func TestAppendToAllocFree(t *testing.T) {
	p := Packet{Type: PacketPublish, Topic: "contact/state", ID: 7, Payload: []byte("open"), Timestamp: 5 * time.Second}
	buf := p.AppendTo(nil, 256)
	if n := testing.AllocsPerRun(100, func() { buf = p.AppendTo(buf[:0], 256) }); n != 0 {
		t.Fatalf("AppendTo into a grown buffer allocates %.2f per op, want 0", n)
	}
	got, err := Unmarshal(buf)
	if err != nil || len(buf) != 256 || got.Topic != p.Topic || string(got.Payload) != "open" {
		t.Fatalf("re-encoded %d bytes decode to %+v, %v", len(buf), got, err)
	}
}
