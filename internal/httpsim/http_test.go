package httpsim

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

type env struct {
	clk      *simtime.Clock
	server   *Server
	cliTCP   *tcpsim.Stack
	rng      *simtime.Rand
	srvAddr  tcpsim.Endpoint
	accepted []*tlssim.Conn
}

// deafAll makes every accepted server session silently discard inbound
// messages, leaving TCP and TLS healthy — the cleanest way to make
// application-layer timeouts fire in isolation.
func (e *env) deafAll() {
	for _, s := range e.accepted {
		s.OnMessage = func([]byte) {}
	}
}

func newEnv(srvCfg ServerConfig) *env {
	clk := simtime.NewClock()
	nw := netsim.NewNetwork(clk, 1)
	seg := nw.NewSegment("lan", time.Millisecond, 0)

	devIP := ipnet.NewStack(clk, nw.NewHost("device"))
	devIP.MustAddIface(seg, "192.168.1.10/24")
	srvIP := ipnet.NewStack(clk, nw.NewHost("cloud"))
	srvIP.MustAddIface(seg, "192.168.1.20/24")

	devTCP := tcpsim.NewStack(clk, devIP, tcpsim.Config{}, 7)
	srvTCP := tcpsim.NewStack(clk, srvIP, tcpsim.Config{}, 8)

	rng := simtime.NewRand(99)
	server := NewServer(clk, srvCfg)
	e := &env{
		clk:     clk,
		server:  server,
		cliTCP:  devTCP,
		rng:     rng,
		srvAddr: tcpsim.Endpoint{Addr: ipaddr.MustParse("192.168.1.20"), Port: 443},
	}
	if _, err := srvTCP.Listen(443, func(c *tcpsim.Conn) {
		sess := tlssim.Server(c, rng)
		server.Accept(sess)
		e.accepted = append(e.accepted, sess)
	}); err != nil {
		panic(err)
	}
	return e
}

func (e *env) dial(cfg ClientConfig) *Client {
	tcp := e.cliTCP.Dial(e.srvAddr)
	return NewClient(e.clk, tlssim.Client(tcp, e.rng), cfg)
}

func longLivedCfg() ClientConfig {
	return ClientConfig{
		DeviceID:         "cam-1",
		KeepAlive:        25 * time.Second,
		Pattern:          proto.PatternOnIdle,
		KeepAliveTimeout: 10 * time.Second,
		ResponseTimeout:  30 * time.Second,
	}
}

func onDemandCfg() ClientConfig {
	return ClientConfig{
		DeviceID:        "sensor-1",
		ResponseTimeout: 2 * time.Minute,
	}
}

func TestRequestResponse(t *testing.T) {
	e := newEnv(ServerConfig{})
	var got []Message
	e.server.OnRequest = func(_ *Session, m Message) { got = append(got, m) }
	cli := e.dial(longLivedCfg())
	var resp *Message
	cli.OnResponse = func(m Message) { resp = &m }
	e.clk.RunFor(time.Second)
	if _, err := cli.Request("/event", []byte("motion"), 256); err != nil {
		t.Fatal(err)
	}
	e.clk.RunFor(time.Second)
	if len(got) != 1 || string(got[0].Body) != "motion" || got[0].DeviceID != "cam-1" {
		t.Fatalf("server got %v", got)
	}
	if resp == nil || resp.Status != StatusOK {
		t.Fatalf("client response = %v", resp)
	}
}

func TestRequestBeforeReadyFails(t *testing.T) {
	e := newEnv(ServerConfig{})
	cli := e.dial(longLivedCfg())
	if _, err := cli.Request("/event", nil, 0); err == nil {
		t.Fatal("request before established should fail")
	}
	_ = cli
}

func TestResponseTimeoutDropsSession(t *testing.T) {
	e := newEnv(ServerConfig{})
	cli := e.dial(longLivedCfg())
	var reason proto.CloseReason
	var at simtime.Time
	cli.OnClosed = func(r proto.CloseReason) { reason, at = r, e.clk.Now() }
	e.clk.RunFor(time.Second)
	// Server goes deaf: the response never comes and the client's 408
	// threshold fires.
	e.deafAll()
	start := e.clk.Now()
	if _, err := cli.Request("/event", []byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	e.clk.RunFor(2 * time.Minute)
	if reason != proto.ReasonAckTimeout {
		t.Fatalf("close reason = %v, want ack-timeout", reason)
	}
	if got := at - start; got != 30*time.Second {
		t.Fatalf("timed out after %v, want 30s", got)
	}
}

func TestKeepAliveKeepsSessionAlive(t *testing.T) {
	e := newEnv(ServerConfig{})
	cli := e.dial(longLivedCfg())
	closed := false
	cli.OnClosed = func(proto.CloseReason) { closed = true }
	e.clk.RunFor(5 * time.Minute)
	if closed {
		t.Fatal("keep-alives answered; session should stay up")
	}
}

func TestKeepAliveTimeoutClosesSession(t *testing.T) {
	e := newEnv(ServerConfig{})
	cli := e.dial(longLivedCfg())
	var reason proto.CloseReason
	cli.OnClosed = func(r proto.CloseReason) { reason = r }
	e.clk.RunFor(time.Second)
	e.deafAll()
	e.clk.RunFor(5 * time.Minute)
	if reason != proto.ReasonKeepAliveTimeout {
		t.Fatalf("close reason = %v, want keepalive-timeout", reason)
	}
}

func TestOnDemandSessionLifecycle(t *testing.T) {
	e := newEnv(ServerConfig{SessionIdleTimeout: 5 * time.Minute})
	var got []Message
	e.server.OnRequest = func(_ *Session, m Message) { got = append(got, m) }
	cli := e.dial(onDemandCfg())
	done := false
	cli.OnResponse = func(Message) {
		cli.Close()
		done = true
	}
	e.clk.RunFor(time.Second)
	if _, err := cli.Request("/event", []byte("water leak"), 128); err != nil {
		t.Fatal(err)
	}
	e.clk.RunFor(time.Second)
	if !done || len(got) != 1 {
		t.Fatalf("done=%v got=%d", done, len(got))
	}
	if e.server.AlarmCount() != 0 {
		t.Fatalf("on-demand close raised alarms: %v", e.server.Alarms())
	}
}

func TestIdleSessionReapedSilently(t *testing.T) {
	e := newEnv(ServerConfig{SessionIdleTimeout: time.Minute})
	cli := e.dial(onDemandCfg())
	e.clk.RunFor(time.Second)
	if _, err := cli.Request("/event", []byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	// Device never closes; the server reaps the idle session after 1min.
	e.clk.RunFor(10 * time.Minute)
	if _, ok := e.server.ActiveSession("sensor-1"); ok {
		t.Fatal("idle session not reaped")
	}
	if e.server.AlarmCount() != 0 {
		t.Fatalf("idle reaping alarmed: %v", e.server.Alarms())
	}
}

func TestServerCommandRoundTrip(t *testing.T) {
	e := newEnv(ServerConfig{})
	cli := e.dial(longLivedCfg())
	var gotCmd Message
	cli.OnCommand = func(m Message) { gotCmd = m }
	e.clk.RunFor(time.Second)
	if _, err := cli.Request("/event", []byte("register"), 0); err != nil {
		t.Fatal(err) // binds the session to cam-1
	}
	e.clk.RunFor(time.Second)
	var res proto.CommandResult
	if err := e.server.Command("cam-1", "/command", []byte("start-recording"), 200, 21*time.Second, func(r proto.CommandResult) { res = r }); err != nil {
		t.Fatal(err)
	}
	e.clk.RunFor(time.Second)
	if string(gotCmd.Body) != "start-recording" {
		t.Fatalf("device got %v", gotCmd)
	}
	if !res.Acked {
		t.Fatal("command not acked")
	}
}

func TestServerCommandTimeout(t *testing.T) {
	e := newEnv(ServerConfig{})
	cli := e.dial(longLivedCfg())
	e.clk.RunFor(time.Second)
	if _, err := cli.Request("/event", []byte("register"), 0); err != nil {
		t.Fatal(err)
	}
	e.clk.RunFor(time.Second)
	cli.sess.OnMessage = func([]byte) {} // device goes deaf
	var res proto.CommandResult
	gotRes := false
	if err := e.server.Command("cam-1", "/command", nil, 0, 21*time.Second, func(r proto.CommandResult) { res, gotRes = r, true }); err != nil {
		t.Fatal(err)
	}
	e.clk.RunFor(time.Minute)
	if !gotRes || res.Acked {
		t.Fatalf("res=%+v gotRes=%v, want unacked", res, gotRes)
	}
	if res.Duration != 21*time.Second {
		t.Fatalf("timeout after %v, want 21s", res.Duration)
	}
	if e.server.alarms.CountKind("command-timeout") != 1 {
		t.Fatalf("alarms = %v", e.server.Alarms())
	}
}

func TestCommandToUnknownDeviceFails(t *testing.T) {
	e := newEnv(ServerConfig{})
	if err := e.server.Command("ghost", "/x", nil, 0, 0, nil); err == nil {
		t.Fatal("command to unknown device should fail")
	}
}

func TestReconnectSupersedesWithoutAlarm(t *testing.T) {
	e := newEnv(ServerConfig{})
	cli1 := e.dial(longLivedCfg())
	e.clk.RunFor(time.Second)
	if _, err := cli1.Request("/event", nil, 0); err != nil {
		t.Fatal(err)
	}
	e.clk.RunFor(time.Second)
	first, _ := e.server.ActiveSession("cam-1")
	cli2 := e.dial(longLivedCfg())
	e.clk.RunFor(time.Second)
	if _, err := cli2.Request("/event", nil, 0); err != nil {
		t.Fatal(err)
	}
	e.clk.RunFor(time.Second)
	second, _ := e.server.ActiveSession("cam-1")
	if first == second {
		t.Fatal("second session should supersede")
	}
	if e.server.HalfOpenCount("cam-1") != 1 {
		t.Fatalf("half-open = %d, want 1", e.server.HalfOpenCount("cam-1"))
	}
	if e.server.AlarmCount() != 0 {
		t.Fatalf("alarms = %v", e.server.Alarms())
	}
}

func TestAbruptLossAlarms(t *testing.T) {
	e := newEnv(ServerConfig{})
	cli := e.dial(longLivedCfg())
	e.clk.RunFor(time.Second)
	if _, err := cli.Request("/event", nil, 0); err != nil {
		t.Fatal(err)
	}
	e.clk.RunFor(time.Second)
	cli.sess.TCP().Abort()
	e.clk.RunFor(time.Second)
	if e.server.alarms.CountKind("device-offline") != 1 {
		t.Fatalf("alarms = %v, want one device-offline", e.server.Alarms())
	}
}

func TestMessageRoundTrip(t *testing.T) {
	tests := []Message{
		{Type: MsgRequest, ID: 1, DeviceID: "d", Path: "/event", Body: []byte("x"), Timestamp: 3 * time.Second},
		{Type: MsgResponse, ID: 1, Path: "/event", Status: 200},
		{Type: MsgRequest, ID: 9, DeviceID: "d2", Path: KeepAlivePath},
	}
	for _, want := range tests {
		got, err := Unmarshal(want.AppendTo(nil, 100))
		if err != nil {
			t.Fatal(err)
		}
		if got.Type != want.Type || got.ID != want.ID || got.DeviceID != want.DeviceID ||
			got.Path != want.Path || got.Status != want.Status ||
			string(got.Body) != string(want.Body) || got.Timestamp != want.Timestamp {
			t.Fatalf("round trip %+v -> %+v", want, got)
		}
	}
}

func TestUnmarshalGarbage(t *testing.T) {
	if _, err := Unmarshal([]byte{9, 9}); err == nil {
		t.Fatal("garbage should fail")
	}
}

// TestDecodedMessageOutlivesNextRecord: the session reuses its receive
// buffer for the next record, so a decoded request must own its device
// ID, path and body. Two same-shaped requests put the second one's bytes
// exactly where the first one's were.
func TestDecodedMessageOutlivesNextRecord(t *testing.T) {
	e := newEnv(ServerConfig{})
	var got []Message
	e.server.OnRequest = func(_ *Session, m Message) { got = append(got, m) }
	cli := e.dial(longLivedCfg())
	e.clk.RunFor(time.Second)
	if _, err := cli.Request("/event", []byte("open"), 128); err != nil {
		t.Fatal(err)
	}
	e.clk.RunFor(time.Second)
	if _, err := cli.Request("/other", []byte("shut"), 128); err != nil {
		t.Fatal(err)
	}
	e.clk.RunFor(time.Second)
	if len(got) != 2 || got[0].DeviceID != "cam-1" || got[0].Path != "/event" || string(got[0].Body) != "open" ||
		got[1].Path != "/other" || string(got[1].Body) != "shut" {
		t.Fatalf("server kept %+v", got)
	}
}

// TestAppendToAllocFree: encoding into a grown buffer allocates nothing.
func TestAppendToAllocFree(t *testing.T) {
	m := Message{Type: MsgRequest, ID: 3, DeviceID: "cam-1", Path: "/event", Body: []byte("motion"), Timestamp: time.Second}
	buf := m.AppendTo(nil, 256)
	if n := testing.AllocsPerRun(100, func() { buf = m.AppendTo(buf[:0], 256) }); n != 0 {
		t.Fatalf("AppendTo into a grown buffer allocates %.2f per op, want 0", n)
	}
	got, err := Unmarshal(buf)
	if err != nil || len(buf) != 256 || got.Path != m.Path || string(got.Body) != "motion" {
		t.Fatalf("re-encoded %d bytes decode to %+v, %v", len(buf), got, err)
	}
}
