package tlssim

import (
	"errors"
	"testing"
	"time"

	"repro/internal/ipaddr"
	"repro/internal/ipnet"
	"repro/internal/netsim"
	"repro/internal/simtime"
	"repro/internal/tcpsim"
)

type env struct {
	clk *simtime.Clock
	cli *Conn
	srv *Conn
}

// newEnv builds client and server TLS sessions over a simulated LAN and
// completes the handshake.
func newEnv(t testing.TB) *env {
	t.Helper()
	clk := simtime.NewClock()
	nw := netsim.NewNetwork(clk, 1)
	seg := nw.NewSegment("lan", time.Millisecond, 0)

	clientIP := ipnet.NewStack(clk, nw.NewHost("client"))
	clientIP.MustAddIface(seg, "192.168.1.10/24")
	serverIP := ipnet.NewStack(clk, nw.NewHost("server"))
	serverIP.MustAddIface(seg, "192.168.1.20/24")

	cliTCP := tcpsim.NewStack(clk, clientIP, tcpsim.Config{}, 7)
	srvTCP := tcpsim.NewStack(clk, serverIP, tcpsim.Config{}, 8)

	rng := simtime.NewRand(99)
	e := &env{clk: clk}
	if _, err := srvTCP.Listen(443, func(c *tcpsim.Conn) {
		e.srv = Server(c, rng)
	}); err != nil {
		t.Fatal(err)
	}
	tcp := cliTCP.Dial(tcpsim.Endpoint{Addr: ipaddr.MustParse("192.168.1.20"), Port: 443})
	e.cli = Client(tcp, rng)
	clk.RunFor(time.Second)
	if !e.cli.Established() || e.srv == nil || !e.srv.Established() {
		t.Fatal("handshake did not complete")
	}
	return e
}

func TestHandshakeCompletes(t *testing.T) {
	e := newEnv(t)
	if !e.cli.Established() || !e.srv.Established() {
		t.Fatal("not established")
	}
}

func TestBidirectionalMessages(t *testing.T) {
	e := newEnv(t)
	var toSrv, toCli []string
	e.srv.OnMessage = func(m []byte) { toSrv = append(toSrv, string(m)) }
	e.cli.OnMessage = func(m []byte) { toCli = append(toCli, string(m)) }
	if err := e.cli.Send([]byte("event: motion active")); err != nil {
		t.Fatal(err)
	}
	if err := e.srv.Send([]byte("command: lock door")); err != nil {
		t.Fatal(err)
	}
	e.clk.RunFor(time.Second)
	if len(toSrv) != 1 || toSrv[0] != "event: motion active" {
		t.Fatalf("server got %v", toSrv)
	}
	if len(toCli) != 1 || toCli[0] != "command: lock door" {
		t.Fatalf("client got %v", toCli)
	}
}

func TestMessageBoundariesPreserved(t *testing.T) {
	e := newEnv(t)
	var msgs []string
	e.srv.OnMessage = func(m []byte) { msgs = append(msgs, string(m)) }
	for _, m := range []string{"a", "bb", "ccc"} {
		if err := e.cli.Send([]byte(m)); err != nil {
			t.Fatal(err)
		}
	}
	e.clk.RunFor(time.Second)
	if len(msgs) != 3 || msgs[0] != "a" || msgs[1] != "bb" || msgs[2] != "ccc" {
		t.Fatalf("messages = %v", msgs)
	}
}

func TestSendBeforeEstablishedFails(t *testing.T) {
	clk := simtime.NewClock()
	nw := netsim.NewNetwork(clk, 1)
	seg := nw.NewSegment("lan", time.Millisecond, 0)
	clientIP := ipnet.NewStack(clk, nw.NewHost("client"))
	clientIP.MustAddIface(seg, "192.168.1.10/24")
	cliTCP := tcpsim.NewStack(clk, clientIP, tcpsim.Config{}, 7)
	tcp := cliTCP.Dial(tcpsim.Endpoint{Addr: ipaddr.MustParse("192.168.1.99"), Port: 443})
	c := Client(tcp, simtime.NewRand(1))
	if err := c.Send([]byte("x")); !errors.Is(err, ErrNotEstablished) {
		t.Fatalf("err = %v, want ErrNotEstablished", err)
	}
}

func TestOversizedMessageRejected(t *testing.T) {
	e := newEnv(t)
	if err := e.cli.Send(make([]byte, maxPlaintext+1)); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("err = %v, want ErrRecordTooLarge", err)
	}
}

func TestForgedRecordDetected(t *testing.T) {
	e := newEnv(t)
	var srvErr error
	e.srv.OnClose = func(err error) { srvErr = err }
	var cliErr error
	e.cli.OnClose = func(err error) { cliErr = err }
	// Attacker without keys injects a fake application record into the
	// client's stream.
	forged := plainRecord(RecordApplication, []byte("spoofed event payload!!!"))
	if err := e.cli.TCP().Send(forged); err != nil {
		t.Fatal(err)
	}
	e.clk.RunFor(time.Second)
	if !errors.Is(srvErr, ErrBadRecord) {
		t.Fatalf("server err = %v, want ErrBadRecord", srvErr)
	}
	if e.srv.AlertsRaised() != 1 {
		t.Fatalf("alerts = %d, want 1", e.srv.AlertsRaised())
	}
	var alert *AlertReceivedError
	if !errors.As(cliErr, &alert) {
		t.Fatalf("client err = %v, want AlertReceivedError", cliErr)
	}
}

func TestTamperedRecordDetected(t *testing.T) {
	e := newEnv(t)
	var srvErr error
	e.srv.OnClose = func(err error) { srvErr = err }
	rec := e.cli.seal(RecordApplication, []byte("legit"))
	rec[len(rec)-1] ^= 0x01 // flip one ciphertext bit
	if err := e.cli.TCP().Send(rec); err != nil {
		t.Fatal(err)
	}
	e.clk.RunFor(time.Second)
	if !errors.Is(srvErr, ErrBadRecord) {
		t.Fatalf("server err = %v, want ErrBadRecord", srvErr)
	}
}

func TestReplayDetected(t *testing.T) {
	e := newEnv(t)
	var got []string
	var srvErr error
	e.srv.OnMessage = func(m []byte) { got = append(got, string(m)) }
	e.srv.OnClose = func(err error) { srvErr = err }
	rec := e.cli.seal(RecordApplication, []byte("unlock"))
	if err := e.cli.TCP().Send(rec); err != nil {
		t.Fatal(err)
	}
	if err := e.cli.TCP().Send(rec); err != nil { // replay
		t.Fatal(err)
	}
	e.clk.RunFor(time.Second)
	if len(got) != 1 {
		t.Fatalf("delivered %d messages, want 1 (no replay)", len(got))
	}
	if !errors.Is(srvErr, ErrBadRecord) {
		t.Fatalf("server err = %v, want ErrBadRecord", srvErr)
	}
}

func TestReorderDetected(t *testing.T) {
	e := newEnv(t)
	var srvErr error
	var got []string
	e.srv.OnMessage = func(m []byte) { got = append(got, string(m)) }
	e.srv.OnClose = func(err error) { srvErr = err }
	rec1 := e.cli.seal(RecordApplication, []byte("first"))
	rec2 := e.cli.seal(RecordApplication, []byte("second"))
	if err := e.cli.TCP().Send(rec2); err != nil {
		t.Fatal(err)
	}
	if err := e.cli.TCP().Send(rec1); err != nil {
		t.Fatal(err)
	}
	e.clk.RunFor(time.Second)
	if len(got) != 0 {
		t.Fatalf("delivered %v despite reorder", got)
	}
	if !errors.Is(srvErr, ErrBadRecord) {
		t.Fatalf("server err = %v, want ErrBadRecord", srvErr)
	}
}

func TestDelayedInOrderDeliveryAccepted(t *testing.T) {
	// The attack's enabler: records held for a long time and released in
	// their original order still verify — TLS has no timeout detection.
	e := newEnv(t)
	var got []string
	var srvErr error
	e.srv.OnMessage = func(m []byte) { got = append(got, string(m)) }
	e.srv.OnClose = func(err error) { srvErr = err }
	rec1 := e.cli.seal(RecordApplication, []byte("held event 1"))
	rec2 := e.cli.seal(RecordApplication, []byte("held event 2"))
	// Hold both records for two virtual hours, then release in order.
	e.clk.Schedule(2*time.Hour, func() {
		_ = e.cli.TCP().Send(rec1)
		_ = e.cli.TCP().Send(rec2)
	})
	e.clk.RunFor(3 * time.Hour)
	if srvErr != nil {
		t.Fatalf("server err = %v, want none", srvErr)
	}
	if len(got) != 2 || got[0] != "held event 1" || got[1] != "held event 2" {
		t.Fatalf("messages = %v", got)
	}
	if e.srv.AlertsRaised() != 0 || e.cli.AlertsRaised() != 0 {
		t.Fatal("delay raised alerts; it must not")
	}
}

func TestRecordLengthObservable(t *testing.T) {
	// An observer without keys recovers the plaintext length from the
	// cleartext header — the fingerprinting primitive.
	e := newEnv(t)
	msg := make([]byte, 337)
	rec := e.cli.seal(RecordApplication, msg)
	if got := len(rec); got != 337+Overhead {
		t.Fatalf("record len = %d, want %d", got, 337+Overhead)
	}
	// Header parse.
	if RecordType(rec[0]) != RecordApplication {
		t.Fatal("record type not cleartext")
	}
	n := int(rec[3])<<8 | int(rec[4])
	if n != len(rec)-HeaderLen {
		t.Fatalf("header length field = %d, want %d", n, len(rec)-HeaderLen)
	}
}

func TestCiphertextVariesWithSequence(t *testing.T) {
	// The same plaintext sealed twice in one session differs: the sequence
	// number is bound into the nonce, which is what defeats replays.
	e := newEnv(t)
	rec1 := e.cli.seal(RecordApplication, []byte("same message"))
	rec2 := e.cli.seal(RecordApplication, []byte("same message"))
	if string(rec1[HeaderLen:]) == string(rec2[HeaderLen:]) {
		t.Fatal("two records with different sequence numbers produced identical ciphertext")
	}
}

func TestDirectionsUseDistinctKeys(t *testing.T) {
	e := newEnv(t)
	c2s := e.cli.seal(RecordApplication, []byte("same message"))
	s2c := e.srv.seal(RecordApplication, []byte("same message"))
	if string(c2s[HeaderLen:]) == string(s2c[HeaderLen:]) {
		t.Fatal("both directions produced identical ciphertext at sequence 0")
	}
}

func TestCleanClose(t *testing.T) {
	e := newEnv(t)
	var cliErr, srvErr error
	cliClosed, srvClosed := false, false
	e.cli.OnClose = func(err error) { cliClosed, cliErr = true, err }
	e.srv.OnClose = func(err error) { srvClosed, srvErr = true, err }
	e.cli.Close()
	e.clk.RunFor(time.Second)
	if !cliClosed || !srvClosed {
		t.Fatalf("closed: cli=%v srv=%v", cliClosed, srvClosed)
	}
	if cliErr != nil || srvErr != nil {
		t.Fatalf("close errors: %v / %v", cliErr, srvErr)
	}
	if err := e.cli.Send([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close = %v, want ErrClosed", err)
	}
}

func TestTCPResetPropagates(t *testing.T) {
	e := newEnv(t)
	var cliErr error
	e.cli.OnClose = func(err error) { cliErr = err }
	e.srv.TCP().Abort()
	e.clk.RunFor(time.Second)
	if !errors.Is(cliErr, tcpsim.ErrReset) {
		t.Fatalf("client err = %v, want tcp reset", cliErr)
	}
}

func TestMalformedHandshakeRejected(t *testing.T) {
	e := newEnv(t)
	var srvErr error
	e.srv.OnClose = func(err error) { srvErr = err }
	// A second (unexpected) handshake record after establishment.
	if err := e.cli.TCP().Send(plainRecord(RecordHandshake, make([]byte, 48))); err != nil {
		t.Fatal(err)
	}
	e.clk.RunFor(time.Second)
	if !errors.Is(srvErr, ErrBadRecord) {
		t.Fatalf("err = %v, want ErrBadRecord", srvErr)
	}
}

func TestShortHandshakeRejected(t *testing.T) {
	// A fresh server receiving a truncated hello (30 bytes, not 48) must
	// fail the handshake.
	s := rawHello(t, make([]byte, 30))
	if s.conn.Established() {
		t.Fatal("handshake should not complete")
	}
	if len(s.closes) != 1 || !errors.Is(s.closes[0], ErrBadRecord) {
		t.Fatalf("close errors = %v, want one ErrBadRecord", s.closes)
	}
}

// rawServer is a fresh server endpoint and every error its OnClose saw.
type rawServer struct {
	conn   *Conn
	closes []error
}

// rawHello dials a fresh server from a raw TCP client that sends body as
// its hello record, and returns the server after a second of virtual time.
func rawHello(t testing.TB, body []byte) *rawServer {
	t.Helper()
	clk := simtime.NewClock()
	nw := netsim.NewNetwork(clk, 1)
	seg := nw.NewSegment("lan", time.Millisecond, 0)
	cliIP := ipnet.NewStack(clk, nw.NewHost("c"))
	cliIP.MustAddIface(seg, "192.168.1.10/24")
	srvIP := ipnet.NewStack(clk, nw.NewHost("s"))
	srvIP.MustAddIface(seg, "192.168.1.20/24")
	cliTCP := tcpsim.NewStack(clk, cliIP, tcpsim.Config{}, 7)
	srvTCP := tcpsim.NewStack(clk, srvIP, tcpsim.Config{}, 8)
	rng := simtime.NewRand(3)
	s := &rawServer{}
	if _, err := srvTCP.Listen(443, func(c *tcpsim.Conn) {
		s.conn = Server(c, rng)
		s.conn.OnClose = func(err error) { s.closes = append(s.closes, err) }
	}); err != nil {
		t.Fatal(err)
	}
	tcp := cliTCP.Dial(tcpsim.Endpoint{Addr: ipaddr.MustParse("192.168.1.20"), Port: 443})
	tcp.OnEstablished = func() {
		_ = tcp.Send(plainRecord(RecordHandshake, body))
	}
	clk.RunFor(time.Second)
	if s.conn == nil {
		t.Fatal("no server connection")
	}
	return s
}

func TestUnknownRecordTypeRejected(t *testing.T) {
	e := newEnv(t)
	var srvErr error
	e.srv.OnClose = func(err error) { srvErr = err }
	if err := e.cli.TCP().Send(plainRecord(RecordType(99), []byte("junk"))); err != nil {
		t.Fatal(err)
	}
	e.clk.RunFor(time.Second)
	if !errors.Is(srvErr, ErrBadRecord) {
		t.Fatalf("err = %v, want ErrBadRecord", srvErr)
	}
}

func TestAlertErrorDescription(t *testing.T) {
	err := &AlertReceivedError{Description: "bad_record_mac"}
	if err.Error() != "tlssim: alert from peer: bad_record_mac" {
		t.Fatalf("Error() = %q", err.Error())
	}
}

// TestRoundTripAllocFree: once a session's buffers have grown, a message
// sealed by Send, delivered, and handed to OnMessage, plus the reply sent
// from inside that handler, allocate nothing in any replay mode.
func TestRoundTripAllocFree(t *testing.T) {
	for _, mode := range []ReplayMode{ModeSeqBound, ModeLegacyNonce, ModeNullCipher} {
		t.Run(mode.String(), func(t *testing.T) {
			e := newModeEnv(t, mode, 0)
			msg := []byte("event: contact open, padded to a realistic record length")
			reply := []byte("ack")
			requests, replies := 0, 0
			e.srv.OnMessage = func(m []byte) {
				if string(m) != string(msg) {
					t.Fatalf("server got %q", m)
				}
				requests++
				if err := e.srv.Send(reply); err != nil {
					t.Fatal(err)
				}
			}
			e.cli.OnMessage = func(m []byte) {
				if string(m) != string(reply) {
					t.Fatalf("client got %q", m)
				}
				replies++
			}
			const runs = 100
			n := testing.AllocsPerRun(runs, func() {
				if err := e.cli.Send(msg); err != nil {
					t.Fatal(err)
				}
				e.clk.RunFor(10 * time.Millisecond) // two 2 ms round trips, with room
			})
			if n != 0 {
				t.Fatalf("Send → OnMessage round trip allocates %.2f per op, want 0", n)
			}
			// AllocsPerRun adds one warm-up run to the measured ones.
			if requests != runs+1 || replies != runs+1 {
				t.Fatalf("%d requests and %d replies delivered, want %d each", requests, replies, runs+1)
			}
		})
	}
}
