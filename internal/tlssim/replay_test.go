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

// newModeEnv is newEnv with an explicit replay-mode offer from the client.
func newModeEnv(t testing.TB, mode ReplayMode, window int) *env {
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
	e.cli = ClientWithMode(tcp, rng, mode, window)
	clk.RunFor(time.Second)
	if !e.cli.Established() || e.srv == nil || !e.srv.Established() {
		t.Fatal("handshake did not complete")
	}
	return e
}

// TestModeNegotiation pins the hello wire format: the default offer stays
// the 48-byte pre-negotiation hello, explicit offers ride two extra bytes,
// and the server adopts the client's mode and window for the session.
func TestModeNegotiation(t *testing.T) {
	for _, tc := range []struct {
		mode   ReplayMode
		window int
		want   int // expected adopted window
	}{
		{ModeSeqBound, 0, 0},
		{ModeLegacyNonce, 0, 0},
		{ModeLegacyNonce, 64, 64},
		{ModeNullCipher, 8, 8},
		{ModeNullCipher, 1 << 20, MaxReplayWindow}, // clamped
		{ModeLegacyNonce, -3, 0},                   // clamped
	} {
		e := newModeEnv(t, tc.mode, tc.window)
		if e.srv.Mode() != tc.mode {
			t.Errorf("mode %v window %d: server adopted %v", tc.mode, tc.window, e.srv.Mode())
		}
		if e.srv.ReplayWindowSize() != tc.want {
			t.Errorf("mode %v window %d: server window %d, want %d",
				tc.mode, tc.window, e.srv.ReplayWindowSize(), tc.want)
		}
	}
}

// TestDefaultHelloIsLegacyCompatible checks that Client's hello is the
// 48-byte form — replay-mode negotiation must not change the wire bytes of
// sessions that never offer it.
func TestDefaultHelloIsLegacyCompatible(t *testing.T) {
	c := &Conn{isClient: true, share: newShare(simtime.NewRand(1))}
	simtime.NewRand(2).Bytes(c.random[:])
	if n := len(c.helloRecord()) - HeaderLen; n != 48 {
		t.Fatalf("default hello body is %d bytes, want 48", n)
	}
}

// TestBadModeRejected: a hello carrying an undefined mode byte must fail
// the handshake, and a server hello must never carry the negotiation bytes.
func TestBadModeRejected(t *testing.T) {
	// A raw 50-byte hello with an out-of-range mode byte.
	share := newShare(simtime.NewRand(99))
	body := make([]byte, 0, 50)
	body = append(body, share[:]...)
	body = append(body, make([]byte, 16)...)
	body = append(body, 0xEE, 0x00)
	if s := rawHello(t, body); s.conn.Established() {
		t.Fatal("server established a session from an invalid mode offer")
	}
}

// TestLegacyNonceVerbatimReplayAccepted: under ModeLegacyNonce with no
// window, a verbatim captured record decrypts against its carried sequence
// and is delivered twice — the raw-replay vulnerability.
func TestLegacyNonceVerbatimReplayAccepted(t *testing.T) {
	e := newModeEnv(t, ModeLegacyNonce, 0)
	var got []string
	e.srv.OnMessage = func(m []byte) { got = append(got, string(m)) }
	rec := e.cli.seal(RecordApplication, []byte("event: leak detected"))
	for i := 0; i < 2; i++ {
		if err := e.cli.TCP().Send(rec); err != nil {
			t.Fatal(err)
		}
		e.clk.RunFor(time.Second)
	}
	if len(got) != 2 || got[0] != got[1] {
		t.Fatalf("server delivered %v, want the duplicate accepted", got)
	}
	if err := e.cli.Send([]byte("still alive")); err != nil {
		t.Fatalf("session should survive a legacy replay: %v", err)
	}
}

// TestReplayWindowDropsDuplicateSilently: with a negotiated window the
// duplicate is discarded without an alert or teardown, DTLS-style.
func TestReplayWindowDropsDuplicateSilently(t *testing.T) {
	e := newModeEnv(t, ModeLegacyNonce, 64)
	var got []string
	var closed error
	gotClose := false
	e.srv.OnMessage = func(m []byte) { got = append(got, string(m)) }
	e.srv.OnClose = func(err error) { closed, gotClose = err, true }
	rec := e.cli.seal(RecordApplication, []byte("event: leak detected"))
	for i := 0; i < 3; i++ {
		if err := e.cli.TCP().Send(rec); err != nil {
			t.Fatal(err)
		}
		e.clk.RunFor(time.Second)
	}
	if len(got) != 1 {
		t.Fatalf("server delivered %v, want exactly one", got)
	}
	if gotClose {
		t.Fatalf("window drop tore the session down: %v", closed)
	}
	if e.srv.AlertsRaised() != 0 {
		t.Fatalf("window drop raised %d alerts, want none", e.srv.AlertsRaised())
	}
}

// TestSeqBoundReplayTearsDown: the default mode treats a replayed record as
// an authentication failure — alert and teardown, nothing delivered twice.
func TestSeqBoundReplayTearsDown(t *testing.T) {
	e := newEnv(t)
	var got []string
	var srvErr error
	e.srv.OnMessage = func(m []byte) { got = append(got, string(m)) }
	e.srv.OnClose = func(err error) { srvErr = err }
	rec := e.cli.seal(RecordApplication, []byte("event: door open"))
	for i := 0; i < 2; i++ {
		if err := e.cli.TCP().Send(rec); err != nil {
			t.Fatal(err)
		}
		e.clk.RunFor(time.Second)
	}
	if len(got) != 1 {
		t.Fatalf("server delivered %v, want one", got)
	}
	if !errors.Is(srvErr, ErrBadRecord) {
		t.Fatalf("server err = %v, want ErrBadRecord", srvErr)
	}
}

// TestNullCipherReadableOnTheWire: only a session whose captured client
// hello offers null-cipher is readable. Its application records yield their
// plaintext; every other session's records, and every malformed input, read
// as nil — never as some other bytes.
func TestNullCipherReadableOnTheWire(t *testing.T) {
	e := newModeEnv(t, ModeNullCipher, 0)
	hello := e.cli.helloRecord()
	msg := []byte("event: motion active")
	rec := e.cli.seal(RecordApplication, msg)
	if got := string(ReadPlaintext(hello, rec)); got != string(msg) {
		t.Fatalf("ReadPlaintext = %q, want %q", got, msg)
	}

	// Keyed sessions are unreadable whatever their records look like: a
	// seq-bound record's ciphertext is as long as a null-cipher record's
	// sequence and payload, and a legacy-nonce record even carries the
	// explicit sequence.
	for _, mode := range []ReplayMode{ModeSeqBound, ModeLegacyNonce} {
		ke := newModeEnv(t, mode, 0)
		ct := ke.cli.seal(RecordApplication, msg)
		if p := ReadPlaintext(ke.cli.helloRecord(), ct); p != nil {
			t.Fatalf("%v: ReadPlaintext read %d bytes of ciphertext as plaintext", mode, len(p))
		}
		// The record alone does not make a session readable either.
		if p := ReadPlaintext(ke.cli.helloRecord(), rec); p != nil {
			t.Fatalf("%v hello: ReadPlaintext accepted a null-cipher record", mode)
		}
	}

	// Not readable: no hello, a server hello, a hello whose header lies
	// about its length, and — under a null-cipher hello — handshake records,
	// truncated and length-lying records.
	for name, h := range map[string][]byte{
		"no hello":     nil,
		"server hello": e.srv.helloRecord(),
		"lying hello":  append(append([]byte(nil), hello...), 0),
	} {
		if p := ReadPlaintext(h, rec); p != nil {
			t.Fatalf("%s: ReadPlaintext = %q, want nil", name, p)
		}
	}
	if p := ReadPlaintext(hello, hello); p != nil {
		t.Fatal("ReadPlaintext accepted a handshake record")
	}
	if p := ReadPlaintext(hello, rec[:HeaderLen+4]); p != nil {
		t.Fatal("ReadPlaintext accepted a truncated record")
	}
	lying := append([]byte(nil), rec...)
	lying[4]++ // header length no longer matches the body
	if p := ReadPlaintext(hello, lying); p != nil {
		t.Fatal("ReadPlaintext accepted a length-lying record")
	}
}

// TestModeOverheadMatchesWire pins ModeOverhead against actual sealed
// records — the sniffing fingerprints depend on these constants.
func TestModeOverheadMatchesWire(t *testing.T) {
	msg := []byte("0123456789")
	for _, mode := range []ReplayMode{ModeSeqBound, ModeLegacyNonce, ModeNullCipher} {
		var e *env
		if mode == ModeSeqBound {
			e = newEnv(t)
		} else {
			e = newModeEnv(t, mode, 0)
		}
		rec := e.cli.seal(RecordApplication, msg)
		if len(rec) != len(msg)+ModeOverhead(mode) {
			t.Errorf("%v: wire %d bytes, want %d + %d", mode, len(rec), len(msg), ModeOverhead(mode))
		}
	}
}

// TestReplayWindowObserve covers the sliding-window edge cases directly.
func TestReplayWindowObserve(t *testing.T) {
	var w replayWindow
	if !w.observe(5, 64) {
		t.Fatal("first sequence rejected")
	}
	if w.observe(5, 64) {
		t.Fatal("duplicate accepted")
	}
	if !w.observe(7, 64) || !w.observe(6, 64) {
		t.Fatal("fresh in-window sequences rejected")
	}
	if w.observe(6, 64) {
		t.Fatal("back-filled duplicate accepted")
	}
	// Too old to judge: at or below highest-size counts as replayed.
	if !w.observe(200, 64) {
		t.Fatal("large jump rejected")
	}
	if w.observe(100, 64) {
		t.Fatal("sequence below the window accepted")
	}
	// A jump of >= 64 resets the mask entirely.
	if !w.observe(500, 64) || !w.observe(499, 64) {
		t.Fatal("post-jump sequences rejected")
	}
}

// TestClampWindow pins the negotiation bounds.
func TestClampWindow(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{-1, 0}, {0, 0}, {1, 1}, {64, 64}, {65, 64}, {1 << 30, 64},
	} {
		if got := clampWindow(tc.in); got != tc.want {
			t.Errorf("clampWindow(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestSameSeedCiphertextIdentical: two sessions built from equal seeds
// produce byte-identical ciphertext for the same conversation. Replay makes
// ciphertext content a simulation observable, so every draw behind the
// session keys must be a pure function of the seed — the property a
// scheduler-dependent key generator once broke (DESIGN.md §12).
func TestSameSeedCiphertextIdentical(t *testing.T) {
	sealOnce := func() []byte {
		e := &env{}
		clk := simtime.NewClock()
		nw := netsim.NewNetwork(clk, 1)
		seg := nw.NewSegment("lan", time.Millisecond, 0)
		clientIP := ipnet.NewStack(clk, nw.NewHost("client"))
		clientIP.MustAddIface(seg, "192.168.1.10/24")
		serverIP := ipnet.NewStack(clk, nw.NewHost("server"))
		serverIP.MustAddIface(seg, "192.168.1.20/24")
		cliTCP := tcpsim.NewStack(clk, clientIP, tcpsim.Config{}, 7)
		srvTCP := tcpsim.NewStack(clk, serverIP, tcpsim.Config{}, 8)
		rng := simtime.NewRand(1234)
		if _, err := srvTCP.Listen(443, func(c *tcpsim.Conn) { e.srv = Server(c, rng) }); err != nil {
			t.Fatal(err)
		}
		tcp := cliTCP.Dial(tcpsim.Endpoint{Addr: ipaddr.MustParse("192.168.1.20"), Port: 443})
		e.cli = Client(tcp, rng)
		clk.RunFor(time.Second)
		if !e.cli.Established() {
			t.Fatal("handshake did not complete")
		}
		return e.cli.seal(RecordApplication, []byte("event: door open"))
	}
	a, b := sealOnce(), sealOnce()
	if string(a) != string(b) {
		t.Fatalf("same-seed ciphertext differs:\n%x\n%x", a, b)
	}
}
