// Package tlssim implements a TLS-like secure channel over a tcpsim
// connection: a modelled key exchange followed by AES-GCM records bound to
// implicit per-direction sequence numbers.
//
// The three properties the paper's analysis rests on all hold here:
//
//  1. Record headers (type and length) are cleartext, so an on-path
//     attacker can delimit and fingerprint messages without keys.
//  2. Any forgery, modification, replay or reordering fails authentication
//     (the sequence number is bound into the nonce and additional data) and
//     tears the session down with an alert — the attacker cannot spoof
//     application messages.
//  3. The layer has no timeout detection of its own: records delayed by an
//     attacker and later delivered in their original order verify cleanly.
//
// None of them depends on how hard the key agreement is, so the exchange is
// a model rather than a real Diffie-Hellman: each endpoint's hello carries a
// share hashed from a 32-byte draw of the simulation source, and the shared
// secret hashes both shares. Anyone holding both cleartext hellos could
// compute it, which is why the derivation stays unexported: no simulated
// attacker, sniffer or replay engine derives session keys, so the records
// stay as opaque to them as real TLS records are. The records themselves
// are real AES-GCM.
package tlssim

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/tcpsim"
)

// RecordType identifies a record's purpose, mirroring TLS content types.
type RecordType byte

// Record content types (values match TLS for familiarity in traces).
const (
	RecordAlert       RecordType = 21
	RecordHandshake   RecordType = 22
	RecordApplication RecordType = 23
)

// HeaderLen is the cleartext record header size: type(1) version(2) len(2).
const HeaderLen = 5

// RecordLen reports the wire length of the record at the start of b,
// header included, and whether b holds all of it. It is the one decoder
// of the header's length field: the endpoints, the attacker's bridge and
// the passive sniffer all delimit records with it.
func RecordLen(b []byte) (n int, ok bool) {
	if len(b) < HeaderLen {
		return 0, false
	}
	n = HeaderLen + int(binary.BigEndian.Uint16(b[3:5]))
	return n, len(b) >= n
}

// Overhead is the per-record size added to an application message: the
// cleartext header plus the 16-byte AEAD tag. Sniffers subtract it to
// recover plaintext message lengths from wire observations.
const Overhead = HeaderLen + 16

// maxPlaintext bounds one record's payload, as in TLS.
const maxPlaintext = 16384

// helloLen is a hello body's size without a replay-mode offer: a 32-byte
// key share and a 16-byte random.
const helloLen = 48

// Errors surfaced through OnClose or Send.
var (
	// ErrBadRecord reports an authentication or sequencing violation.
	ErrBadRecord = errors.New("tlssim: record authentication failed")
	// ErrHandshake reports a malformed handshake exchange.
	ErrHandshake = errors.New("tlssim: handshake failed")
	// ErrNotEstablished reports Send before the handshake completed.
	ErrNotEstablished = errors.New("tlssim: session not established")
	// ErrClosed reports use after close.
	ErrClosed = errors.New("tlssim: session closed")
	// ErrRecordTooLarge reports a Send exceeding the record size limit.
	ErrRecordTooLarge = errors.New("tlssim: message exceeds record limit")
)

// AlertReceivedError reports the session was ended by a peer alert,
// carrying its description. It indicates to experiments that tampering was
// *detected* — the outcome phantom delays never produce.
type AlertReceivedError struct {
	Description string
}

func (e *AlertReceivedError) Error() string {
	return fmt.Sprintf("tlssim: alert from peer: %s", e.Description)
}

// Conn is one endpoint of a secure session layered on a TCP connection.
// All callbacks run on the simulation event loop.
type Conn struct {
	tcp      *tcpsim.Conn
	isClient bool

	share        [32]byte
	random       [16]byte
	peerRandom   [16]byte
	established  bool
	closed       bool
	closeErr     error
	sendSeq      uint64
	recvSeq      uint64
	sendAEAD     cipher.AEAD
	recvAEAD     cipher.AEAD
	alertsRaised int
	// rbuf holds the received bytes of a record not yet complete. onData
	// parses and decrypts records in place in it, then shifts the tail to
	// the front so the buffer keeps its capacity; hence OnMessage's rule.
	rbuf []byte
	// nonceBuf/aadBuf are the per-record crypto scratch: the AEAD consumes
	// both before Seal/Open returns, so one pair serves every record.
	nonceBuf [12]byte
	aadBuf   [13]byte
	// txbuf is the record scratch for Send: tcpsim copies a record into
	// its own chunks before Send returns, so one buffer serves them all.
	txbuf []byte

	// mode/window are the negotiated replay protections (see replay.go):
	// clients pick them at construction, servers adopt them from the hello.
	mode       ReplayMode
	window     int
	recvWindow replayWindow

	trace *obs.Trace
	label string

	// OnEstablished fires when the handshake completes.
	OnEstablished func()
	// OnMessage delivers one decrypted application message per record.
	// The slice points into the connection's receive buffer, which the
	// next record overwrites: it is valid only during the call, and a
	// handler that keeps any of it must copy.
	OnMessage func([]byte)
	// OnClose fires exactly once when the session ends; nil means a clean
	// close, ErrBadRecord or AlertReceivedError mean detected tampering.
	OnClose func(error)
}

// Client starts a session as the initiator. The ClientHello goes out when
// the underlying TCP connection establishes (immediately if it already is).
func Client(tcp *tcpsim.Conn, rng *simtime.Rand) *Conn {
	return ClientWithMode(tcp, rng, ModeSeqBound, 0)
}

// Server starts a session as the responder on an accepted TCP connection.
func Server(tcp *tcpsim.Conn, rng *simtime.Rand) *Conn {
	return newConn(tcp, rng, false)
}

func newConn(tcp *tcpsim.Conn, rng *simtime.Rand, isClient bool) *Conn {
	c := &Conn{tcp: tcp, isClient: isClient, share: newShare(rng)}
	rng.Bytes(c.random[:])
	tcp.OnData = c.onData
	tcp.OnClose = func(err error) { c.teardown(err) }
	return c
}

// TCP returns the underlying transport connection.
func (c *Conn) TCP() *tcpsim.Conn { return c.tcp }

// Instrument attaches a trace ring so the connection emits "tlssim" events
// (handshake, per-record seq-check pass/fail, alerts), labeled by the
// endpoint's name. A nil or disabled trace keeps the connection silent.
func (c *Conn) Instrument(tr *obs.Trace, label string) {
	if !tr.Enabled() {
		return
	}
	c.trace = tr
	c.label = label
}

func (c *Conn) emit(event, detail string, value int64) {
	if c.trace == nil {
		return
	}
	c.trace.Emit(c.tcp.Clock().Now(), "tlssim", event, detail, value)
}

// Established reports whether the handshake has completed.
func (c *Conn) Established() bool { return c.established }

// AlertsRaised counts integrity alerts this endpoint has sent — the
// "detection" signal the experiments assert stays at zero under the attack.
func (c *Conn) AlertsRaised() int { return c.alertsRaised }

// Send encrypts msg as a single application record.
func (c *Conn) Send(msg []byte) error {
	if c.closed {
		return ErrClosed
	}
	if !c.established {
		return ErrNotEstablished
	}
	if len(msg) > maxPlaintext {
		return ErrRecordTooLarge
	}
	c.txbuf = c.sealTo(c.txbuf[:0], RecordApplication, msg)
	return c.tcp.Send(c.txbuf)
}

// Close closes the session and its transport gracefully.
func (c *Conn) Close() {
	if c.closed {
		return
	}
	c.tcp.Close()
}

func (c *Conn) sendHello() {
	// Transport errors surface later through OnClose; a failed hello simply
	// never completes the handshake.
	_ = c.tcp.Send(c.helloRecord())
}

// helloRecord encodes this endpoint's hello: its key share and random.
// Replay-mode negotiation rides two extra bytes that only a client offering
// something other than seq-bound with no window sends, so the default offer
// — and every server hello — stays byte-identical to the 48-byte hello that
// predates negotiation.
func (c *Conn) helloRecord() []byte {
	body := make([]byte, 0, helloLen+2)
	body = append(body, c.share[:]...)
	body = append(body, c.random[:]...)
	if c.isClient && (c.mode != ModeSeqBound || c.window > 0) {
		body = append(body, byte(c.mode), byte(c.window))
	}
	return plainRecord(RecordHandshake, body)
}

// onData appends b to rbuf, processes every complete record from the
// front, then moves the unparsed tail to the front. tcpsim delivers
// through scheduled events, so no record processing re-enters it.
func (c *Conn) onData(b []byte) {
	c.rbuf = append(c.rbuf, b...)
	off := 0
	for !c.closed {
		n, ok := RecordLen(c.rbuf[off:])
		if !ok {
			break
		}
		rec := c.rbuf[off : off+n]
		off += n
		c.processRecord(RecordType(rec[0]), rec[HeaderLen:])
	}
	c.rbuf = c.rbuf[:copy(c.rbuf, c.rbuf[off:])]
}

func (c *Conn) processRecord(typ RecordType, body []byte) {
	switch typ {
	case RecordHandshake:
		c.processHandshake(body)
	case RecordApplication:
		c.processApplication(body)
	case RecordAlert:
		if c.trace != nil {
			c.emit("alert_received", c.label+":"+string(body), 0)
		}
		c.tcp.Close()
		c.teardown(&AlertReceivedError{Description: string(body)})
	default:
		c.fail("unexpected_record_type")
	}
}

func (c *Conn) processHandshake(body []byte) {
	if c.established || (len(body) != helloLen && len(body) != helloLen+2) {
		c.fail("unexpected_handshake")
		return
	}
	copy(c.peerRandom[:], body[32:helloLen])
	if len(body) > helloLen {
		// Replay-mode negotiation: only a client hello may carry it, and the
		// server adopts the client's offer for both directions.
		mode, window, ok := helloOffer(body)
		if c.isClient || !ok {
			c.fail("bad_replay_mode")
			return
		}
		c.mode, c.window = mode, window
	}
	shared := sharedSecret(c.share[:], body[:32])
	if !c.isClient {
		// Respond before deriving so the client can complete too.
		c.sendHello()
	}
	if err := c.deriveKeys(shared[:]); err != nil {
		c.fail("key_derivation_failed")
		return
	}
	c.established = true
	c.emit("handshake", c.label, 0)
	if c.OnEstablished != nil {
		c.OnEstablished()
	}
}

func (c *Conn) deriveKeys(shared []byte) error {
	var clientRandom, serverRandom [16]byte
	if c.isClient {
		clientRandom, serverRandom = c.random, c.peerRandom
	} else {
		clientRandom, serverRandom = c.peerRandom, c.random
	}
	clientKey := deriveKey(shared, "client write", clientRandom, serverRandom)
	serverKey := deriveKey(shared, "server write", clientRandom, serverRandom)
	mk := func(key []byte) (cipher.AEAD, error) {
		block, err := aes.NewCipher(key)
		if err != nil {
			return nil, err
		}
		return cipher.NewGCM(block)
	}
	var sendKey, recvKey []byte
	if c.isClient {
		sendKey, recvKey = clientKey, serverKey
	} else {
		sendKey, recvKey = serverKey, clientKey
	}
	var err error
	if c.sendAEAD, err = mk(sendKey); err != nil {
		return err
	}
	c.recvAEAD, err = mk(recvKey)
	return err
}

func deriveKey(shared []byte, label string, cr, sr [16]byte) []byte {
	h := hmac.New(sha256.New, shared)
	h.Write([]byte(label))
	h.Write(cr[:])
	h.Write(sr[:])
	return h.Sum(nil)[:16]
}

func (c *Conn) processApplication(body []byte) {
	if !c.established {
		c.fail("record_before_handshake")
		return
	}
	if c.mode != ModeSeqBound {
		c.processExplicitSeq(body)
		return
	}
	nonce := c.seqNonce(c.recvSeq)
	aad := c.additionalData(RecordApplication, c.recvSeq, len(body))
	plain, err := c.recvAEAD.Open(body[:0], nonce, body, aad)
	if err != nil {
		// Seq-check / authentication failure: a delayed record delivered
		// out of its original order lands here and raises an alert.
		c.emit("record_bad", c.label, int64(c.recvSeq))
		c.fail("bad_record_mac")
		return
	}
	// Seq-check pass: the record arrived in its original order, so a
	// phantom-delayed release verifies cleanly.
	c.emit("record_ok", c.label, int64(c.recvSeq))
	c.recvSeq++
	if c.OnMessage != nil {
		c.OnMessage(plain)
	}
}

// fail raises an alert, aborts the transport and reports ErrBadRecord —
// the loud, detectable outcome the paper's attack never produces.
func (c *Conn) fail(desc string) {
	c.alertsRaised++
	if c.trace != nil {
		c.emit("alert_raised", c.label+":"+desc, 0)
	}
	_ = c.tcp.Send(plainRecord(RecordAlert, []byte(desc)))
	c.tcp.Close()
	c.teardown(fmt.Errorf("%w (%s)", ErrBadRecord, desc))
}

func (c *Conn) teardown(err error) {
	if c.closed {
		return
	}
	c.closed = true
	c.closeErr = err
	if c.OnClose != nil {
		c.OnClose(err)
	}
}

// seal returns plain sealed as a fresh record of type typ.
func (c *Conn) seal(typ RecordType, plain []byte) []byte {
	return c.sealTo(nil, typ, plain)
}

// sealTo appends plain, sealed as one record of type typ, to dst: the
// header first, then the AEAD output sealed onto it in place.
func (c *Conn) sealTo(dst []byte, typ RecordType, plain []byte) []byte {
	if c.mode != ModeSeqBound {
		return c.sealExplicit(dst, typ, plain)
	}
	n := len(plain) + 16
	nonce := c.seqNonce(c.sendSeq)
	aad := c.additionalData(typ, c.sendSeq, n)
	c.sendSeq++
	dst = appendHeader(slices.Grow(dst, HeaderLen+n), typ, n)
	return c.sendAEAD.Seal(dst, nonce, plain, aad)
}

func plainRecord(typ RecordType, body []byte) []byte {
	rec := appendHeader(make([]byte, 0, HeaderLen+len(body)), typ, len(body))
	return append(rec, body...)
}

// appendHeader appends a cleartext record header for an n-byte body.
func appendHeader(b []byte, typ RecordType, n int) []byte {
	return append(b, byte(typ), 0x03, 0x03, byte(n>>8), byte(n))
}

func (c *Conn) seqNonce(seq uint64) []byte {
	binary.BigEndian.PutUint64(c.nonceBuf[4:], seq)
	return c.nonceBuf[:]
}

func (c *Conn) additionalData(typ RecordType, seq uint64, bodyLen int) []byte {
	binary.BigEndian.PutUint64(c.aadBuf[0:8], seq)
	c.aadBuf[8] = byte(typ)
	c.aadBuf[9] = 0x03
	c.aadBuf[10] = 0x03
	binary.BigEndian.PutUint16(c.aadBuf[11:13], uint16(bodyLen))
	return c.aadBuf[:]
}

// newShare makes an endpoint's key share: SHA-256 of exactly 32 bytes
// drawn from the deterministic simulation source. One fixed-size draw keeps
// every later draw, and through the session keys all ciphertext content, a
// pure function of the seed — replay makes that content observable.
func newShare(rng *simtime.Rand) [32]byte {
	var draw [32]byte
	rng.Bytes(draw[:])
	return sha256.Sum256(draw[:])
}

// sharedSecret is the modelled key agreement: SHA-256 of the two shares in
// sorted order, so both endpoints compute it from their own share and the
// peer's hello.
func sharedSecret(own, peer []byte) [32]byte {
	var buf [64]byte
	if bytes.Compare(own, peer) > 0 {
		own, peer = peer, own
	}
	copy(buf[:32], own)
	copy(buf[32:], peer)
	return sha256.Sum256(buf[:])
}
