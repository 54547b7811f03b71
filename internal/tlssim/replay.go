package tlssim

import (
	"encoding/binary"
	"slices"

	"repro/internal/simtime"
	"repro/internal/tcpsim"
)

// ReplayMode selects how application records bind to the session's record
// sequence — the axis real IoT TLS stacks differ on and record-and-replay
// attacks exploit. The mode is the client's to pick (it models the device
// firmware's cipher-suite offer) and is carried in the client hello; the
// server adopts it for both directions of the session.
type ReplayMode byte

const (
	// ModeSeqBound is modern TLS 1.3-style protection: the implicit
	// per-direction counter is bound into nonce and additional data, so a
	// replayed record fails authentication and tears the session down with
	// an alert. The default; wire-identical to sessions that predate
	// replay-mode negotiation.
	ModeSeqBound ReplayMode = iota
	// ModeLegacyNonce models TLS 1.2 explicit-nonce stacks: each record
	// carries its sequence number on the wire and the receiver verifies the
	// record against the carried value, not its own counter. Ciphertext
	// stays confidential, but a verbatim replay decrypts cleanly and is
	// accepted unless a replay window drops it.
	ModeLegacyNonce
	// ModeNullCipher models plaintext/null-cipher firmware: records carry
	// an explicit sequence and the payload in the clear. Captured traffic
	// is both replayable and readable at the application layer.
	ModeNullCipher
)

// Valid reports whether m is a defined replay mode.
func (m ReplayMode) Valid() bool { return m <= ModeNullCipher }

func (m ReplayMode) String() string {
	switch m {
	case ModeSeqBound:
		return "seq-bound"
	case ModeLegacyNonce:
		return "legacy-nonce"
	case ModeNullCipher:
		return "null-cipher"
	default:
		return "invalid"
	}
}

// explicitSeqLen is the wire size of the explicit record sequence that
// legacy-nonce and null-cipher application records carry.
const explicitSeqLen = 8

// MaxReplayWindow bounds the negotiable anti-replay window: one uint64
// bitmask, as in DTLS's reference implementation.
const MaxReplayWindow = 64

// ModeOverhead returns the per-record bytes added to an application
// message under the given replay mode. ModeSeqBound matches Overhead;
// sniffers must pick the session owner's mode to recover plaintext lengths
// from wire observations.
func ModeOverhead(m ReplayMode) int {
	switch m {
	case ModeLegacyNonce:
		return HeaderLen + explicitSeqLen + 16
	case ModeNullCipher:
		return HeaderLen + explicitSeqLen
	default:
		return Overhead
	}
}

// ClientWithMode starts a client session that negotiates the given replay
// mode and anti-replay window in its hello. The window (clamped to
// [0, MaxReplayWindow]) only matters for the explicit-sequence modes:
// seq-bound sessions reject replays unconditionally, while legacy-nonce and
// null-cipher sessions accept them unless a nonzero window drops
// duplicates. ClientWithMode(tcp, rng, ModeSeqBound, 0) is exactly
// Client(tcp, rng).
func ClientWithMode(tcp *tcpsim.Conn, rng *simtime.Rand, mode ReplayMode, window int) *Conn {
	c := newConn(tcp, rng, true)
	c.mode = mode
	c.window = clampWindow(window)
	if tcp.State() == tcpsim.StateEstablished {
		c.sendHello()
	} else {
		tcp.OnEstablished = c.sendHello
	}
	return c
}

func clampWindow(w int) int {
	if w < 0 {
		return 0
	}
	if w > MaxReplayWindow {
		return MaxReplayWindow
	}
	return w
}

// Mode returns the session's replay mode (for servers, the mode adopted
// from the client hello once the handshake completes).
func (c *Conn) Mode() ReplayMode { return c.mode }

// ReplayWindowSize returns the negotiated anti-replay window size.
func (c *Conn) ReplayWindowSize() int { return c.window }

// replayWindow is a DTLS-style sliding anti-replay window over explicit
// record sequences: the highest sequence seen plus a bitmask of the window
// below it.
type replayWindow struct {
	highest uint64
	mask    uint64
	started bool
}

// observe records seq and reports whether it is fresh. A sequence at or
// below highest-size is too old to judge and counts as replayed, matching
// DTLS's conservative treatment.
func (w *replayWindow) observe(seq uint64, size int) bool {
	if !w.started {
		w.started = true
		w.highest = seq
		w.mask = 1
		return true
	}
	if seq > w.highest {
		shift := seq - w.highest
		if shift >= 64 {
			w.mask = 1
		} else {
			w.mask = w.mask<<shift | 1
		}
		w.highest = seq
		return true
	}
	back := w.highest - seq
	if back >= uint64(size) {
		return false
	}
	bit := uint64(1) << back
	if w.mask&bit != 0 {
		return false
	}
	w.mask |= bit
	return true
}

// sealExplicit appends an application record for the explicit-sequence
// modes to dst: an 8-byte record sequence on the wire, followed by the
// AES-GCM ciphertext (legacy nonce) or the raw plaintext (null cipher). The
// sender still advances its own counter — the weakness is on the receive
// path, which trusts the carried sequence.
func (c *Conn) sealExplicit(dst []byte, typ RecordType, plain []byte) []byte {
	seq := c.sendSeq
	c.sendSeq++
	n := explicitSeqLen + len(plain)
	if c.mode != ModeNullCipher {
		n += 16
	}
	dst = appendHeader(slices.Grow(dst, HeaderLen+n), typ, n)
	dst = binary.BigEndian.AppendUint64(dst, seq)
	if c.mode == ModeNullCipher {
		return append(dst, plain...)
	}
	nonce := c.seqNonce(seq)
	aad := c.additionalData(typ, seq, len(plain)+16)
	return c.sendAEAD.Seal(dst, nonce, plain, aad)
}

// processExplicitSeq handles legacy-nonce and null-cipher application
// records. Verification (when there is any) runs against the sequence the
// record carries, so a verbatim replay passes it; the negotiated
// anti-replay window, when nonzero, silently drops duplicates the way DTLS
// does — no alert, no teardown, nothing for the application to see.
func (c *Conn) processExplicitSeq(body []byte) {
	minLen := explicitSeqLen
	if c.mode == ModeLegacyNonce {
		minLen += 16
	}
	if len(body) < minLen {
		c.emit("record_bad", c.label, int64(len(body)))
		c.fail("bad_record_mac")
		return
	}
	seq := binary.BigEndian.Uint64(body[:explicitSeqLen])
	var plain []byte
	if c.mode == ModeNullCipher {
		plain = body[explicitSeqLen:]
	} else {
		nonce := c.seqNonce(seq)
		ct := body[explicitSeqLen:]
		aad := c.additionalData(RecordApplication, seq, len(ct))
		var err error
		plain, err = c.recvAEAD.Open(ct[:0], nonce, ct, aad)
		if err != nil {
			c.emit("record_bad", c.label, int64(seq))
			c.fail("bad_record_mac")
			return
		}
	}
	if c.window > 0 && !c.recvWindow.observe(seq, c.window) {
		c.emit("replay_dropped", c.label, int64(seq))
		return
	}
	c.emit("record_ok", c.label, int64(seq))
	if c.OnMessage != nil {
		c.OnMessage(plain)
	}
}

// ReadPlaintext extracts the application plaintext from rec, a captured
// application record (header, explicit sequence, payload), given hello,
// the captured client hello record (header included) that opened rec's
// session. A record header cannot tell ciphertext from plaintext, so
// readability is a property of the session: only a client that offered
// ModeNullCipher sends its payloads in the clear, and the offer travels in
// the cleartext hello. ReadPlaintext returns nil when hello is missing,
// malformed or offers any other mode, and for records of any other shape —
// callers use it to test whether a capture is readable at all.
func ReadPlaintext(hello, rec []byte) []byte {
	if mode, ok := helloMode(hello); !ok || mode != ModeNullCipher {
		return nil
	}
	n, ok := RecordLen(rec)
	if !ok || n != len(rec) || n < HeaderLen+explicitSeqLen || RecordType(rec[0]) != RecordApplication {
		return nil
	}
	return rec[HeaderLen+explicitSeqLen:]
}

// helloMode decodes the replay mode a captured hello record offers: the
// 48-byte body offers ModeSeqBound, the 50-byte body carries its mode byte.
// It reports false for any other record, and for an undefined mode.
func helloMode(rec []byte) (ReplayMode, bool) {
	if n, ok := RecordLen(rec); !ok || n != len(rec) || RecordType(rec[0]) != RecordHandshake {
		return 0, false
	}
	mode, _, ok := helloOffer(rec[HeaderLen:])
	return mode, ok
}

// helloOffer decodes the replay-mode offer of a hello body: 48 bytes (key
// share and random) offer ModeSeqBound with no window; 50 bytes append the
// mode and window bytes. ok is false for any other length or an undefined
// mode.
func helloOffer(body []byte) (mode ReplayMode, window int, ok bool) {
	switch len(body) {
	case helloLen:
		return ModeSeqBound, 0, true
	case helloLen + 2:
		mode = ReplayMode(body[helloLen])
		return mode, clampWindow(int(body[helloLen+1])), mode.Valid()
	}
	return 0, 0, false
}
