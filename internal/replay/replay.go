// Package replay implements the record-and-replay attack family: the
// attacker retains captured TLS record bytes (sniff.Capture in payload
// retention mode) and re-issues them against the victim's cloud, either
// verbatim on the hijacked session (raw injection) or re-encoded over a
// fresh attacker session at the application layer.
//
// Whether a replay lands depends entirely on the victim stack's replay
// protections, which is what the per-device assessment in
// internal/experiment classifies:
//
//   - seq-bound TLS rejects raw duplicates outright (bad_record_mac and
//     session teardown) and its ciphertext is unreadable, so both paths
//     die — the device is protected by its transport;
//   - legacy explicit-nonce TLS decrypts a verbatim replay against the
//     carried sequence, so raw injection works unless a DTLS-style
//     anti-replay window or server-side dedup discards the duplicate;
//   - null-cipher firmware additionally exposes the plaintext, so even a
//     window-protected session replays from a fresh attacker connection
//     unless the vendor cloud deduplicates events.
package replay

import (
	"errors"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sniff"
	"repro/internal/tcpsim"
	"repro/internal/tlssim"
)

// Replay failure modes. These are preconditions, not verdicts: a replay
// that injects cleanly can still be silently dropped by the receiver.
var (
	// ErrNoPayload reports a record whose raw bytes were not retained
	// (capture not in retention mode, or the budget evicted them).
	ErrNoPayload = errors.New("replay: record payload not retained")
	// ErrNoBridge reports that the hijacker has no live bridge to inject
	// into (the session closed, or never existed — on-demand devices).
	ErrNoBridge = errors.New("replay: no live hijacked session")
	// ErrNotReadable reports a capture with no null-cipher plaintext to
	// re-issue at the application layer.
	ErrNotReadable = errors.New("replay: no readable plaintext in capture")
)

// Engine drives replay injections from one attacker foothold. The zero
// handles are no-ops; Instrument attaches counters and the trace ring.
type Engine struct {
	atk *core.Attacker

	injectedRaw *obs.Counter
	injectedApp *obs.Counter
	accepted    *obs.Counter
	rejected    *obs.Counter
	trace       *obs.Trace
}

// NewEngine creates an uninstrumented engine over the attacker's stacks.
func NewEngine(atk *core.Attacker) *Engine { return &Engine{atk: atk} }

// Instrument registers the engine's metrics with reg:
//
//	replay_injected_total{mode}   injections attempted (raw or app)
//	replay_accepted_total         injections the receiving cloud accepted
//	replay_rejected_total         injections dropped anywhere downstream
//
// and attaches the registry's trace ring (when enabled) so injections and
// verdicts land in the flight recorder.
func (e *Engine) Instrument(reg *obs.Registry) {
	e.injectedRaw = reg.Counter("replay_injected_total", obs.L("mode", "raw"))
	e.injectedApp = reg.Counter("replay_injected_total", obs.L("mode", "app"))
	e.accepted = reg.Counter("replay_accepted_total")
	e.rejected = reg.Counter("replay_rejected_total")
	if tr := reg.Trace(); tr.Enabled() {
		e.trace = tr
	}
}

func (e *Engine) emit(event, detail string, value int64) {
	if e.trace == nil {
		return
	}
	e.trace.Emit(e.atk.Clock.Now(), "replay", event, detail, value)
}

// RawReplay re-injects a captured record's wire bytes into the hijacker's
// live bridge, in the record's original direction. The receiver's TLS
// stack decides the outcome: seq-bound sessions alert and tear down,
// explicit-sequence sessions accept the duplicate or window-drop it.
func (e *Engine) RawReplay(h *core.Hijacker, rec sniff.RecordMeta) error {
	if len(rec.Payload) == 0 {
		return ErrNoPayload
	}
	b, ok := h.CurrentBridge()
	if !ok {
		return ErrNoBridge
	}
	b.Inject(rec.Dir, rec.Payload)
	e.injectedRaw.Inc()
	e.emit("replay_injected", "raw:"+h.Target().Model, int64(rec.WireLen))
	return nil
}

// AppSession is one fresh attacker connection replaying captured
// plaintexts at the application layer. The session is deliberately left
// open after sending: gracefully closing a superseding MQTT session
// raises the broker's device-offline alarm, while an idle session is
// reaped silently (Finding 3) or superseded by the real device's next
// message without any alarm (Finding 2).
type AppSession struct {
	// Conn is the attacker's TLS session to the server.
	Conn *tlssim.Conn
	// Sent counts the plaintexts queued for the session; they go out when
	// the handshake completes (drive the simulation clock to land them).
	Sent int
}

// AppReplay re-issues the readable device-to-server plaintexts of a
// captured conversation, in capture order, over a fresh attacker session
// to the server. Readability comes from the flow's captured client hello,
// which is cleartext: only a session that negotiated null-cipher carries
// plaintext, so a capture whose hello was not retained, or offers any other
// mode, returns ErrNotReadable before any connection is made. Records of
// other flows are ignored. Replaying the full prefix (connect/keepalive
// traffic and then the event) reproduces the device's own conversation
// shape, so brokers that expect a CONNECT before PUBLISH are satisfied too.
func (e *Engine) AppReplay(server tcpsim.Endpoint, records []sniff.RecordMeta) (*AppSession, error) {
	var plains [][]byte
	if hello, flow, ok := clientHello(records); ok {
		for _, r := range records {
			if r.Flow != flow || r.Dir != sniff.DirClientToServer {
				continue
			}
			if p := tlssim.ReadPlaintext(hello, r.Payload); p != nil {
				plains = append(plains, p)
			}
		}
	}
	if len(plains) == 0 {
		return nil, ErrNotReadable
	}
	// The attacker has no device keys, so it offers the one mode it can
	// speak without them; the server adopts the client's offer.
	tcp := e.atk.TCP.Dial(server)
	sess := tlssim.ClientWithMode(tcp, e.atk.RNG(), tlssim.ModeNullCipher, 0)
	s := &AppSession{Conn: sess}
	sess.OnEstablished = func() {
		for _, p := range plains {
			if sess.Send(p) == nil {
				s.Sent++
			}
		}
		e.injectedApp.Add(uint64(s.Sent))
		e.emit("replay_injected", "app", int64(s.Sent))
	}
	return s, nil
}

// ReportOutcome records the ground-truth verdict for one injection —
// whether the replayed event was ultimately accepted by the automation
// backend — into the engine's metrics and trace.
func (e *Engine) ReportOutcome(target string, accepted bool) {
	if accepted {
		e.accepted.Inc()
		e.emit("replay_accepted", target, 1)
		return
	}
	e.rejected.Inc()
	e.emit("replay_rejected", target, 0)
}

// clientHello returns the retained bytes and the flow of the first
// device-to-server handshake record in records: the client hello of that
// flow's session. Its payload is nil when the retention budget evicted it.
func clientHello(records []sniff.RecordMeta) ([]byte, sniff.FlowKey, bool) {
	for _, r := range records {
		if r.Dir == sniff.DirClientToServer && r.Type == tlssim.RecordHandshake {
			return r.Payload, r.Flow, true
		}
	}
	return nil, sniff.FlowKey{}, false
}

// FindEventRecord scans a capture newest-first for the latest
// payload-bearing application record that the classifier attributes to
// origin's event message on owner's session, returning its index.
func FindEventRecord(cl *sniff.Classifier, owner, origin string, records []sniff.RecordMeta) (int, bool) {
	for i := len(records) - 1; i >= 0; i-- {
		r := records[i]
		if r.Dir != sniff.DirClientToServer || len(r.Payload) == 0 || r.Type != tlssim.RecordApplication {
			continue
		}
		if m, ok := cl.Classify(owner, r); ok && m.Kind == sniff.KindEvent && m.Origin == origin {
			return i, true
		}
	}
	return 0, false
}

// SessionPrefix returns the device-to-server records of records[idx]'s
// flow up to and including idx, in capture order — the conversation an
// application-layer replay re-issues against a fresh session.
func SessionPrefix(records []sniff.RecordMeta, idx int) []sniff.RecordMeta {
	if idx < 0 || idx >= len(records) {
		return nil
	}
	flow := records[idx].Flow
	var out []sniff.RecordMeta
	for i := 0; i <= idx; i++ {
		if records[i].Flow == flow && records[i].Dir == sniff.DirClientToServer {
			out = append(out, records[i])
		}
	}
	return out
}
