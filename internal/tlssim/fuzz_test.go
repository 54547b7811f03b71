package tlssim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"time"
)

var fuzzModes = []ReplayMode{ModeSeqBound, ModeLegacyNonce, ModeNullCipher}

// FuzzHello: a fresh server fed an arbitrary hello body establishes exactly
// when the body is a 48-byte hello or a 50-byte one whose mode byte is
// defined, adopts the offered mode and clamped window, and otherwise fails
// with one ErrBadRecord close. The capture-side decoder (helloMode) agrees.
func FuzzHello(f *testing.F) {
	for _, mode := range fuzzModes {
		for _, window := range []int{0, 8} {
			e := newModeEnv(f, mode, window)
			f.Add(e.cli.helloRecord()[HeaderLen:])
		}
	}
	f.Add(newEnv(f).srv.helloRecord()[HeaderLen:])
	f.Add(make([]byte, 30))
	f.Add(append(make([]byte, helloLen), 0xEE, 0))
	f.Add(append(make([]byte, helloLen), byte(ModeNullCipher), 0xFF))
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > maxPlaintext {
			return // no record frames it: the length field would wrap
		}
		s := rawHello(t, body)
		wantOK := len(body) == helloLen ||
			(len(body) == helloLen+2 && body[helloLen] <= byte(ModeNullCipher))
		if s.conn.Established() != wantOK {
			t.Fatalf("%d-byte hello: established = %v, want %v", len(body), s.conn.Established(), wantOK)
		}
		mode, ok := helloMode(plainRecord(RecordHandshake, body))
		if ok != wantOK {
			t.Fatalf("%d-byte hello: helloMode ok = %v, want %v", len(body), ok, wantOK)
		}
		if !wantOK {
			if len(s.closes) != 1 || !errors.Is(s.closes[0], ErrBadRecord) {
				t.Fatalf("rejected hello: close errors = %v, want one ErrBadRecord", s.closes)
			}
			return
		}
		if len(s.closes) != 0 {
			t.Fatalf("accepted hello closed the session: %v", s.closes)
		}
		wantMode, wantWindow := ModeSeqBound, 0
		if len(body) > helloLen {
			wantMode, wantWindow = ReplayMode(body[helloLen]), min(int(body[helloLen+1]), MaxReplayWindow)
		}
		if s.conn.Mode() != wantMode || mode != wantMode || s.conn.ReplayWindowSize() != wantWindow {
			t.Fatalf("adopted %v/%d, helloMode %v; want %v/%d",
				s.conn.Mode(), s.conn.ReplayWindowSize(), mode, wantMode, wantWindow)
		}
	})
}

// FuzzRecordStream feeds arbitrary bytes, in two chunks, to the record
// decoder of one endpoint of an established pair in each replay mode. The
// corpus seeds are real sealed records, which verify on the fresh pair:
// every pair is built from the same seed, so it derives the same keys.
//
// Properties: no panic; OnClose fires at most once per endpoint and no
// message is delivered after it; each message comes from its own
// application record; and in null-cipher mode, the delivered messages are
// exactly what ReadPlaintext reads from those records under the session's
// client hello.
func FuzzRecordStream(f *testing.F) {
	for i, mode := range fuzzModes {
		e := newModeEnv(f, mode, 0)
		up := append(e.cli.seal(RecordApplication, []byte("event: motion active")),
			e.cli.seal(RecordApplication, []byte("keepalive"))...)
		down := e.srv.seal(RecordApplication, []byte("command: lock door"))
		f.Add(byte(i), false, uint16(7), up)
		f.Add(byte(i), true, uint16(0), down)
		f.Add(byte(i), false, uint16(3), append(up[:len(up)/2:len(up)/2], up...))
		f.Add(byte(i), false, uint16(0), plainRecord(RecordAlert, []byte("bad_record_mac")))
		f.Add(byte(i), false, uint16(0), e.cli.helloRecord())
	}
	f.Add(byte(0), false, uint16(2), []byte{byte(RecordApplication), 3, 3, 0, 4, 1, 2, 3})
	f.Fuzz(func(t *testing.T, modeSel byte, toClient bool, split uint16, data []byte) {
		mode := fuzzModes[int(modeSel)%len(fuzzModes)]
		e := newModeEnv(t, mode, 0)
		rx, peer := e.srv, e.cli
		if toClient {
			rx, peer = e.cli, e.srv
		}
		var msgs [][]byte
		rxCloses, peerCloses := 0, 0
		rx.OnMessage = func(m []byte) {
			if rxCloses > 0 {
				t.Fatal("message delivered after close")
			}
			msgs = append(msgs, append([]byte(nil), m...))
		}
		rx.OnClose = func(error) { rxCloses++ }
		peer.OnClose = func(error) { peerCloses++ }

		cut := int(split) % (len(data) + 1)
		rx.onData(data[:cut])
		rx.onData(data[cut:])
		e.clk.RunFor(time.Second)

		if rxCloses > 1 || peerCloses > 1 {
			t.Fatalf("OnClose fired %d and %d times, want at most once each", rxCloses, peerCloses)
		}
		apps := applicationRecords(data)
		if len(msgs) > len(apps) {
			t.Fatalf("%d messages from %d application records", len(msgs), len(apps))
		}
		if mode != ModeNullCipher {
			return
		}
		hello := e.cli.helloRecord()
		for i, m := range msgs {
			if p := ReadPlaintext(hello, apps[i]); !bytes.Equal(p, m) {
				t.Fatalf("message %d = %q, ReadPlaintext reads %q", i, m, p)
			}
		}
	})
}

// applicationRecords splits a record stream at its cleartext headers and
// returns the complete application records, headers included.
func applicationRecords(data []byte) [][]byte {
	var out [][]byte
	for len(data) >= HeaderLen {
		n := HeaderLen + int(binary.BigEndian.Uint16(data[3:5]))
		if len(data) < n {
			break
		}
		if RecordType(data[0]) == RecordApplication {
			out = append(out, data[:n])
		}
		data = data[n:]
	}
	return out
}

// FuzzReadPlaintext: readability comes only from a null-cipher client
// hello, decoded here independently of the package's parser. Whatever the
// inputs, a non-nil result is the payload after the explicit sequence of a
// well-formed application record.
func FuzzReadPlaintext(f *testing.F) {
	for _, mode := range fuzzModes {
		e := newModeEnv(f, mode, 0)
		rec := e.cli.seal(RecordApplication, []byte("event: motion active"))
		f.Add(e.cli.helloRecord(), rec)
		f.Add(e.srv.helloRecord(), rec)
		f.Add([]byte(nil), rec)
	}
	f.Fuzz(func(t *testing.T, hello, rec []byte) {
		p := ReadPlaintext(hello, rec)
		nullHello := len(hello) == HeaderLen+helloLen+2 &&
			RecordType(hello[0]) == RecordHandshake &&
			int(binary.BigEndian.Uint16(hello[3:5])) == helloLen+2 &&
			ReplayMode(hello[HeaderLen+helloLen]) == ModeNullCipher
		if p == nil {
			return
		}
		if !nullHello {
			t.Fatalf("read %d bytes under a hello that offers no null-cipher: %x", len(p), hello)
		}
		wellFormed := len(rec) >= HeaderLen+explicitSeqLen &&
			RecordType(rec[0]) == RecordApplication &&
			int(binary.BigEndian.Uint16(rec[3:5])) == len(rec)-HeaderLen
		if !wellFormed || !bytes.Equal(p, rec[HeaderLen+explicitSeqLen:]) {
			t.Fatalf("read %q from malformed or misaligned record %x", p, rec)
		}
	})
}
