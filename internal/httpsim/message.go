// Package httpsim implements the HTTP-style request/response protocol many
// IoT devices speak to their vendor clouds: connectionless semantics over
// either a long-lived session (with application keep-alive exchanges) or
// on-demand sessions opened per event and closed after the response.
//
// Timeout behaviour mirrors the paper's description of HTTP-based IoT
// protocols: the sender of a request waits for the response up to a
// configurable threshold, then raises a 408-style timeout and drops the
// session. Servers are passive: they never probe devices (Finding 3), drop
// idle on-demand sessions silently (Finding 1), and only alarm when a
// device's last live long-lived session dies abruptly with no replacement
// (Finding 2).
package httpsim

import (
	"errors"

	"repro/internal/simtime"
	"repro/internal/wire"
)

// MsgType distinguishes requests from responses.
type MsgType uint8

// Message kinds.
const (
	MsgRequest MsgType = iota + 1
	MsgResponse
)

// Message is one HTTP-like message. Requests flow in both directions:
// device→server (events, keep-alives) and server→device (commands).
type Message struct {
	Type MsgType
	// ID correlates a response to its request.
	ID uint16
	// DeviceID identifies the device on every device→server request, which
	// is how on-demand sessions get bound to an identity.
	DeviceID string
	// Path names the operation, e.g. "/event", "/keepalive", "/command".
	Path string
	// Status carries the response code (200, 408, ...).
	Status uint16
	// Body is the operation payload.
	Body []byte
	// Timestamp is the sender's generation time; staleness policies and
	// the timestamp-checking countermeasure read it.
	Timestamp simtime.Time
}

// Response status codes used by the simulation.
const (
	StatusOK      uint16 = 200
	StatusTimeout uint16 = 408
)

// ErrBadMessage reports an undecodable message.
var ErrBadMessage = errors.New("httpsim: bad message")

// AppendTo appends the encoded message to dst, padded with zeros to at
// least padTo bytes.
func (m Message) AppendTo(dst []byte, padTo int) []byte {
	w := wire.Append(dst)
	w.U8(uint8(m.Type))
	w.U16(m.ID)
	w.String(m.DeviceID)
	w.String(m.Path)
	w.U16(m.Status)
	w.U64(uint64(m.Timestamp))
	w.Bytes16(m.Body)
	return w.PadTo(padTo).Bytes()
}

// Unmarshal decodes a message, ignoring trailing padding.
func Unmarshal(b []byte) (Message, error) {
	r := wire.NewReader(b)
	var m Message
	m.Type = MsgType(r.U8())
	m.ID = r.U16()
	m.DeviceID = r.String()
	m.Path = r.String()
	m.Status = r.U16()
	m.Timestamp = simtime.Time(r.U64())
	body := r.Bytes16()
	if r.Err() != nil {
		return Message{}, ErrBadMessage
	}
	if m.Type != MsgRequest && m.Type != MsgResponse {
		return Message{}, ErrBadMessage
	}
	if body != nil {
		m.Body = make([]byte, len(body))
		copy(m.Body, body)
	}
	return m, nil
}
