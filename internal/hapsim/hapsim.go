// Package hapsim implements a HomeKit-Accessory-Protocol-like local
// protocol between accessories and a hub (e.g. a HomePod).
//
// Its security-relevant property, per the paper's Table II discussion and
// Section VII: event messages are pushed without any acknowledgement, so
// an attacker can delay them with an effectively unbounded window — the
// hub cannot distinguish a delayed accessory from a quiet one. Commands do
// get responses, bounded by the hub's per-command timeout, and a failed
// command is the only way the hub ever notices anything ("No Response").
package hapsim

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/proto"
	"repro/internal/simtime"
	"repro/internal/tlssim"
	"repro/internal/wire"
)

// MsgType identifies a HAP-like message.
type MsgType uint8

// Message kinds.
const (
	MsgHello MsgType = iota + 1
	MsgEvent
	MsgCommand
	MsgCommandResp
)

// Message is one protocol message.
type Message struct {
	Type MsgType
	// AccessoryID travels in Hello.
	AccessoryID string
	// ID correlates Command and CommandResp.
	ID uint16
	// Characteristic and Value travel in Event and Command.
	Characteristic string
	Value          string
	// Timestamp is the sender's generation time.
	Timestamp simtime.Time
}

// ErrBadMessage reports an undecodable message.
var ErrBadMessage = errors.New("hapsim: bad message")

// AppendTo appends the encoded message to dst, padded to at least padTo
// bytes.
func (m Message) AppendTo(dst []byte, padTo int) []byte {
	w := wire.Append(dst)
	w.U8(uint8(m.Type))
	w.String(m.AccessoryID)
	w.U16(m.ID)
	w.String(m.Characteristic)
	w.String(m.Value)
	w.U64(uint64(m.Timestamp))
	return w.PadTo(padTo).Bytes()
}

// Unmarshal decodes a message, ignoring trailing padding.
func Unmarshal(b []byte) (Message, error) {
	r := wire.NewReader(b)
	var m Message
	m.Type = MsgType(r.U8())
	m.AccessoryID = r.String()
	m.ID = r.U16()
	m.Characteristic = r.String()
	m.Value = r.String()
	m.Timestamp = simtime.Time(r.U64())
	if r.Err() != nil || m.Type < MsgHello || m.Type > MsgCommandResp {
		return Message{}, ErrBadMessage
	}
	return m, nil
}

// Accessory is the device side of a HAP session.
type Accessory struct {
	clk         *simtime.Clock
	sess        *tlssim.Conn
	accessoryID string
	ready       bool
	closed      bool
	// txbuf is the encoding scratch for every message sent: tlssim.Conn.Send
	// seals a message into its own buffer before it returns, so one
	// buffer serves them all.
	txbuf []byte

	// OnReady fires once the session is usable.
	OnReady func()
	// OnCommand delivers hub commands; the response is sent automatically
	// before the callback runs.
	OnCommand func(Message)
	// OnClosed fires exactly once when the session ends.
	OnClosed func(proto.CloseReason)
}

// NewAccessory attaches an accessory to a TLS session toward the hub and
// announces itself once established.
func NewAccessory(clk *simtime.Clock, sess *tlssim.Conn, accessoryID string) *Accessory {
	a := &Accessory{clk: clk, sess: sess, accessoryID: accessoryID}
	sess.OnMessage = a.onMessage
	sess.OnClose = func(error) { a.teardown(proto.ReasonTransport) }
	hello := func() {
		m := Message{Type: MsgHello, AccessoryID: accessoryID, Timestamp: clk.Now()}
		a.txbuf = m.AppendTo(a.txbuf[:0], 0)
		_ = sess.Send(a.txbuf)
		a.ready = true
		if a.OnReady != nil {
			a.OnReady()
		}
	}
	if sess.Established() {
		hello()
	} else {
		sess.OnEstablished = hello
	}
	return a
}

// Ready reports whether the session is usable.
func (a *Accessory) Ready() bool { return a.ready && !a.closed }

// Session returns the underlying TLS connection.
func (a *Accessory) Session() *tlssim.Conn { return a.sess }

// SendEvent pushes a characteristic change to the hub. No acknowledgement
// exists; the call succeeds as soon as the record is written.
func (a *Accessory) SendEvent(characteristic, value string, padTo int) error {
	if !a.Ready() {
		return fmt.Errorf("hapsim: accessory %s not ready", a.accessoryID)
	}
	m := Message{
		Type:           MsgEvent,
		AccessoryID:    a.accessoryID,
		Characteristic: characteristic,
		Value:          value,
		Timestamp:      a.clk.Now(),
	}
	a.txbuf = m.AppendTo(a.txbuf[:0], padTo)
	return a.sess.Send(a.txbuf)
}

// Close ends the session gracefully.
func (a *Accessory) Close() {
	if a.closed {
		return
	}
	a.sess.Close()
	a.teardown(proto.ReasonGraceful)
}

func (a *Accessory) onMessage(b []byte) {
	m, err := Unmarshal(b)
	if err != nil {
		return
	}
	if m.Type != MsgCommand {
		return
	}
	resp := Message{
		Type:        MsgCommandResp,
		AccessoryID: a.accessoryID,
		ID:          m.ID,
		Timestamp:   a.clk.Now(),
	}
	a.txbuf = resp.AppendTo(a.txbuf[:0], 0)
	_ = a.sess.Send(a.txbuf)
	if a.OnCommand != nil {
		a.OnCommand(m)
	}
}

func (a *Accessory) teardown(reason proto.CloseReason) {
	if a.closed {
		return
	}
	a.closed = true
	a.ready = false
	if a.OnClosed != nil {
		a.OnClosed(reason)
	}
}

// ErrNoAccessory reports a command for an unknown accessory.
var ErrNoAccessory = errors.New("hapsim: accessory has no live session")

// CommandTimeout bounds each hub command's wait for a response; expiry
// raises a "no-response" alarm.
const CommandTimeout = 10 * time.Second

// Hub is the local IoT server side (a HomePod-like controller).
type Hub struct {
	clk      *simtime.Clock
	sessions proto.Sessions[*hubSession]
	commands proto.Commands
	alarms   proto.AlarmLog
	// txbuf is the encoding scratch for every message sent: tlssim.Conn.Send
	// seals a message into its own buffer before it returns, so one
	// buffer serves them all.
	txbuf []byte

	// OnEvent delivers accessory events.
	OnEvent func(accessoryID string, m Message)
}

type hubSession struct {
	sess        *tlssim.Conn
	accessoryID string
}

// NewHub creates a local hub.
func NewHub(clk *simtime.Clock) *Hub {
	return &Hub{clk: clk, commands: proto.NewCommands(clk)}
}

// Accept attaches hub protocol handling to an inbound TLS session.
func (h *Hub) Accept(sess *tlssim.Conn) {
	hs := &hubSession{sess: sess}
	sess.OnMessage = func(b []byte) { h.onMessage(hs, b) }
	// HomeKit raises no proactive offline alarm: absence is only noticed
	// when a command fails (Finding 3 in the local setting).
	sess.OnClose = func(error) { h.sessions.Drop(hs.accessoryID, hs) }
}

// Alarms returns the alarms raised so far.
func (h *Hub) Alarms() []proto.Alarm { return h.alarms.All() }

// AlarmCount returns the number of alarms raised so far.
func (h *Hub) AlarmCount() int { return h.alarms.Count() }

// LastAlarm returns the latest alarm, if any.
func (h *Hub) LastAlarm() (proto.Alarm, bool) { return h.alarms.Last() }

// Connected reports whether an accessory has a live session.
func (h *Hub) Connected(accessoryID string) bool {
	_, ok := h.sessions.Live(accessoryID)
	return ok
}

// Command writes a characteristic on an accessory. done may be nil.
func (h *Hub) Command(accessoryID, characteristic, value string, padTo int, done func(proto.CommandResult)) error {
	hs, ok := h.sessions.Live(accessoryID)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoAccessory, accessoryID)
	}
	id := h.commands.NextID()
	m := Message{
		Type:           MsgCommand,
		ID:             id,
		Characteristic: characteristic,
		Value:          value,
		Timestamp:      h.clk.Now(),
	}
	h.txbuf = m.AppendTo(h.txbuf[:0], padTo)
	if err := hs.sess.Send(h.txbuf); err != nil {
		return err
	}
	h.commands.Await(id, CommandTimeout, func(uint16) {
		h.alarms.Raise(h.clk.Now(), accessoryID, "no-response", characteristic)
	}, done)
	return nil
}

func (h *Hub) onMessage(hs *hubSession, b []byte) {
	m, err := Unmarshal(b)
	if err != nil {
		return
	}
	switch m.Type {
	case MsgHello:
		hs.accessoryID = m.AccessoryID
		h.sessions.Bind(m.AccessoryID, hs)
	case MsgEvent:
		if h.OnEvent != nil {
			h.OnEvent(hs.accessoryID, m)
		}
	case MsgCommandResp:
		h.commands.Ack(m.ID)
	}
}
