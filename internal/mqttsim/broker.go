package mqttsim

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/proto"
	"repro/internal/simtime"
	"repro/internal/tlssim"
)

// Session is one broker-side MQTT session. A client that reconnects gets a
// new Session; superseded sessions linger half-open (Finding 2).
type Session struct {
	broker   *Broker
	sess     *tlssim.Conn
	clientID string
	closed   bool
	clean    bool
}

// ClientID returns the session's client identifier (empty before CONNECT).
func (s *Session) ClientID() string { return s.clientID }

// ErrNoSession reports a command for a client with no live session.
var ErrNoSession = errors.New("mqttsim: client has no live session")

// Broker is the server side of the MQTT protocol. One broker serves all
// devices of one endpoint cloud.
type Broker struct {
	clk      *simtime.Clock
	sessions proto.Sessions[*Session]
	commands proto.Commands
	alarms   proto.AlarmLog
	// txbuf is the encoding scratch for every message sent: tlssim.Conn.Send
	// seals a message into its own buffer before it returns, so one
	// buffer serves them all.
	txbuf []byte

	// OnPublish delivers every client PUBLISH to the server application.
	OnPublish func(*Session, Packet)
}

// NewBroker creates a broker.
func NewBroker(clk *simtime.Clock) *Broker {
	return &Broker{clk: clk, commands: proto.NewCommands(clk)}
}

// Accept attaches broker protocol handling to an inbound TLS session.
func (b *Broker) Accept(sess *tlssim.Conn) *Session {
	s := &Session{broker: b, sess: sess}
	sess.OnMessage = func(m []byte) { b.onMessage(s, m) }
	sess.OnClose = func(error) { b.onSessionClosed(s) }
	return s
}

// Alarms returns all alarms raised so far.
func (b *Broker) Alarms() []proto.Alarm { return b.alarms.All() }

// AlarmCount returns the number of alarms raised so far.
func (b *Broker) AlarmCount() int { return b.alarms.Count() }

// ActiveSession returns the live session for a client, if any.
func (b *Broker) ActiveSession(clientID string) (*Session, bool) {
	return b.sessions.Live(clientID)
}

// HalfOpenCount reports how many superseded sessions linger for a client —
// the Finding 2 observable.
func (b *Broker) HalfOpenCount(clientID string) int {
	return b.sessions.HalfOpen(clientID)
}

// Publish pushes a command message to a client's live session, padded to
// padTo bytes. If ackTimeout is nonzero the broker waits that long for a
// PUBACK; on expiry it closes the session (the paper's measured behaviour
// for command timeouts, e.g. Philips Hue's 21s) and reports Acked=false.
// done may be nil.
func (b *Broker) Publish(clientID, topic string, payload []byte, padTo int, ackTimeout time.Duration, done func(proto.CommandResult)) error {
	s, ok := b.sessions.Live(clientID)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSession, clientID)
	}
	id := b.commands.NextID()
	pkt := Packet{
		Type:      PacketPublish,
		Topic:     topic,
		ID:        id,
		Payload:   payload,
		Timestamp: b.clk.Now(),
	}
	b.txbuf = pkt.AppendTo(b.txbuf[:0], padTo)
	if err := s.sess.Send(b.txbuf); err != nil {
		return err
	}
	b.commands.Await(id, ackTimeout, func(uint16) {
		b.alarms.Raise(b.clk.Now(), clientID, "command-timeout", topic)
		s.close(true)
	}, done)
	return nil
}

func (b *Broker) onMessage(s *Session, m []byte) {
	pkt, err := Unmarshal(m)
	if err != nil {
		return
	}
	switch pkt.Type {
	case PacketConnect:
		s.clientID = pkt.ClientID
		// A reconnecting client supersedes its previous session, which is
		// kept half-open without any alarm (Finding 2).
		b.sessions.Bind(s.clientID, s)
		s.send(Packet{Type: PacketConnAck}, 0)
	case PacketPingReq:
		s.send(Packet{Type: PacketPingResp}, 0)
	case PacketPublish:
		if pkt.ID != 0 {
			s.send(Packet{Type: PacketPubAck, ID: pkt.ID}, 0)
		}
		if b.OnPublish != nil {
			b.OnPublish(s, pkt)
		}
	case PacketPubAck:
		b.commands.Ack(pkt.ID)
	case PacketDisconnect:
		s.clean = true
		s.close(false)
	}
}

func (b *Broker) onSessionClosed(s *Session) {
	if s.closed {
		return
	}
	s.closed = true
	// Only a client's live session ending unannounced is news: a superseded
	// one dying leaves a live replacement (Finding 2).
	if b.sessions.Drop(s.clientID, s) && !s.clean {
		b.alarms.Raise(b.clk.Now(), s.clientID, "device-offline", "connection lost with no replacement")
	}
}

func (s *Session) send(pkt Packet, padTo int) {
	b := s.broker
	b.txbuf = pkt.AppendTo(b.txbuf[:0], padTo)
	// Transport errors surface through the session's OnClose.
	_ = s.sess.Send(b.txbuf)
}

// close ends the session from the broker side.
func (s *Session) close(abort bool) {
	if s.closed {
		return
	}
	if !abort {
		s.send(Packet{Type: PacketDisconnect}, 0)
	}
	s.sess.Close()
	s.broker.onSessionClosed(s)
}
