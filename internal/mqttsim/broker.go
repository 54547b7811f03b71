package mqttsim

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/proto"
	"repro/internal/simtime"
	"repro/internal/tlssim"
)

// BrokerConfig parameterises the server side.
type BrokerConfig struct {
	// EnforceKeepAlive enables spec-style liveness: a client that sends
	// nothing for GraceFactor × its advertised keep-alive is dropped with a
	// "device offline" alarm. Off by default, matching the paper's Finding
	// 3: production servers are passive and treat silence as idleness.
	EnforceKeepAlive bool
	// GraceFactor scales the advertised keep-alive when enforcement is on.
	// Default 1.5, the MQTT-specified tolerance.
	GraceFactor float64
	// ConnAckLen pads CONNACK packets.
	ConnAckLen int
	// PingRespLen pads PINGRESP packets.
	PingRespLen int
}

func (c *BrokerConfig) fill() {
	if c.GraceFactor <= 0 {
		c.GraceFactor = 1.5
	}
}

// Session is one broker-side MQTT session. A client that reconnects gets a
// new Session; superseded sessions linger half-open (Finding 2).
type Session struct {
	broker    *Broker
	sess      *tlssim.Conn
	clientID  string
	keepAlive time.Duration
	connected bool
	closed    bool
	clean     bool
	deadline  *simtime.Timer
	subs      map[string]bool
}

// ClientID returns the session's client identifier (empty before CONNECT).
func (s *Session) ClientID() string { return s.clientID }

// CommandResult reports the outcome of a broker-initiated PUBLISH that
// requested acknowledgement.
type CommandResult struct {
	ID       uint16
	Acked    bool
	Duration time.Duration
}

// ErrNoSession reports a command for a client with no live session.
var ErrNoSession = errors.New("mqttsim: client has no live session")

// Broker is the server side of the MQTT protocol. One broker serves all
// devices of one endpoint cloud.
type Broker struct {
	clk      *simtime.Clock
	cfg      BrokerConfig
	active   map[string]*Session
	halfOpen map[string][]*Session
	pending  map[uint16]*pendingCommand
	nextID   uint16
	alarms   []proto.Alarm

	// OnConnect fires when a client completes CONNECT.
	OnConnect func(*Session)
	// OnPublish delivers every client PUBLISH to the server application.
	OnPublish func(*Session, Packet)
	// OnAlarm fires for every raised alarm (also recorded in Alarms).
	OnAlarm func(proto.Alarm)
}

type pendingCommand struct {
	session *Session
	sentAt  simtime.Time
	timer   *simtime.Timer
	done    func(CommandResult)
}

// NewBroker creates a broker.
func NewBroker(clk *simtime.Clock, cfg BrokerConfig) *Broker {
	cfg.fill()
	return &Broker{
		clk:      clk,
		cfg:      cfg,
		active:   make(map[string]*Session),
		halfOpen: make(map[string][]*Session),
		pending:  make(map[uint16]*pendingCommand),
		nextID:   1,
	}
}

// Accept attaches broker protocol handling to an inbound TLS session.
func (b *Broker) Accept(sess *tlssim.Conn) *Session {
	s := &Session{broker: b, sess: sess, subs: make(map[string]bool)}
	sess.OnMessage = func(m []byte) { b.onMessage(s, m) }
	sess.OnClose = func(error) { b.onSessionClosed(s) }
	return s
}

// Alarms returns all alarms raised so far.
func (b *Broker) Alarms() []proto.Alarm {
	out := make([]proto.Alarm, len(b.alarms))
	copy(out, b.alarms)
	return out
}

// ActiveSession returns the live session for a client, if any.
func (b *Broker) ActiveSession(clientID string) (*Session, bool) {
	s, ok := b.active[clientID]
	return s, ok
}

// HalfOpenCount reports how many superseded sessions linger for a client —
// the Finding 2 observable.
func (b *Broker) HalfOpenCount(clientID string) int {
	return len(b.halfOpen[clientID])
}

// Publish pushes a command message to a client's live session, padded to
// padTo bytes. If ackTimeout is nonzero the broker waits that long for a
// PUBACK; on expiry it closes the session (the paper's measured behaviour
// for command timeouts, e.g. Philips Hue's 21s) and reports Acked=false.
// done may be nil.
func (b *Broker) Publish(clientID, topic string, payload []byte, padTo int, ackTimeout time.Duration, done func(CommandResult)) error {
	s, ok := b.active[clientID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSession, clientID)
	}
	id := b.nextID
	b.nextID++
	if b.nextID == 0 {
		b.nextID = 1
	}
	pkt := Packet{
		Type:      PacketPublish,
		Topic:     topic,
		ID:        id,
		Payload:   payload,
		Timestamp: b.clk.Now(),
	}
	if err := s.sess.Send(pkt.Marshal(padTo)); err != nil {
		return err
	}
	pc := &pendingCommand{session: s, sentAt: b.clk.Now(), done: done}
	b.pending[id] = pc
	if ackTimeout > 0 {
		pc.timer = b.clk.Schedule(ackTimeout, func() {
			delete(b.pending, id)
			b.raiseAlarm(clientID, "command-timeout", topic)
			s.close(true)
			if done != nil {
				done(CommandResult{ID: id, Acked: false, Duration: b.clk.Now() - pc.sentAt})
			}
		})
	}
	return nil
}

func (b *Broker) onMessage(s *Session, m []byte) {
	pkt, err := Unmarshal(m)
	if err != nil {
		return
	}
	s.resetDeadline()
	switch pkt.Type {
	case PacketConnect:
		b.handleConnect(s, pkt)
	case PacketPingReq:
		s.send(Packet{Type: PacketPingResp}, b.cfg.PingRespLen)
	case PacketSubscribe:
		s.subs[pkt.Topic] = true
		s.send(Packet{Type: PacketSubAck}, 0)
	case PacketPublish:
		if pkt.ID != 0 {
			s.send(Packet{Type: PacketPubAck, ID: pkt.ID}, 0)
		}
		if b.OnPublish != nil {
			b.OnPublish(s, pkt)
		}
	case PacketPubAck:
		if pc, ok := b.pending[pkt.ID]; ok {
			delete(b.pending, pkt.ID)
			if pc.timer != nil {
				pc.timer.Stop()
			}
			if pc.done != nil {
				pc.done(CommandResult{ID: pkt.ID, Acked: true, Duration: b.clk.Now() - pc.sentAt})
			}
		}
	case PacketDisconnect:
		s.clean = true
		s.close(false)
	}
}

func (b *Broker) handleConnect(s *Session, pkt Packet) {
	s.clientID = pkt.ClientID
	s.keepAlive = pkt.KeepAlive
	s.connected = true
	// A reconnecting client supersedes its previous session, which is kept
	// half-open without any alarm (Finding 2).
	if old, ok := b.active[s.clientID]; ok && old != s && !old.closed {
		b.halfOpen[s.clientID] = append(b.halfOpen[s.clientID], old)
	}
	b.active[s.clientID] = s
	s.resetDeadline()
	s.send(Packet{Type: PacketConnAck}, b.cfg.ConnAckLen)
	if b.OnConnect != nil {
		b.OnConnect(s)
	}
}

func (b *Broker) onSessionClosed(s *Session) {
	if s.closed {
		return
	}
	s.closed = true
	s.deadline.Stop()
	if s.clientID == "" {
		return
	}
	// Drop from the half-open list if it lingered there.
	ho := b.halfOpen[s.clientID]
	for i, old := range ho {
		if old == s {
			b.halfOpen[s.clientID] = append(ho[:i], ho[i+1:]...)
			// A superseded session dying is unremarkable: a live
			// replacement exists, so no alarm (Finding 2).
			return
		}
	}
	if b.active[s.clientID] == s {
		delete(b.active, s.clientID)
		if !s.clean {
			b.raiseAlarm(s.clientID, "device-offline", "connection lost with no replacement")
		}
	}
}

func (b *Broker) raiseAlarm(clientID, kind, detail string) {
	a := proto.Alarm{At: b.clk.Now(), ClientID: clientID, Kind: kind, Detail: detail}
	b.alarms = append(b.alarms, a)
	if b.OnAlarm != nil {
		b.OnAlarm(a)
	}
}

func (s *Session) send(pkt Packet, padTo int) {
	// Transport errors surface through the session's OnClose.
	_ = s.sess.Send(pkt.Marshal(padTo))
}

// resetDeadline pushes the enforcement deadline back on every client
// packet. The alarm timer is allocated once per session and rearmed in
// place; before Timer.Reset existed this path scheduled a fresh event per
// packet and left the cancelled one tombstoned in the heap until its
// grace deadline passed, retaining the session from the closure.
func (s *Session) resetDeadline() {
	if !s.broker.cfg.EnforceKeepAlive || s.keepAlive <= 0 {
		return
	}
	if s.deadline == nil {
		s.deadline = s.broker.clk.NewTimer(func() {
			s.broker.raiseAlarm(s.clientID, "device-offline", "keep-alive deadline missed")
			s.close(true)
		})
	}
	grace := time.Duration(float64(s.keepAlive) * s.broker.cfg.GraceFactor)
	s.deadline.Reset(grace)
}

// close ends the session from the broker side.
func (s *Session) close(abort bool) {
	if s.closed {
		return
	}
	// The enforcement alarm must not outlive the session: a clean
	// DISCONNECT arrives through onMessage, which just rearmed the
	// deadline via resetDeadline.
	s.deadline.Stop()
	if abort {
		s.sess.Close()
	} else {
		s.send(Packet{Type: PacketDisconnect}, 0)
		s.sess.Close()
	}
	s.broker.onSessionClosed(s)
}
