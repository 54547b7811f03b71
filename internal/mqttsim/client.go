package mqttsim

import (
	"errors"
	"time"

	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/simtime"
	"repro/internal/tlssim"
)

// ClientConfig parameterises a device-side MQTT session. The three timeout
// fields are exactly the paper's three timeout-behaviour parameters.
type ClientConfig struct {
	ClientID string
	// KeepAlive is the ping period. Required.
	KeepAlive time.Duration
	// Pattern selects fixed-period or on-idle pings. Default on-idle.
	Pattern proto.Pattern
	// PingTimeout is how long the client waits for a PINGRESP before
	// declaring the session dead (keep-alive timeout threshold). Required.
	PingTimeout time.Duration
	// AckTimeout bounds the wait for a PUBACK to an acknowledged PUBLISH.
	// Zero means no timeout for normal messages (the "∞" rows of Table I):
	// the spec does not mandate one.
	AckTimeout time.Duration
	// PingLen pads PINGREQ packets to the device's keep-alive wire length.
	PingLen int
}

// ErrNotConnected reports use of a client before CONNACK.
var ErrNotConnected = errors.New("mqttsim: not connected")

// Client is the device side of an MQTT session over one TLS connection.
type Client struct {
	clk  *simtime.Clock
	sess *tlssim.Conn
	cfg  ClientConfig

	connected bool
	closed    bool
	trace     *obs.Trace

	pingTimer    *simtime.Timer
	pingDeadline *simtime.Timer
	acks         proto.Commands
	// expireAck ends the session when a PUBACK is overdue. It is bound
	// once per session, not once per message.
	expireAck func(id uint16)
	// txbuf is the encoding scratch for every message sent: tlssim.Conn.Send
	// seals a message into its own buffer before it returns, so one
	// buffer serves them all.
	txbuf []byte

	// OnConnected fires when the CONNACK arrives.
	OnConnected func()
	// OnCommand delivers PUBLISH packets pushed by the broker. The PUBACK
	// (when requested) is sent automatically before the callback runs.
	OnCommand func(Packet)
	// OnClosed fires exactly once when the session ends.
	OnClosed func(proto.CloseReason)
}

// NewClient attaches a client to a TLS session and initiates CONNECT as
// soon as the session is established.
func NewClient(clk *simtime.Clock, sess *tlssim.Conn, cfg ClientConfig) *Client {
	if cfg.KeepAlive <= 0 {
		panic("mqttsim: ClientConfig.KeepAlive is required")
	}
	if cfg.PingTimeout <= 0 {
		panic("mqttsim: ClientConfig.PingTimeout is required")
	}
	if cfg.Pattern == 0 {
		cfg.Pattern = proto.PatternOnIdle
	}
	c := &Client{clk: clk, sess: sess, cfg: cfg, acks: proto.NewCommands(clk)}
	c.expireAck = func(id uint16) {
		c.emit("ack_timeout", c.cfg.ClientID, int64(id))
		c.shutdown(proto.ReasonAckTimeout)
	}
	sess.OnMessage = c.onMessage
	sess.OnClose = func(error) { c.teardown(proto.ReasonTransport) }
	if sess.Established() {
		c.sendConnect()
	} else {
		sess.OnEstablished = c.sendConnect
	}
	return c
}

// Instrument attaches a trace ring so the client emits "mqtt" events
// (keep-alive send/answer/timeout, publish/puback, close), labeled by the
// client ID. A nil or disabled trace keeps the client silent.
func (c *Client) Instrument(tr *obs.Trace) {
	if !tr.Enabled() {
		return
	}
	c.trace = tr
}

func (c *Client) emit(event, detail string, value int64) {
	if c.trace == nil {
		return
	}
	c.trace.Emit(c.clk.Now(), "mqtt", event, detail, value)
}

// Connected reports whether the CONNACK has arrived.
func (c *Client) Connected() bool { return c.connected }

// Session returns the underlying TLS connection.
func (c *Client) Session() *tlssim.Conn { return c.sess }

func (c *Client) sendConnect() {
	pkt := Packet{Type: PacketConnect, ClientID: c.cfg.ClientID, KeepAlive: c.cfg.KeepAlive}
	c.send(pkt, 0)
}

// Publish sends an event message, padded to padTo bytes. If needAck is
// true the packet carries an ID and, when the client's AckTimeout is
// nonzero, a missing PUBACK ends the session with proto.ReasonAckTimeout.
func (c *Client) Publish(topic string, payload []byte, padTo int, needAck bool) (uint16, error) {
	if !c.connected {
		return 0, ErrNotConnected
	}
	var id uint16
	if needAck {
		id = c.acks.NextID()
	}
	pkt := Packet{
		Type:      PacketPublish,
		Topic:     topic,
		ID:        id,
		Payload:   payload,
		Timestamp: c.clk.Now(),
	}
	c.send(pkt, padTo)
	c.emit("publish", c.cfg.ClientID, int64(id))
	if needAck && c.cfg.AckTimeout > 0 {
		c.acks.Await(id, c.cfg.AckTimeout, c.expireAck, nil)
	}
	return id, nil
}

// Disconnect ends the session gracefully.
func (c *Client) Disconnect() {
	if c.closed {
		return
	}
	c.send(Packet{Type: PacketDisconnect}, 0)
	c.sess.Close()
	c.teardown(proto.ReasonGraceful)
}

func (c *Client) send(pkt Packet, padTo int) {
	c.txbuf = pkt.AppendTo(c.txbuf[:0], padTo)
	// Transport errors surface through the session's OnClose.
	_ = c.sess.Send(c.txbuf)
	if c.cfg.Pattern == proto.PatternOnIdle && c.connected && pkt.Type != PacketPingReq {
		c.armPing()
	}
}

// armPing pushes the next ping one keep-alive period out. On-idle
// sessions rearm on every send, so the timer is reused, not reallocated.
func (c *Client) armPing() {
	if c.pingTimer == nil {
		c.pingTimer = c.clk.NewTimer(c.sendPing)
	}
	c.pingTimer.Reset(c.cfg.KeepAlive)
}

func (c *Client) sendPing() {
	if c.closed || !c.connected {
		return
	}
	c.send(Packet{Type: PacketPingReq}, c.cfg.PingLen)
	c.emit("ka_sent", c.cfg.ClientID, 0)
	if c.pingDeadline == nil {
		c.pingDeadline = c.clk.NewTimer(func() {
			c.emit("ka_timeout", c.cfg.ClientID, 0)
			c.shutdown(proto.ReasonKeepAliveTimeout)
		})
	}
	if !c.pingDeadline.Active() {
		c.pingDeadline.Reset(c.cfg.PingTimeout)
	}
	// Both patterns schedule the next ping one period out; on-idle sessions
	// additionally push it back on every send (see send).
	c.armPing()
}

func (c *Client) onMessage(b []byte) {
	pkt, err := Unmarshal(b)
	if err != nil {
		return
	}
	switch pkt.Type {
	case PacketConnAck:
		c.connected = true
		c.armPing()
		if c.OnConnected != nil {
			c.OnConnected()
		}
	case PacketPingResp:
		c.emit("ka_answered", c.cfg.ClientID, 0)
		if c.pingDeadline != nil {
			c.pingDeadline.Stop()
		}
	case PacketPublish:
		if pkt.ID != 0 {
			c.send(Packet{Type: PacketPubAck, ID: pkt.ID}, 0)
		}
		if c.OnCommand != nil {
			c.OnCommand(pkt)
		}
	case PacketPubAck:
		c.emit("puback", c.cfg.ClientID, int64(pkt.ID))
		c.acks.Ack(pkt.ID)
	case PacketDisconnect:
		c.sess.Close()
		c.teardown(proto.ReasonServerClosed)
	}
}

// shutdown ends the session because a local timeout fired.
func (c *Client) shutdown(reason proto.CloseReason) {
	if c.closed {
		return
	}
	c.sess.Close()
	c.teardown(reason)
}

func (c *Client) teardown(reason proto.CloseReason) {
	if c.closed {
		return
	}
	if c.trace != nil {
		c.emit("closed", c.cfg.ClientID+":"+reason.String(), 0)
	}
	c.closed = true
	c.connected = false
	c.pingTimer.Stop()
	c.pingDeadline.Stop()
	c.acks.Stop()
	if c.OnClosed != nil {
		c.OnClosed(reason)
	}
}
