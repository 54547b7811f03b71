package httpsim

import (
	"errors"
	"time"

	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/simtime"
	"repro/internal/tlssim"
)

// ClientConfig parameterises the device side of an HTTP-like session.
type ClientConfig struct {
	DeviceID string
	// KeepAlive is the application keep-alive period for long-lived
	// sessions. Zero disables keep-alives (on-demand sessions).
	KeepAlive time.Duration
	// Pattern selects fixed-period or on-idle keep-alives.
	Pattern proto.Pattern
	// KeepAliveTimeout bounds the wait for a keep-alive response.
	// Required when KeepAlive is set.
	KeepAliveTimeout time.Duration
	// ResponseTimeout bounds the wait for a normal request's response
	// (the 408 threshold). Zero means no timeout.
	ResponseTimeout time.Duration
	// KeepAliveLen pads keep-alive requests to the device's wire length.
	KeepAliveLen int
}

// ErrNotReady reports a request before the session established.
var ErrNotReady = errors.New("httpsim: session not established")

// KeepAlivePath is the path keep-alive exchanges use.
const KeepAlivePath = "/keepalive"

// Client is the device side of one HTTP-like session.
type Client struct {
	clk  *simtime.Clock
	sess *tlssim.Conn
	cfg  ClientConfig

	ready  bool
	closed bool
	trace  *obs.Trace

	kaTimer *simtime.Timer
	// acks holds the requests awaiting a response, keep-alives included.
	// The two expiries are bound once per session, not once per request.
	acks                           proto.Commands
	expireRequest, expireKeepAlive func(id uint16)
	// txbuf is the encoding scratch for every message sent: tlssim.Conn.Send
	// seals a message into its own buffer before it returns, so one
	// buffer serves them all.
	txbuf []byte

	// OnReady fires when the session is usable.
	OnReady func()
	// OnResponse delivers responses to this client's requests.
	OnResponse func(Message)
	// OnCommand delivers server-initiated requests. The 200 response is
	// sent automatically before the callback runs.
	OnCommand func(Message)
	// OnClosed fires exactly once when the session ends.
	OnClosed func(proto.CloseReason)
}

// NewClient attaches a device-side HTTP client to a TLS session.
func NewClient(clk *simtime.Clock, sess *tlssim.Conn, cfg ClientConfig) *Client {
	if cfg.KeepAlive > 0 && cfg.KeepAliveTimeout <= 0 {
		panic("httpsim: KeepAliveTimeout required when KeepAlive is set")
	}
	if cfg.Pattern == 0 {
		cfg.Pattern = proto.PatternOnIdle
	}
	c := &Client{clk: clk, sess: sess, cfg: cfg, acks: proto.NewCommands(clk)}
	c.expireRequest = c.expiry("ack_timeout", proto.ReasonAckTimeout)
	c.expireKeepAlive = c.expiry("ka_timeout", proto.ReasonKeepAliveTimeout)
	sess.OnMessage = c.onMessage
	sess.OnClose = func(error) { c.teardown(proto.ReasonTransport) }
	becomeReady := func() {
		c.ready = true
		if c.cfg.KeepAlive > 0 {
			c.armKeepAlive()
		}
		if c.OnReady != nil {
			c.OnReady()
		}
	}
	if sess.Established() {
		becomeReady()
	} else {
		sess.OnEstablished = becomeReady
	}
	return c
}

// Instrument attaches a trace ring so the client emits "http" events
// (keep-alive send/answer/timeout, request/response, close), labeled by the
// device ID. A nil or disabled trace keeps the client silent.
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
	c.trace.Emit(c.clk.Now(), "http", event, detail, value)
}

// Ready reports whether the session is usable.
func (c *Client) Ready() bool { return c.ready && !c.closed }

// Session returns the underlying TLS connection.
func (c *Client) Session() *tlssim.Conn { return c.sess }

// Request sends a request padded to padTo bytes. The response timeout is
// the client's ResponseTimeout; on expiry the session is dropped with
// ReasonAckTimeout, mirroring a 408.
func (c *Client) Request(path string, body []byte, padTo int) (uint16, error) {
	return c.request(path, body, padTo, c.cfg.ResponseTimeout, c.expireRequest)
}

// expiry returns the callback that ends the session when a response is
// overdue.
func (c *Client) expiry(event string, reason proto.CloseReason) func(uint16) {
	return func(id uint16) {
		c.emit(event, c.cfg.DeviceID, int64(id))
		c.shutdown(reason)
	}
}

func (c *Client) request(path string, body []byte, padTo int, timeout time.Duration, expire func(uint16)) (uint16, error) {
	if !c.Ready() {
		return 0, ErrNotReady
	}
	id := c.acks.NextID()
	m := Message{
		Type:      MsgRequest,
		ID:        id,
		DeviceID:  c.cfg.DeviceID,
		Path:      path,
		Body:      body,
		Timestamp: c.clk.Now(),
	}
	c.txbuf = m.AppendTo(c.txbuf[:0], padTo)
	if err := c.sess.Send(c.txbuf); err != nil {
		return 0, err
	}
	if path == KeepAlivePath {
		c.emit("ka_sent", c.cfg.DeviceID, int64(id))
	} else {
		c.emit("request", c.cfg.DeviceID, int64(id))
	}
	if c.cfg.KeepAlive > 0 && c.cfg.Pattern == proto.PatternOnIdle && path != KeepAlivePath {
		c.armKeepAlive()
	}
	if timeout > 0 {
		c.acks.Await(id, timeout, expire, nil)
	}
	return id, nil
}

// Close ends the session gracefully (the on-demand pattern after a
// completed exchange).
func (c *Client) Close() {
	if c.closed {
		return
	}
	c.sess.Close()
	c.teardown(proto.ReasonGraceful)
}

func (c *Client) armKeepAlive() {
	if c.kaTimer == nil {
		c.kaTimer = c.clk.NewTimer(c.sendKeepAlive)
	}
	c.kaTimer.Reset(c.cfg.KeepAlive)
}

func (c *Client) sendKeepAlive() {
	if c.closed || !c.ready {
		return
	}
	// Keep-alive requests carry their own response deadline.
	if _, err := c.request(KeepAlivePath, nil, c.cfg.KeepAliveLen, c.cfg.KeepAliveTimeout, c.expireKeepAlive); err != nil {
		return
	}
	c.armKeepAlive()
}

func (c *Client) onMessage(b []byte) {
	m, err := Unmarshal(b)
	if err != nil {
		return
	}
	switch m.Type {
	case MsgResponse:
		c.acks.Ack(m.ID)
		if m.Path == KeepAlivePath {
			c.emit("ka_answered", c.cfg.DeviceID, int64(m.ID))
		} else {
			c.emit("response", c.cfg.DeviceID, int64(m.ID))
			if c.OnResponse != nil {
				c.OnResponse(m)
			}
		}
	case MsgRequest:
		// Server-initiated command: acknowledge, then hand to the app.
		resp := Message{
			Type:      MsgResponse,
			ID:        m.ID,
			DeviceID:  c.cfg.DeviceID,
			Path:      m.Path,
			Status:    StatusOK,
			Timestamp: c.clk.Now(),
		}
		c.txbuf = resp.AppendTo(c.txbuf[:0], 0)
		_ = c.sess.Send(c.txbuf)
		if c.OnCommand != nil {
			c.OnCommand(m)
		}
	}
}

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
		c.emit("closed", c.cfg.DeviceID+":"+reason.String(), 0)
	}
	c.closed = true
	c.ready = false
	c.kaTimer.Stop()
	c.acks.Stop()
	if c.OnClosed != nil {
		c.OnClosed(reason)
	}
}
