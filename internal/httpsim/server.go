package httpsim

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/proto"
	"repro/internal/simtime"
	"repro/internal/tlssim"
)

// ServerConfig parameterises the cloud side.
type ServerConfig struct {
	// SessionIdleTimeout silently drops sessions idle this long (no alarm
	// — Finding 1's enabler for on-demand devices). Zero disables it.
	SessionIdleTimeout time.Duration
}

// ErrNoSession reports a command for a device with no live session.
var ErrNoSession = errors.New("httpsim: device has no live session")

// Session is one server-side HTTP session.
type Session struct {
	server   *Server
	sess     *tlssim.Conn
	deviceID string
	closed   bool
	clean    bool
	idle     *simtime.Timer
}

// Server is the cloud side of the HTTP-like protocol.
type Server struct {
	clk      *simtime.Clock
	cfg      ServerConfig
	sessions proto.Sessions[*Session]
	commands proto.Commands
	alarms   proto.AlarmLog
	// txbuf is the encoding scratch for every message sent: tlssim.Conn.Send
	// seals a message into its own buffer before it returns, so one
	// buffer serves them all.
	txbuf []byte

	// OnRequest delivers every device request (except keep-alives, which
	// are answered internally) after the 200 response has been sent.
	OnRequest func(*Session, Message)
}

// NewServer creates an HTTP-like cloud server.
func NewServer(clk *simtime.Clock, cfg ServerConfig) *Server {
	return &Server{clk: clk, cfg: cfg, commands: proto.NewCommands(clk)}
}

// Accept attaches server protocol handling to an inbound TLS session.
func (s *Server) Accept(sess *tlssim.Conn) *Session {
	ss := &Session{server: s, sess: sess}
	sess.OnMessage = func(m []byte) { s.onMessage(ss, m) }
	sess.OnClose = func(err error) { s.onSessionClosed(ss, err) }
	ss.resetIdle()
	return ss
}

// Alarms returns the alarms raised so far.
func (s *Server) Alarms() []proto.Alarm { return s.alarms.All() }

// AlarmCount returns the number of alarms raised so far.
func (s *Server) AlarmCount() int { return s.alarms.Count() }

// ActiveSession returns the live session bound to a device, if any.
func (s *Server) ActiveSession(deviceID string) (*Session, bool) {
	return s.sessions.Live(deviceID)
}

// HalfOpenCount reports superseded sessions lingering for a device.
func (s *Server) HalfOpenCount(deviceID string) int {
	return s.sessions.HalfOpen(deviceID)
}

// Command sends a server-initiated request on the device's live session.
// If ackTimeout is nonzero and no response arrives in time, the session is
// dropped (the command-timeout behaviour of Table I) and done receives
// Acked=false. done may be nil.
func (s *Server) Command(deviceID, path string, body []byte, padTo int, ackTimeout time.Duration, done func(proto.CommandResult)) error {
	ss, ok := s.sessions.Live(deviceID)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSession, deviceID)
	}
	id := s.commands.NextID()
	m := Message{
		Type:      MsgRequest,
		ID:        id,
		Path:      path,
		Body:      body,
		Timestamp: s.clk.Now(),
	}
	s.txbuf = m.AppendTo(s.txbuf[:0], padTo)
	if err := ss.sess.Send(s.txbuf); err != nil {
		return err
	}
	s.commands.Await(id, ackTimeout, func(uint16) {
		s.alarms.Raise(s.clk.Now(), deviceID, "command-timeout", path)
		ss.close()
	}, done)
	return nil
}

func (s *Server) onMessage(ss *Session, b []byte) {
	m, err := Unmarshal(b)
	if err != nil {
		return
	}
	ss.resetIdle()
	switch m.Type {
	case MsgRequest:
		if m.DeviceID != "" && m.DeviceID != ss.deviceID {
			// A live session this one supersedes lingers half-open, and
			// nothing is raised (Finding 2).
			ss.deviceID = m.DeviceID
			s.sessions.Bind(m.DeviceID, ss)
		}
		resp := Message{
			Type:      MsgResponse,
			ID:        m.ID,
			Path:      m.Path,
			Status:    StatusOK,
			Timestamp: s.clk.Now(),
		}
		s.txbuf = resp.AppendTo(s.txbuf[:0], 0)
		_ = ss.sess.Send(s.txbuf)
		if m.Path != KeepAlivePath && s.OnRequest != nil {
			s.OnRequest(ss, m)
		}
	case MsgResponse:
		s.commands.Ack(m.ID)
	}
}

func (s *Server) onSessionClosed(ss *Session, err error) {
	if ss.closed {
		return
	}
	ss.closed = true
	ss.idle.Stop()
	// Graceful closes (on-demand sessions ending, devices cycling) are
	// unremarkable; only an abrupt loss with no replacement alarms.
	if s.sessions.Drop(ss.deviceID, ss) && err != nil && !ss.clean {
		s.alarms.Raise(s.clk.Now(), ss.deviceID, "device-offline", "connection lost with no replacement")
	}
}

func (ss *Session) resetIdle() {
	if ss.server.cfg.SessionIdleTimeout <= 0 {
		return
	}
	if ss.idle == nil {
		ss.idle = ss.server.clk.NewTimer(func() {
			// Idle reaping is silent: no alarm (Finding 1).
			ss.clean = true
			ss.close()
		})
	}
	ss.idle.Reset(ss.server.cfg.SessionIdleTimeout)
}

// close ends the session from the server side.
func (ss *Session) close() {
	if ss.closed {
		return
	}
	ss.sess.Close()
	ss.server.onSessionClosed(ss, nil)
}
