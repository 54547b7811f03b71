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
	// ResponseLen pads responses.
	ResponseLen int
	// SessionIdleTimeout silently drops sessions idle this long (no alarm
	// — Finding 1's enabler for on-demand devices). Zero disables it.
	SessionIdleTimeout time.Duration
}

// ErrNoSession reports a command for a device with no live session.
var ErrNoSession = errors.New("httpsim: device has no live session")

// CommandResult reports the outcome of a server-initiated request.
type CommandResult struct {
	ID       uint16
	Acked    bool
	Duration time.Duration
}

// Session is one server-side HTTP session.
type Session struct {
	server   *Server
	sess     *tlssim.Conn
	deviceID string
	closed   bool
	clean    bool
	idle     *simtime.Timer
}

// DeviceID returns the bound device identity (empty before any request).
func (s *Session) DeviceID() string { return s.deviceID }

// Server is the cloud side of the HTTP-like protocol.
type Server struct {
	clk      *simtime.Clock
	cfg      ServerConfig
	active   map[string]*Session
	halfOpen map[string][]*Session
	pending  map[uint16]*pendingCommand
	nextID   uint16
	alarms   proto.AlarmLog

	// OnRequest delivers every device request (except keep-alives, which
	// are answered internally) after the 200 response has been sent.
	OnRequest func(*Session, Message)
	// OnAlarm mirrors the alarm log's observer hook.
	OnAlarm func(proto.Alarm)
}

type pendingCommand struct {
	sentAt simtime.Time
	timer  *simtime.Timer
	done   func(CommandResult)
}

// NewServer creates an HTTP-like cloud server.
func NewServer(clk *simtime.Clock, cfg ServerConfig) *Server {
	s := &Server{
		clk:      clk,
		cfg:      cfg,
		active:   make(map[string]*Session),
		halfOpen: make(map[string][]*Session),
		pending:  make(map[uint16]*pendingCommand),
		nextID:   1,
	}
	s.alarms.OnAlarm = func(a proto.Alarm) {
		if s.OnAlarm != nil {
			s.OnAlarm(a)
		}
	}
	return s
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
	ss, ok := s.active[deviceID]
	return ss, ok
}

// HalfOpenCount reports superseded sessions lingering for a device.
func (s *Server) HalfOpenCount(deviceID string) int {
	return len(s.halfOpen[deviceID])
}

// Command sends a server-initiated request on the device's live session.
// If ackTimeout is nonzero and no response arrives in time, the session is
// dropped (the command-timeout behaviour of Table I) and done receives
// Acked=false. done may be nil.
func (s *Server) Command(deviceID, path string, body []byte, padTo int, ackTimeout time.Duration, done func(CommandResult)) error {
	ss, ok := s.active[deviceID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSession, deviceID)
	}
	id := s.nextID
	s.nextID++
	if s.nextID == 0 {
		s.nextID = 1
	}
	m := Message{
		Type:      MsgRequest,
		ID:        id,
		Path:      path,
		Body:      body,
		Timestamp: s.clk.Now(),
	}
	if err := ss.sess.Send(m.Marshal(padTo)); err != nil {
		return err
	}
	pc := &pendingCommand{sentAt: s.clk.Now(), done: done}
	s.pending[id] = pc
	if ackTimeout > 0 {
		pc.timer = s.clk.Schedule(ackTimeout, func() {
			delete(s.pending, id)
			s.alarms.Raise(s.clk.Now(), deviceID, "command-timeout", path)
			ss.close()
			if done != nil {
				done(CommandResult{ID: id, Acked: false, Duration: s.clk.Now() - pc.sentAt})
			}
		})
	}
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
		if m.DeviceID != "" {
			s.bind(ss, m.DeviceID)
		}
		resp := Message{
			Type:      MsgResponse,
			ID:        m.ID,
			Path:      m.Path,
			Status:    StatusOK,
			Timestamp: s.clk.Now(),
		}
		_ = ss.sess.Send(resp.Marshal(s.cfg.ResponseLen))
		if m.Path != KeepAlivePath && s.OnRequest != nil {
			s.OnRequest(ss, m)
		}
	case MsgResponse:
		if pc, ok := s.pending[m.ID]; ok {
			delete(s.pending, m.ID)
			if pc.timer != nil {
				pc.timer.Stop()
			}
			if pc.done != nil {
				pc.done(CommandResult{ID: m.ID, Acked: true, Duration: s.clk.Now() - pc.sentAt})
			}
		}
	}
}

func (s *Server) bind(ss *Session, deviceID string) {
	if ss.deviceID == deviceID {
		return
	}
	ss.deviceID = deviceID
	if old, ok := s.active[deviceID]; ok && old != ss && !old.closed {
		// Finding 2: the superseded session lingers half-open, no alarm.
		s.halfOpen[deviceID] = append(s.halfOpen[deviceID], old)
	}
	s.active[deviceID] = ss
}

func (s *Server) onSessionClosed(ss *Session, err error) {
	if ss.closed {
		return
	}
	ss.closed = true
	if ss.idle != nil {
		ss.idle.Stop()
	}
	if ss.deviceID == "" {
		return
	}
	ho := s.halfOpen[ss.deviceID]
	for i, old := range ho {
		if old == ss {
			s.halfOpen[ss.deviceID] = append(ho[:i], ho[i+1:]...)
			return
		}
	}
	if s.active[ss.deviceID] == ss {
		delete(s.active, ss.deviceID)
		// Graceful closes (on-demand sessions ending, devices cycling) are
		// unremarkable; only an abrupt loss with no replacement alarms.
		if err != nil && !ss.clean {
			s.alarms.Raise(s.clk.Now(), ss.deviceID, "device-offline", "connection lost with no replacement")
		}
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
