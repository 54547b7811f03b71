package tcpsim

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/ipnet"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// Config parameterises the TCP timers. Zero values select defaults that
// mirror common kernel settings.
type Config struct {
	// RTOInitial is the first retransmission timeout. Default 1s.
	RTOInitial time.Duration
	// RTOMax caps exponential backoff. Default 60s.
	RTOMax time.Duration
	// MaxRetries is how many retransmissions are attempted before the
	// connection aborts with ErrTimeout. Default 5.
	MaxRetries int
	// MSS is the maximum payload per segment. Default 1400.
	MSS int
	// EnableKeepAlive turns on idle-connection probing.
	EnableKeepAlive bool
	// KeepAliveIdle is the idle period before the first probe. Default 2h.
	KeepAliveIdle time.Duration
	// KeepAliveInterval separates successive probes. Default 75s.
	KeepAliveInterval time.Duration
	// KeepAliveProbes is the number of unanswered probes tolerated before
	// the connection aborts with ErrKeepAliveTimeout. Default 9.
	KeepAliveProbes int
}

func (c *Config) fill() {
	if c.RTOInitial <= 0 {
		c.RTOInitial = time.Second
	}
	if c.RTOMax <= 0 {
		c.RTOMax = 60 * time.Second
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 5
	}
	if c.MSS <= 0 {
		c.MSS = 1400
	}
	if c.KeepAliveIdle <= 0 {
		c.KeepAliveIdle = 2 * time.Hour
	}
	if c.KeepAliveInterval <= 0 {
		c.KeepAliveInterval = 75 * time.Second
	}
	if c.KeepAliveProbes <= 0 {
		c.KeepAliveProbes = 9
	}
}

type connKey struct {
	local  Endpoint
	remote Endpoint
}

// Listener accepts inbound connections on a port.
type Listener struct {
	port   uint16
	accept func(*Conn)
}

// Stack is a host's TCP layer. One Stack serves all connections of a host.
type Stack struct {
	clk       *simtime.Clock
	ip        *ipnet.Stack
	cfg       Config
	rng       *simtime.Rand
	listeners map[uint16]*Listener
	conns     map[connKey]*Conn
	nextPort  uint16
	// SendRST controls whether segments for unknown connections are
	// answered with RST (real stacks do; default true).
	SendRST bool

	met stackMetrics

	// txbuf is the segment-marshal scratch: sends are synchronous down to
	// netsim's copy boundary, so one buffer serves every transmission.
	txbuf []byte
	// chunkFree pools send-chunk buffers (Conn.Send copies application
	// bytes into one chunk per segment, held until acknowledged).
	chunkFree [][]byte
}

// getChunk returns a pooled buffer of length n (n never exceeds the MSS:
// Conn.Send segments at the MSS and is the only caller).
func (s *Stack) getChunk(n int) []byte {
	if k := len(s.chunkFree); k > 0 {
		b := s.chunkFree[k-1]
		s.chunkFree = s.chunkFree[:k-1]
		return b[:n]
	}
	c := n
	if c < s.cfg.MSS {
		c = s.cfg.MSS
	}
	return make([]byte, n, c)
}

// putChunk recycles a chunk once its retransmission-queue entry retires.
func (s *Stack) putChunk(b []byte) {
	if cap(b) >= s.cfg.MSS {
		s.chunkFree = append(s.chunkFree, b[:0])
	}
}

// stackMetrics are a stack's obs handles; the zero value (all nil) is the
// uninstrumented no-op state.
type stackMetrics struct {
	segmentsSent  *obs.Counter
	retransmits   *obs.Counter
	backoffResets *obs.Counter
	kaProbes      *obs.Counter
	oooDepth      *obs.Gauge
	connsOpened   *obs.Counter
	closedByCause map[string]*obs.Counter
	// trace is nil unless the registry's trace ring is enabled, so the
	// per-event emission sites pay one branch when tracing is off.
	trace *obs.Trace
	host  string
}

// Instrument registers the stack's metrics with reg, labeled by host:
//
//	tcpsim_segments_sent_total{host}   every transmitted segment
//	tcpsim_retransmits_total{host}     RTO-driven retransmissions
//	tcpsim_backoff_resets_total{host}  backoff abandoned after an ACK made progress
//	tcpsim_keepalive_probes_total{host}
//	tcpsim_ooo_queue_depth{host}       out-of-order queue length (Max = high-water)
//	tcpsim_conns_opened_total{host}
//	tcpsim_conns_closed_total{host,cause}
//	    cause: graceful | timeout | keepalive_timeout | reset | aborted
//
// When the registry's trace ring is enabled the stack also emits "tcpsim"
// trace events: conn_established, conn_closed, rto_fired, ka_probe and
// spoofed_ack (a bare ACK sent from an address that is not the host's own
// — the split-connection attacker acknowledging on a victim's behalf).
func (s *Stack) Instrument(reg *obs.Registry, host string) {
	l := obs.L("host", host)
	s.met = stackMetrics{
		segmentsSent:  reg.Counter("tcpsim_segments_sent_total", l),
		retransmits:   reg.Counter("tcpsim_retransmits_total", l),
		backoffResets: reg.Counter("tcpsim_backoff_resets_total", l),
		kaProbes:      reg.Counter("tcpsim_keepalive_probes_total", l),
		oooDepth:      reg.Gauge("tcpsim_ooo_queue_depth", l),
		connsOpened:   reg.Counter("tcpsim_conns_opened_total", l),
		closedByCause: make(map[string]*obs.Counter),
		host:          host,
	}
	if tr := reg.Trace(); tr.Enabled() {
		s.met.trace = tr
	}
	for _, cause := range []string{"graceful", "timeout", "keepalive_timeout", "reset", "aborted"} {
		s.met.closedByCause[cause] = reg.Counter("tcpsim_conns_closed_total", l, obs.L("cause", cause))
	}
}

func closeCause(err error) string {
	switch {
	case errors.Is(err, ErrTimeout):
		return "timeout"
	case errors.Is(err, ErrKeepAliveTimeout):
		return "keepalive_timeout"
	case errors.Is(err, ErrReset):
		return "reset"
	case err != nil:
		return "aborted"
	default:
		return "graceful"
	}
}

func (m stackMetrics) connClosed(err error) {
	if m.closedByCause == nil {
		return
	}
	m.closedByCause[closeCause(err)].Inc()
}

// NewStack creates a TCP layer bound to an IP stack and registers itself as
// the handler for TCP packets.
func NewStack(clk *simtime.Clock, ip *ipnet.Stack, cfg Config, seed int64) *Stack {
	cfg.fill()
	s := &Stack{
		clk:       clk,
		ip:        ip,
		cfg:       cfg,
		rng:       simtime.NewRand(seed),
		listeners: make(map[uint16]*Listener),
		conns:     make(map[connKey]*Conn),
		nextPort:  49152,
		SendRST:   true,
	}
	ip.Handle(ipnet.ProtoTCP, s.HandlePacket)
	return s
}

// Listen registers an accept callback for inbound connections to port. The
// callback runs when a SYN arrives, before the SYN-ACK is sent, so it can
// install the connection's event handlers.
func (s *Stack) Listen(port uint16, accept func(*Conn)) (*Listener, error) {
	if _, dup := s.listeners[port]; dup {
		return nil, fmt.Errorf("tcpsim: port %d already listening", port)
	}
	l := &Listener{port: port, accept: accept}
	s.listeners[port] = l
	return l, nil
}

// CloseListener removes a listener. Established connections are unaffected.
func (s *Stack) CloseListener(l *Listener) { delete(s.listeners, l.port) }

// Dial opens a connection from this host's primary address and an ephemeral
// port to the remote endpoint. Handlers should be installed on the returned
// Conn before the event loop next runs.
func (s *Stack) Dial(remote Endpoint) *Conn {
	local := Endpoint{Addr: s.ip.Addr(), Port: s.ephemeralPort()}
	return s.DialFrom(local, remote)
}

// DialFrom opens a connection with an explicit local endpoint. The local
// address need not belong to this host: an attacker's split-connection
// proxy dials the server with the victim device's address.
func (s *Stack) DialFrom(local, remote Endpoint) *Conn {
	c := s.newConn(local, remote)
	c.state = StateSynSent
	s.conns[connKey{local, remote}] = c
	c.queueAndSend(FlagSYN, nil)
	return c
}

func (s *Stack) ephemeralPort() uint16 {
	p := s.nextPort
	s.nextPort++
	if s.nextPort < 49152 {
		s.nextPort = 49152
	}
	return p
}

// HandlePacket demultiplexes an inbound TCP packet. It is exported so the
// attacker's divert hook can feed diverted packets into its own TCP layer.
func (s *Stack) HandlePacket(p ipnet.Packet) {
	seg, err := UnmarshalSegment(p.Payload)
	if err != nil {
		return
	}
	key := connKey{
		local:  Endpoint{Addr: p.Dst, Port: seg.DstPort},
		remote: Endpoint{Addr: p.Src, Port: seg.SrcPort},
	}
	if c, ok := s.conns[key]; ok {
		c.handleSegment(seg)
		return
	}
	if seg.Flags.Has(FlagSYN) && !seg.Flags.Has(FlagACK) {
		if l, ok := s.listeners[seg.DstPort]; ok {
			c := s.newConn(key.local, key.remote)
			c.state = StateSynRcvd
			c.rcvNxt = seg.Seq + 1
			s.conns[key] = c
			l.accept(c)
			c.queueAndSend(FlagSYN|FlagACK, nil)
			return
		}
	}
	if s.SendRST && !seg.Flags.Has(FlagRST) {
		s.sendRaw(key.local, key.remote, Segment{
			Seq:   seg.Ack,
			Ack:   seg.Seq + seg.seqLen(),
			Flags: FlagRST | FlagACK,
		})
	}
}

func (s *Stack) newConn(local, remote Endpoint) *Conn {
	s.met.connsOpened.Inc()
	iss := uint32(s.rng.Int63())
	return &Conn{
		stack:  s,
		local:  local,
		remote: remote,
		iss:    iss,
		sndUna: iss,
		sndNxt: iss,
		rto:    s.cfg.RTOInitial,
	}
}

func (s *Stack) sendRaw(from, to Endpoint, seg Segment) {
	seg.SrcPort = from.Port
	seg.DstPort = to.Port
	// The marshal scratch is safe to reuse per send: ipnet either marshals
	// the packet into its own scratch synchronously or detaches the payload
	// before deferring on ARP resolution.
	s.txbuf = seg.AppendTo(s.txbuf[:0])
	// A send can only fail for lack of a route; the segment is then lost,
	// which the retransmission machinery already handles.
	_ = s.ip.Send(ipnet.Packet{
		Src:     from.Addr,
		Dst:     to.Addr,
		Proto:   ipnet.ProtoTCP,
		Payload: s.txbuf,
	})
}

func (s *Stack) removeConn(c *Conn) {
	delete(s.conns, connKey{c.local, c.remote})
}

// ConnCount reports the number of live connections (diagnostics and the
// half-open-connection experiments use this).
func (s *Stack) ConnCount() int { return len(s.conns) }
