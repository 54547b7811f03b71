package tcpsim

import (
	"errors"
	"fmt"

	"repro/internal/simtime"
)

// State is a TCP connection state.
type State int

// Connection states (TIME_WAIT is elided: closed connections are removed
// immediately, which is safe under simulated, loss-free reordering).
const (
	StateSynSent State = iota + 1
	StateSynRcvd
	StateEstablished
	StateFinWait1
	StateFinWait2
	StateClosing
	StateLastAck
	StateClosed
)

// String names the state for traces.
func (s State) String() string {
	switch s {
	case StateSynSent:
		return "SYN_SENT"
	case StateSynRcvd:
		return "SYN_RCVD"
	case StateEstablished:
		return "ESTABLISHED"
	case StateFinWait1:
		return "FIN_WAIT_1"
	case StateFinWait2:
		return "FIN_WAIT_2"
	case StateClosing:
		return "CLOSING"
	case StateLastAck:
		return "LAST_ACK"
	case StateClosed:
		return "CLOSED"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Errors delivered to OnClose. A nil OnClose error means graceful close.
var (
	// ErrTimeout reports that retransmission retries were exhausted — the
	// alarm the phantom-delay attack is designed never to trigger.
	ErrTimeout = errors.New("tcpsim: retransmission timeout")
	// ErrKeepAliveTimeout reports that keep-alive probes went unanswered.
	ErrKeepAliveTimeout = errors.New("tcpsim: keep-alive timeout")
	// ErrReset reports an inbound RST.
	ErrReset = errors.New("tcpsim: connection reset by peer")
	// ErrClosed reports use of a closed or closing connection.
	ErrClosed = errors.New("tcpsim: connection closed")
)

// ConnStats counts per-connection activity. The paper distinguishes its
// attack from packet dropping precisely by these counters: a hijacked
// connection shows zero retransmissions and zero failed probes.
type ConnStats struct {
	SegmentsSent     uint64
	SegmentsReceived uint64
	BytesSent        uint64
	BytesReceived    uint64
	Retransmits      uint64
	ProbesSent       uint64
}

type rtxEntry struct {
	seq     uint32
	flags   Flags
	payload []byte
	// sentAt timestamps the first transmission for RTT sampling; zero
	// until transmitted, and ignored after a retransmission (Karn's rule).
	sentAt      simtime.Time
	retransmits bool
}

func (e rtxEntry) seqLen() uint32 {
	n := uint32(len(e.payload))
	if e.flags.Has(FlagSYN) {
		n++
	}
	if e.flags.Has(FlagFIN) {
		n++
	}
	return n
}

// Conn is one TCP connection. All callbacks run on the simulation's event
// loop.
type Conn struct {
	stack  *Stack
	local  Endpoint
	remote Endpoint
	state  State

	iss    uint32
	sndUna uint32
	sndNxt uint32
	rcvNxt uint32

	rtxq     []rtxEntry
	rtxTimer *simtime.Timer
	rto      simtime.Time
	retries  int

	ooo map[uint32]Segment

	srtt       simtime.Time
	rttSamples int

	kaTimer      *simtime.Timer
	kaProbes     int
	lastActivity simtime.Time

	appClosed bool
	finRcvd   bool
	closedErr error
	notified  bool

	stats ConnStats

	// OnEstablished fires when the three-way handshake completes.
	OnEstablished func()
	// OnData delivers in-order stream bytes.
	OnData func([]byte)
	// OnClose fires exactly once when the connection ends: nil for a
	// graceful close, otherwise one of the Err values above.
	OnClose func(error)
}

// Clock returns the virtual clock of the stack the connection runs on, so
// layers above TCP (tlssim) can timestamp trace events.
func (c *Conn) Clock() *simtime.Clock { return c.stack.clk }

// trace emits a "tcpsim" trace event when the stack is trace-instrumented.
// The guard keeps the detail strings unbuilt on the common (off) path.
func (c *Conn) trace(event, detail string, value int64) {
	if c.stack.met.trace == nil {
		return
	}
	c.stack.met.trace.Emit(c.stack.clk.Now(), "tcpsim", event, detail, value)
}

// Remote returns the connection's remote endpoint.
func (c *Conn) Remote() Endpoint { return c.remote }

// State returns the connection's current state.
func (c *Conn) State() State { return c.state }

// Stats returns a copy of the connection's counters.
func (c *Conn) Stats() ConnStats { return c.stats }

// SRTT returns the smoothed round-trip time (EWMA over first-transmission
// acknowledgements, Karn's rule applied) and the number of samples behind
// it. A man-in-the-middle that terminates TCP nearby collapses this value
// — the signal the defense package's RTT monitor watches.
func (c *Conn) SRTT() (simtime.Time, int) { return c.srtt, c.rttSamples }

func (c *Conn) sampleRTT(sample simtime.Time) {
	c.rttSamples++
	if c.rttSamples == 1 {
		c.srtt = sample
		return
	}
	// Classic RFC 6298 smoothing: srtt <- 7/8 srtt + 1/8 sample.
	c.srtt = (7*c.srtt + sample) / 8
}

// Send queues stream data for transmission, segmenting at the MSS. It
// copies data before returning, so the caller may reuse the buffer at
// once; tlssim seals every record into one per-connection scratch buffer
// on the strength of it.
func (c *Conn) Send(data []byte) error {
	if c.appClosed || c.state == StateClosed {
		return ErrClosed
	}
	if c.state != StateEstablished && c.state != StateSynSent && c.state != StateSynRcvd {
		return ErrClosed
	}
	mss := c.stack.cfg.MSS
	for len(data) > 0 {
		n := min(len(data), mss)
		// The chunk comes from the stack's pool and returns to it when its
		// retransmission-queue entry retires — the copy detaches the queued
		// bytes from the caller's buffer without a per-segment allocation.
		chunk := c.stack.getChunk(n)
		copy(chunk, data[:n])
		data = data[n:]
		c.queueAndSend(0, chunk)
	}
	return nil
}

// Close performs a graceful close: queued data is still delivered, then a
// FIN is sent.
func (c *Conn) Close() {
	if c.appClosed || c.state == StateClosed {
		return
	}
	c.appClosed = true
	switch c.state {
	case StateEstablished, StateSynRcvd:
		c.state = StateFinWait1
		c.queueAndSend(FlagFIN, nil)
	case StateSynSent:
		c.teardown(nil)
	default:
	}
}

// Abort sends a RST and tears the connection down immediately.
func (c *Conn) Abort() {
	if c.state == StateClosed {
		return
	}
	c.transmitRaw(Segment{Seq: c.sndNxt, Ack: c.rcvNxt, Flags: FlagRST | FlagACK})
	c.teardown(ErrClosed)
}

// queueAndSend appends a retransmittable segment (SYN, FIN or data) to the
// retransmission queue and transmits it. Data queued before the handshake
// completes is held back and flushed on establishment.
func (c *Conn) queueAndSend(flags Flags, payload []byte) {
	e := rtxEntry{seq: c.sndNxt, flags: flags, payload: payload}
	c.sndNxt += e.seqLen()
	c.rtxq = append(c.rtxq, e)
	handshaking := c.state == StateSynSent || c.state == StateSynRcvd
	if !handshaking || flags.Has(FlagSYN) {
		c.rtxq[len(c.rtxq)-1].sentAt = c.stack.clk.Now()
		c.transmitEntry(e, false)
		c.armRTO()
	}
}

// flushPending transmits everything still queued when the handshake
// completes (data accepted during SYN_SENT/SYN_RCVD).
func (c *Conn) flushPending() {
	for i := range c.rtxq {
		if c.rtxq[i].sentAt == 0 {
			c.rtxq[i].sentAt = c.stack.clk.Now()
			c.transmitEntry(c.rtxq[i], false)
		}
	}
	c.armRTO()
}

func (c *Conn) transmitEntry(e rtxEntry, isRetransmit bool) {
	flags := e.flags
	// Everything after the initial SYN carries an ACK.
	if !(flags.Has(FlagSYN) && c.state == StateSynSent) {
		flags |= FlagACK
	}
	seg := Segment{Seq: e.seq, Ack: c.rcvNxt, Flags: flags, Payload: e.payload}
	if isRetransmit {
		c.stats.Retransmits++
		c.stack.met.retransmits.Inc()
	}
	c.transmitRaw(seg)
}

func (c *Conn) transmitRaw(seg Segment) {
	c.stats.SegmentsSent++
	c.stats.BytesSent += uint64(len(seg.Payload))
	c.stack.met.segmentsSent.Inc()
	c.touch()
	c.stack.sendRaw(c.local, c.remote, seg)
}

func (c *Conn) sendAck() {
	// A bare ACK from an address the stack does not own is the attacker's
	// split connection acknowledging on a victim's behalf — the spoofed
	// keep-alive answer that keeps every timer quiet during a hold.
	if c.stack.met.trace != nil && c.local.Addr != c.stack.ip.Addr() {
		c.trace("spoofed_ack", c.stack.met.host, int64(c.remote.Port))
	}
	c.transmitRaw(Segment{Seq: c.sndNxt, Ack: c.rcvNxt, Flags: FlagACK})
}

// --- retransmission timer ---

// armRTO (re)arms the retransmission timer. The timer is allocated once
// per connection and rearmed in place — this path runs on every ACK, and
// a per-ACK allocation is exactly the scheduler churn fleet-scale
// campaigns choke on.
func (c *Conn) armRTO() {
	if len(c.rtxq) == 0 {
		return
	}
	if c.rtxTimer == nil {
		c.rtxTimer = c.stack.clk.NewTimer(c.onRTO)
	}
	c.rtxTimer.Reset(c.rto)
}

func (c *Conn) stopRTO() {
	c.rtxTimer.Stop()
	if c.retries > 0 {
		// An ACK made progress while backoff was in flight: the exponential
		// backoff state is abandoned — the alarm the phantom-delay attack
		// keeps from ever arming.
		c.stack.met.backoffResets.Inc()
	}
	c.rto = c.stack.cfg.RTOInitial
	c.retries = 0
}

func (c *Conn) onRTO() {
	if len(c.rtxq) == 0 || c.state == StateClosed {
		return
	}
	c.retries++
	if c.retries > c.stack.cfg.MaxRetries {
		c.teardown(ErrTimeout)
		return
	}
	c.trace("rto_fired", c.stack.met.host, int64(c.retries))
	c.rtxq[0].retransmits = true
	c.transmitEntry(c.rtxq[0], true)
	c.rto *= 2
	if c.rto > c.stack.cfg.RTOMax {
		c.rto = c.stack.cfg.RTOMax
	}
	c.rtxTimer.Reset(c.rto)
}

// --- keep-alive timer ---

func (c *Conn) touch() {
	c.lastActivity = c.stack.clk.Now()
}

func (c *Conn) armKeepAlive() {
	if !c.stack.cfg.EnableKeepAlive {
		return
	}
	if c.kaTimer == nil {
		c.kaTimer = c.stack.clk.NewTimer(c.onKeepAlive)
	}
	c.kaProbes = 0
	c.kaTimer.Reset(c.stack.cfg.KeepAliveIdle)
}

func (c *Conn) onKeepAlive() {
	if c.state != StateEstablished {
		return
	}
	idle := c.stack.clk.Now() - c.lastActivity
	if idle < c.stack.cfg.KeepAliveIdle && c.kaProbes == 0 {
		// Activity happened since arming; re-arm for the remainder.
		c.kaTimer.Reset(c.stack.cfg.KeepAliveIdle - idle)
		return
	}
	if c.kaProbes >= c.stack.cfg.KeepAliveProbes {
		c.teardown(ErrKeepAliveTimeout)
		return
	}
	c.kaProbes++
	c.stats.ProbesSent++
	c.stack.met.kaProbes.Inc()
	c.trace("ka_probe", c.stack.met.host, int64(c.kaProbes))
	// Probe: one byte before snd.nxt, empty payload; elicits a bare ACK.
	c.stack.sendRaw(c.local, c.remote, Segment{Seq: c.sndNxt - 1, Ack: c.rcvNxt, Flags: FlagACK})
	c.stats.SegmentsSent++
	c.stack.met.segmentsSent.Inc()
	c.kaTimer.Reset(c.stack.cfg.KeepAliveInterval)
}

// keepAliveSatisfied pushes the idle deadline back on every received
// segment — the other per-packet rearm the phantom-delay attack's spoofed
// ACKs keep exercising for hours of virtual time.
func (c *Conn) keepAliveSatisfied() {
	if !c.stack.cfg.EnableKeepAlive {
		return
	}
	c.kaProbes = 0
	if c.state != StateEstablished {
		c.kaTimer.Stop()
		return
	}
	if c.kaTimer == nil {
		c.kaTimer = c.stack.clk.NewTimer(c.onKeepAlive)
	}
	c.kaTimer.Reset(c.stack.cfg.KeepAliveIdle)
}

// --- inbound segment processing ---

func (c *Conn) handleSegment(seg Segment) {
	if c.state == StateClosed {
		return
	}
	c.stats.SegmentsReceived++
	c.stats.BytesReceived += uint64(len(seg.Payload))
	c.touch()
	c.keepAliveSatisfied()

	if seg.Flags.Has(FlagRST) {
		c.teardown(ErrReset)
		return
	}

	switch c.state {
	case StateSynSent:
		if seg.Flags.Has(FlagSYN|FlagACK) && seg.Ack == c.iss+1 {
			c.rcvNxt = seg.Seq + 1
			c.processAck(seg.Ack)
			c.state = StateEstablished
			c.trace("conn_established", c.stack.met.host, int64(c.remote.Port))
			c.sendAck()
			c.flushPending()
			c.armKeepAlive()
			if c.OnEstablished != nil {
				c.OnEstablished()
			}
		}
		return
	case StateSynRcvd:
		if seg.Flags.Has(FlagACK) && seg.Ack == c.iss+1 {
			c.processAck(seg.Ack)
			c.state = StateEstablished
			c.trace("conn_established", c.stack.met.host, int64(c.remote.Port))
			c.flushPending()
			c.armKeepAlive()
			if c.OnEstablished != nil {
				c.OnEstablished()
			}
			// Fall through to payload processing: the ACK may carry data.
		} else {
			return
		}
	}

	if seg.Flags.Has(FlagACK) {
		c.processAck(seg.Ack)
		if c.state == StateClosed {
			return
		}
	}

	if seg.seqLen() > 0 {
		c.processSequenced(seg)
	} else if seqLT(seg.Seq, c.rcvNxt) {
		// Keep-alive probe or stale duplicate: answer so the sender's
		// liveness check passes.
		c.sendAck()
	}
}

func (c *Conn) processAck(ack uint32) {
	if seqGT(ack, c.sndUna) {
		c.sndUna = ack
	}
	acked := 0
	for _, e := range c.rtxq {
		if !seqLEQ(e.seq+e.seqLen(), ack) {
			break
		}
		if !e.retransmits && e.sentAt > 0 {
			c.sampleRTT(c.stack.clk.Now() - e.sentAt)
		}
		if len(e.payload) > 0 {
			c.stack.putChunk(e.payload)
		}
		acked++
	}
	if acked == 0 {
		return
	}
	// Shift the survivors to the front instead of reslicing past the
	// retired entries, so the queue keeps its capacity and the next
	// queueAndSend appends without reallocating.
	rest := copy(c.rtxq, c.rtxq[acked:])
	clear(c.rtxq[rest:])
	c.rtxq = c.rtxq[:rest]
	c.stopRTO()
	c.armRTO()
	if len(c.rtxq) != 0 {
		return
	}
	// All sent data (including any FIN) is acknowledged.
	switch c.state {
	case StateFinWait1:
		c.state = StateFinWait2
	case StateClosing, StateLastAck:
		c.teardown(nil)
	}
}

func (c *Conn) processSequenced(seg Segment) {
	switch {
	case seg.Seq == c.rcvNxt:
		c.acceptInOrder(seg)
		c.drainOOO()
		c.sendAck()
	case seqGT(seg.Seq, c.rcvNxt):
		if c.ooo == nil {
			c.ooo = make(map[uint32]Segment)
		}
		// A queued segment outlives the delivery that carried it, and frame
		// buffers recycle as soon as delivery returns — detach the payload.
		seg.Payload = append([]byte(nil), seg.Payload...)
		c.ooo[seg.Seq] = seg
		c.stack.met.oooDepth.Set(int64(len(c.ooo)))
		c.sendAck() // duplicate ACK for the gap
	default:
		// Full duplicate of something already received.
		c.sendAck()
	}
}

func (c *Conn) acceptInOrder(seg Segment) {
	if len(seg.Payload) > 0 {
		c.rcvNxt += uint32(len(seg.Payload))
		if c.OnData != nil {
			c.OnData(seg.Payload)
		}
	}
	if seg.Flags.Has(FlagFIN) {
		c.rcvNxt++
		c.handlePeerFin()
	}
}

func (c *Conn) drainOOO() {
	for {
		seg, ok := c.ooo[c.rcvNxt]
		if !ok {
			if c.ooo != nil {
				c.stack.met.oooDepth.Set(int64(len(c.ooo)))
			}
			return
		}
		delete(c.ooo, c.rcvNxt)
		c.acceptInOrder(seg)
	}
}

func (c *Conn) handlePeerFin() {
	if c.finRcvd {
		return
	}
	c.finRcvd = true
	switch c.state {
	case StateEstablished, StateSynRcvd:
		// Auto-close: acknowledge and send our own FIN. The simulation's
		// applications treat the stream as a whole-session transport, so a
		// peer close always ends the session.
		c.state = StateLastAck
		c.appClosed = true
		c.queueAndSend(FlagFIN, nil)
	case StateFinWait1:
		c.state = StateClosing
	case StateFinWait2:
		c.sendAck()
		c.teardown(nil)
	}
}

func (c *Conn) teardown(err error) {
	if c.state == StateClosed {
		return
	}
	c.state = StateClosed
	c.closedErr = err
	c.rtxTimer.Stop()
	c.kaTimer.Stop()
	// Unacknowledged chunks can no longer be (re)transmitted: recycle them.
	for _, e := range c.rtxq {
		if len(e.payload) > 0 {
			c.stack.putChunk(e.payload)
		}
	}
	c.rtxq = nil
	c.stack.removeConn(c)
	c.stack.met.connClosed(err)
	if c.stack.met.trace != nil {
		c.trace("conn_closed", c.stack.met.host+":"+closeCause(err), int64(c.remote.Port))
	}
	if !c.notified && c.OnClose != nil {
		c.notified = true
		c.OnClose(err)
	}
}
