package core

import (
	"repro/internal/simtime"
	"repro/internal/sniff"
	"repro/internal/tcpsim"
	"repro/internal/tlssim"
)

// RecordInfo describes one TLS record crossing the bridge. The attacker
// sees exactly this much: timing, direction, record type and cleartext
// length — never plaintext.
type RecordInfo struct {
	At      simtime.Time
	Dir     sniff.Direction
	Type    tlssim.RecordType
	WireLen int
	// Index numbers records per direction, starting at 0.
	Index int
}

// Bridge is one split connection: the attacker terminates TCP with the
// device (impersonating the server) and with the server (impersonating the
// device), bridging TLS records between the two byte streams. Both kernels
// see a perfectly healthy peer — ACKs are immediate — which is what keeps
// every TCP-layer timer quiet during arbitrarily long holds.
type Bridge struct {
	h       *Hijacker
	clk     *simtime.Clock
	devConn *tcpsim.Conn
	srvConn *tcpsim.Conn
	dirs    [2]*bridgeDir
	met     coreMetrics

	devClosed   bool
	srvClosed   bool
	devClosedAt simtime.Time
	srvClosedAt simtime.Time

	// HoldDeviceClose prevents a device-side close from propagating to the
	// server, keeping the server-side connection half-open (Finding 2).
	HoldDeviceClose bool
}

type bridgeDir struct {
	buf       []byte
	queue     [][]byte
	holding   bool
	heldSince simtime.Time
	index     int
	forwarded int
	held      int
}

// newBridge wires the two connections of h's hijack. srvConn may still be
// handshaking; tcpsim queues writes until establishment.
func newBridge(h *Hijacker, devConn, srvConn *tcpsim.Conn) *Bridge {
	clk, met := h.atk.Clock, h.atk.met
	b := &Bridge{
		h:       h,
		clk:     clk,
		devConn: devConn,
		srvConn: srvConn,
		dirs:    [2]*bridgeDir{{}, {}},
		met:     met,
	}
	met.bridges.Inc()
	devConn.OnData = func(data []byte) { b.onData(sniff.DirClientToServer, data) }
	srvConn.OnData = func(data []byte) { b.onData(sniff.DirServerToClient, data) }
	devConn.OnClose = func(error) {
		if b.devClosed {
			return
		}
		b.devClosed = true
		b.devClosedAt = clk.Now()
		// Propagate unless told to keep the server side half-open or there
		// are still held records to deliver.
		if !b.HoldDeviceClose && !b.dirs[0].holding && !b.srvClosed {
			b.srvConn.Close()
		}
	}
	srvConn.OnClose = func(error) {
		if b.srvClosed {
			return
		}
		b.srvClosed = true
		b.srvClosedAt = clk.Now()
		if !b.dirs[1].holding && !b.devClosed {
			b.devConn.Close()
		}
	}
	return b
}

// DeviceConn returns the device-facing connection.
func (b *Bridge) DeviceConn() *tcpsim.Conn { return b.devConn }

// ServerConn returns the server-facing connection.
func (b *Bridge) ServerConn() *tcpsim.Conn { return b.srvConn }

// DeviceClosed reports whether the device side has ended, and when.
func (b *Bridge) DeviceClosed() (bool, simtime.Time) { return b.devClosed, b.devClosedAt }

// ServerClosed reports whether the server side has ended, and when.
func (b *Bridge) ServerClosed() (bool, simtime.Time) { return b.srvClosed, b.srvClosedAt }

// Alive reports whether both sides are still open.
func (b *Bridge) Alive() bool { return !b.devClosed && !b.srvClosed }

func (b *Bridge) dir(d sniff.Direction) *bridgeDir { return b.dirs[d-1] }

// HeldCount reports how many records are queued in a direction.
func (b *Bridge) HeldCount(d sniff.Direction) int { return b.dir(d).held - b.releasedCount(d) }

func (b *Bridge) releasedCount(d sniff.Direction) int {
	return b.dir(d).held - len(b.dir(d).queue)
}

// Holding reports whether a direction is currently held, and since when.
func (b *Bridge) Holding(d sniff.Direction) (bool, simtime.Time) {
	st := b.dir(d)
	return st.holding, st.heldSince
}

// ForwardedCount reports how many records flowed through a direction.
func (b *Bridge) ForwardedCount(d sniff.Direction) int { return b.dir(d).forwarded }

func (b *Bridge) onData(d sniff.Direction, data []byte) {
	st := b.dir(d)
	st.buf = append(st.buf, data...)
	for {
		total, ok := tlssim.RecordLen(st.buf)
		if !ok {
			return
		}
		rec := make([]byte, total)
		copy(rec, st.buf[:total])
		st.buf = st.buf[total:]
		b.processRecord(d, st, rec)
	}
}

// processRecord holds or forwards one record as the hijacker decides.
func (b *Bridge) processRecord(d sniff.Direction, st *bridgeDir, rec []byte) {
	info := RecordInfo{
		At:      b.clk.Now(),
		Dir:     d,
		Type:    tlssim.RecordType(rec[0]),
		WireLen: len(rec),
		Index:   st.index,
	}
	st.index++
	b.met.byDir(b.met.observed, d).Inc()
	if b.h.hold(b, info) {
		if !st.holding {
			st.holding = true
			st.heldSince = b.clk.Now()
			if b.met.trace != nil {
				b.met.trace.Emit(b.clk.Now(), "core", "hold_start", d.String(), int64(info.WireLen))
			}
		}
		st.held++
		st.queue = append(st.queue, rec)
		b.met.byDir(b.met.held, d).Inc()
		b.met.heldDepth.Add(1)
		return
	}
	st.forwarded++
	b.send(d, rec)
}

// Release flushes every held record of a direction, in original order, and
// lets the direction flow again. It returns how many records were
// released. If the direction's outbound connection died while holding, the
// records are lost (as the paper's on-demand discussion notes, the device
// side may have long given up; delivery only needs the other side).
func (b *Bridge) Release(d sniff.Direction) int {
	st := b.dir(d)
	n := len(st.queue)
	for _, rec := range st.queue {
		st.forwarded++
		b.send(d, rec)
	}
	st.queue = nil
	if n > 0 {
		b.met.byDir(b.met.released, d).Add(uint64(n))
		b.met.heldDepth.Add(int64(-n))
		b.met.releaseLatency.ObserveDuration(b.clk.Now() - st.heldSince)
		if b.met.trace != nil {
			b.met.trace.Emit(b.clk.Now(), "core", "release", d.String(), int64(n))
		}
	}
	st.holding = false
	// Close propagation after a hold is asymmetric. If the *device* died
	// mid-hold, the stealthy move (Finding 2) is to leave the server side
	// half-open: the device's quiet reconnection supersedes it and no
	// offline alarm ever fires — so nothing is propagated here. If the
	// *server* died mid-hold, hiding that from the device only zombifies
	// its session (its messages would go nowhere), so the close flows on.
	if d == sniff.DirServerToClient && b.srvClosed && !b.devClosed {
		b.devConn.Close()
	}
	return n
}

// CloseServerSide ends the server-facing connection gracefully.
func (b *Bridge) CloseServerSide() { b.srvConn.Close() }

// Inject writes a raw TLS record into the bridge's outbound stream in the
// given direction, exactly as if the bridge were forwarding it — the raw
// half of a record-and-replay attack. The receiver's TLS stack decides the
// outcome: seq-bound sessions alert on the duplicate, explicit-sequence
// sessions accept or window-drop it. Injection bypasses the hold decision
// (a replayed record is the attacker's own traffic, not a held one).
func (b *Bridge) Inject(d sniff.Direction, rec []byte) {
	b.send(d, rec)
}

func (b *Bridge) send(d sniff.Direction, rec []byte) {
	var conn *tcpsim.Conn
	if d == sniff.DirClientToServer {
		conn = b.srvConn
	} else {
		conn = b.devConn
	}
	// A dead outbound side drops the record; the stats still count it as
	// forwarded so callers can detect loss via the connection state.
	b.met.spoofedSends.Inc()
	_ = conn.Send(rec)
}
