// Package netsim models a layer-2 network: broadcast segments (one per
// WiFi LAN or point-to-point uplink), hosts with NICs, and frame delivery
// with configurable latency and jitter.
//
// The medium is a broadcast domain, like WiFi: every frame is observable by
// promiscuous NICs and segment taps regardless of its destination MAC. This
// is what makes the paper's sniffing step possible, and ARP cache poisoning
// (package arp) is what redirects unicast traffic through an attacker.
package netsim

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/simtime"
)

// MAC is a 48-bit hardware address.
type MAC [6]byte

// BroadcastMAC is the all-ones broadcast address.
var BroadcastMAC = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// IsBroadcast reports whether m is the broadcast address.
func (m MAC) IsBroadcast() bool { return m == BroadcastMAC }

// IsZero reports whether m is the all-zeros (unset) address.
func (m MAC) IsZero() bool { return m == MAC{} }

// String renders the address in colon-separated hex.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// EtherType identifies the payload protocol of a frame.
type EtherType uint16

// EtherType values mirror the real registry for the two protocols we carry.
const (
	EtherTypeIPv4 EtherType = 0x0800
	EtherTypeARP  EtherType = 0x0806
)

// Frame is a layer-2 frame.
type Frame struct {
	Src     MAC
	Dst     MAC
	Type    EtherType
	Payload []byte
}

// Len returns the frame's size in bytes, counting a fixed 14-byte header.
func (f Frame) Len() int { return 14 + len(f.Payload) }

// Tap observes every frame delivered on a segment. Taps receive frames at
// delivery time, after the propagation delay.
type Tap func(Frame)

// Network owns segments and hosts and assigns deterministic MAC addresses.
type Network struct {
	clk     *simtime.Clock
	rng     *simtime.Rand
	macSeq  uint32
	hosts   map[string]*Host
	metrics *obs.Registry
	// free is the in-flight-frame pool: each delivery owns a payload buffer
	// and a rearm-in-place timer, recycled the moment the frame has been
	// handed to every receiver. Steady-state frame transport allocates
	// nothing once the pool has grown to the peak in-flight depth.
	free []*delivery
}

// NewNetwork creates a network on the given clock. The seed drives latency
// jitter; the same seed reproduces the same run.
func NewNetwork(clk *simtime.Clock, seed int64) *Network {
	return &Network{
		clk:   clk,
		rng:   simtime.NewRand(seed),
		hosts: make(map[string]*Host),
	}
}

// delivery is one frame in flight: scheduled at send time, fired at
// delivery time, recycled immediately after.
type delivery struct {
	net  *Network
	seg  *Segment
	from *NIC
	f    Frame
	buf  []byte // owned; f.Payload aliases it while in flight
	tm   *simtime.Timer
}

func (d *delivery) fire() {
	d.seg.deliver(d.from, d.f)
	// Receivers must have copied what they keep (taps and protocol layers
	// above copy at their own boundaries), so the buffer recycles here.
	d.seg, d.from, d.f = nil, nil, Frame{}
	d.net.free = append(d.net.free, d)
}

func (n *Network) getDelivery() *delivery {
	if len(n.free) == 0 {
		d := &delivery{net: n}
		d.tm = n.clk.NewTimer(d.fire)
		return d
	}
	d := n.free[len(n.free)-1]
	n.free = n.free[:len(n.free)-1]
	return d
}

// Clock returns the virtual clock the network runs on.
func (n *Network) Clock() *simtime.Clock { return n.clk }

// Instrument attaches a metrics registry. Segments created afterwards
// export per-segment counters:
//
//	netsim_frames_sent_total{segment}      frames put on the medium
//	netsim_bytes_sent_total{segment}       bytes put on the medium
//	netsim_frames_delivered_total{segment} frames a NIC handled
//	netsim_frames_dropped_total{segment,reason}
//	    reason: loss | no_receiver | iface_down
//
// Call it before building the topology; segments created earlier stay
// uninstrumented (their Stats struct still counts everything).
func (n *Network) Instrument(reg *obs.Registry) { n.metrics = reg }

// NewSegment creates a broadcast segment. Frames experience the given base
// latency perturbed by the jitter factor (0 disables jitter).
func (n *Network) NewSegment(name string, latency time.Duration, jitter float64) *Segment {
	if latency < 0 {
		latency = 0
	}
	s := &Segment{net: n, latency: latency, jitter: jitter}
	s.met = newSegMetrics(n.metrics, name)
	return s
}

// NewHost creates a named host. Host names must be unique.
func (n *Network) NewHost(name string) *Host {
	if _, dup := n.hosts[name]; dup {
		panic("netsim: duplicate host name " + name)
	}
	h := &Host{net: n}
	n.hosts[name] = h
	return h
}

// Host returns the host with the given name, or nil.
func (n *Network) Host(name string) *Host { return n.hosts[name] }

func (n *Network) nextMAC() MAC {
	n.macSeq++
	s := n.macSeq
	// Locally administered unicast prefix 02:00.
	return MAC{0x02, 0x00, byte(s >> 24), byte(s >> 16), byte(s >> 8), byte(s)}
}

// Stats counts traffic on a segment or NIC. Drops are split by cause so
// profiler-facing numbers are truthful: injected medium loss, frames no
// powered-up NIC wanted (taps may still have observed them), and frames
// blocked by an administratively-down interface.
type Stats struct {
	FramesSent      uint64
	BytesSent       uint64
	FramesDelivered uint64
	// DropsLoss counts frames lost to the segment's injected loss rate.
	DropsLoss uint64
	// DropsNoReceiver counts frames delivered to the medium that no NIC
	// accepted (unknown destination, or the only match had no handler).
	DropsNoReceiver uint64
	// DropsIfaceDown counts frames blocked by a down interface: on a NIC,
	// both refused transmissions and suppressed receptions; on a segment,
	// frames whose only would-be receivers were down.
	DropsIfaceDown uint64
}

// FramesDropped totals the drop counters across causes.
func (s Stats) FramesDropped() uint64 {
	return s.DropsLoss + s.DropsNoReceiver + s.DropsIfaceDown
}

// segMetrics are a segment's obs counter handles (nil when the owning
// network is uninstrumented; all methods no-op).
type segMetrics struct {
	framesSent      *obs.Counter
	bytesSent       *obs.Counter
	framesDelivered *obs.Counter
	dropsLoss       *obs.Counter
	dropsNoReceiver *obs.Counter
	dropsIfaceDown  *obs.Counter
}

func newSegMetrics(reg *obs.Registry, segment string) segMetrics {
	if reg == nil {
		return segMetrics{}
	}
	l := obs.L("segment", segment)
	drop := func(reason string) *obs.Counter {
		return reg.Counter("netsim_frames_dropped_total", l, obs.L("reason", reason))
	}
	return segMetrics{
		framesSent:      reg.Counter("netsim_frames_sent_total", l),
		bytesSent:       reg.Counter("netsim_bytes_sent_total", l),
		framesDelivered: reg.Counter("netsim_frames_delivered_total", l),
		dropsLoss:       drop("loss"),
		dropsNoReceiver: drop("no_receiver"),
		dropsIfaceDown:  drop("iface_down"),
	}
}

// Segment is a broadcast domain.
type Segment struct {
	net      *Network
	latency  time.Duration
	jitter   float64
	lossRate float64
	nics     []*NIC
	taps     []Tap
	stats    Stats
	met      segMetrics
}

// SetLossRate makes the segment drop frames uniformly at the given
// probability (deterministic per seed). Used for failure-injection tests:
// the phantom-delay attack never drops frames itself, but the TCP layer
// underneath must survive a lossy medium.
func (s *Segment) SetLossRate(p float64) {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	s.lossRate = p
}

// Stats returns a copy of the segment's traffic counters.
func (s *Segment) Stats() Stats { return s.stats }

// AddTap registers a passive observer of all frames on the segment.
func (s *Segment) AddTap(t Tap) { s.taps = append(s.taps, t) }

// Taps counts the passive observers registered with AddTap.
func (s *Segment) Taps() int { return len(s.taps) }

// send delivers f from the given NIC after the propagation delay.
func (s *Segment) send(from *NIC, f Frame) {
	s.stats.FramesSent++
	s.stats.BytesSent += uint64(f.Len())
	s.met.framesSent.Inc()
	s.met.bytesSent.Add(uint64(f.Len()))
	if s.lossRate > 0 && s.net.rng.Float64() < s.lossRate {
		s.stats.DropsLoss++
		s.met.dropsLoss.Inc()
		return
	}
	delay := s.latency
	if s.jitter > 0 {
		delay = s.net.rng.Jitter(s.latency, s.jitter)
	}
	// Copy the payload at the boundary so senders cannot mutate frames in
	// flight. The copy lives in a pooled buffer that recycles at delivery,
	// so steady-state transport does not allocate per frame.
	d := s.net.getDelivery()
	d.seg, d.from = s, from
	if len(f.Payload) > 0 {
		d.buf = append(d.buf[:0], f.Payload...)
		f.Payload = d.buf
	}
	d.f = f
	d.tm.Reset(delay)
}

func (s *Segment) deliver(from *NIC, f Frame) {
	for _, t := range s.taps {
		t(f)
	}
	delivered := false
	blockedByDown := false
	for _, nic := range s.nics {
		if nic == from {
			continue
		}
		wants := f.Dst.IsBroadcast() || nic.mac == f.Dst || nic.promiscuous
		if !wants {
			continue
		}
		if nic.down {
			// The frame reached a station that would have taken it, but the
			// interface is administratively down: count the suppressed rx.
			nic.stats.DropsIfaceDown++
			blockedByDown = true
			continue
		}
		if nic.handler == nil {
			continue
		}
		nic.stats.FramesDelivered++
		nic.handler(nic, f)
		delivered = true
	}
	switch {
	case delivered:
		s.stats.FramesDelivered++
		s.met.framesDelivered.Inc()
	case blockedByDown:
		s.stats.DropsIfaceDown++
		s.met.dropsIfaceDown.Inc()
	default:
		// Taps may have observed the frame, but no NIC wanted it.
		s.stats.DropsNoReceiver++
		s.met.dropsNoReceiver.Inc()
	}
}

// Host is a machine with one or more NICs.
type Host struct {
	net *Network
}

// AttachNIC connects the host to a segment with a fresh MAC address.
func (h *Host) AttachNIC(seg *Segment) *NIC {
	nic := &NIC{seg: seg, mac: h.net.nextMAC()}
	seg.nics = append(seg.nics, nic)
	return nic
}

// NIC is a network interface on a segment.
type NIC struct {
	seg         *Segment
	mac         MAC
	handler     func(*NIC, Frame)
	promiscuous bool
	down        bool
	stats       Stats
}

// MAC returns the interface's hardware address.
func (nic *NIC) MAC() MAC { return nic.mac }

// Stats returns a copy of the NIC's counters.
func (nic *NIC) Stats() Stats { return nic.stats }

// SetHandler installs the receive callback. Frames arriving while no
// handler is installed are dropped.
func (nic *NIC) SetHandler(fn func(*NIC, Frame)) { nic.handler = fn }

// SetPromiscuous toggles delivery of frames addressed to other stations.
// An attacker NIC uses this to sniff the WiFi medium.
func (nic *NIC) SetPromiscuous(on bool) { nic.promiscuous = on }

// SetDown toggles the interface administratively down (drops rx and tx).
func (nic *NIC) SetDown(down bool) { nic.down = down }

// Send transmits a frame on the segment. If f.Src is zero it is stamped
// with the NIC's own MAC; a non-zero Src is sent as-is, which is what
// permits spoofing.
func (nic *NIC) Send(f Frame) {
	if nic.down {
		// The frame never reaches the medium, so it does not enter the
		// segment's sent/dropped accounting — the refused tx is visible on
		// the NIC itself.
		nic.stats.DropsIfaceDown++
		return
	}
	if f.Src.IsZero() {
		f.Src = nic.mac
	}
	nic.stats.FramesSent++
	nic.stats.BytesSent += uint64(f.Len())
	nic.seg.send(nic, f)
}
