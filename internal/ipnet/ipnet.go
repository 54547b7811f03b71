// Package ipnet implements a minimal IPv4-like network layer over netsim:
// interfaces with addresses, static routing with a default gateway, packet
// forwarding (for the home router), and a divert hook that lets an attacker
// host consume packets that ARP poisoning has redirected to it.
package ipnet

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/arp"
	"repro/internal/ipaddr"
	"repro/internal/netsim"
	"repro/internal/simtime"
)

// Protocol identifies the transport protocol carried by a packet.
type Protocol uint8

// ProtoTCP is the only transport protocol the simulation carries.
const ProtoTCP Protocol = 6

// DefaultTTL is stamped on packets sent with TTL zero.
const DefaultTTL = 64

// Packet is a network-layer packet.
type Packet struct {
	Src     ipaddr.Addr
	Dst     ipaddr.Addr
	Proto   Protocol
	TTL     uint8
	Payload []byte
}

// headerLen is the fixed marshalled header size.
const headerLen = 12

// Marshal encodes the packet for a frame payload.
func (p Packet) Marshal() []byte {
	return p.AppendTo(nil)
}

// AppendTo encodes the packet onto b (usually a reusable scratch buffer)
// and returns the extended slice.
func (p Packet) AppendTo(b []byte) []byte {
	n := len(b)
	b = grow(b, headerLen+len(p.Payload))
	out := b[n:]
	out[0] = byte(p.Proto)
	out[1] = p.TTL
	src := p.Src.Bytes()
	dst := p.Dst.Bytes()
	copy(out[2:6], src[:])
	copy(out[6:10], dst[:])
	binary.BigEndian.PutUint16(out[10:12], uint16(len(p.Payload)))
	copy(out[headerLen:], p.Payload)
	return b
}

// grow extends b by n zero-initialised bytes, reallocating only when the
// capacity is short.
func grow(b []byte, n int) []byte {
	l := len(b)
	if cap(b)-l < n {
		nb := make([]byte, l+n, l+n)
		copy(nb, b)
		return nb
	}
	b = b[:l+n]
	for i := l; i < len(b); i++ {
		b[i] = 0
	}
	return b
}

// ErrShortPacket reports a truncated network-layer payload.
var ErrShortPacket = errors.New("ipnet: short packet")

// Unmarshal decodes a frame payload into a Packet.
func Unmarshal(b []byte) (Packet, error) {
	if len(b) < headerLen {
		return Packet{}, ErrShortPacket
	}
	var src, dst [4]byte
	copy(src[:], b[2:6])
	copy(dst[:], b[6:10])
	n := int(binary.BigEndian.Uint16(b[10:12]))
	if len(b) < headerLen+n {
		return Packet{}, ErrShortPacket
	}
	return Packet{
		Src:     ipaddr.FromBytes(src),
		Dst:     ipaddr.FromBytes(dst),
		Proto:   Protocol(b[0]),
		TTL:     b[1],
		Payload: b[headerLen : headerLen+n],
	}, nil
}

// String summarises the packet for traces.
func (p Packet) String() string {
	return fmt.Sprintf("%s->%s proto=%d len=%d", p.Src, p.Dst, p.Proto, len(p.Payload))
}

// Iface is an addressed attachment of a stack to a segment.
type Iface struct {
	nic    *netsim.NIC
	addr   ipaddr.Addr
	prefix ipaddr.Prefix
	arp    *arp.Client
}

// Prefix returns the interface's on-link prefix.
func (i *Iface) Prefix() ipaddr.Prefix { return i.prefix }

// NIC returns the underlying layer-2 interface.
func (i *Iface) NIC() *netsim.NIC { return i.nic }

// ARP returns the interface's ARP client (exposed for the spoofer).
func (i *Iface) ARP() *arp.Client { return i.arp }

// Route maps a destination prefix to an output interface and optional
// next-hop gateway (zero means deliver directly on-link).
type Route struct {
	Prefix ipaddr.Prefix
	Via    ipaddr.Addr
	Iface  *Iface
}

// Stats counts network-layer activity.
type Stats struct {
	Sent      uint64
	Received  uint64
	Forwarded uint64
	Diverted  uint64
	Dropped   uint64
}

// Stack is a host's network layer.
type Stack struct {
	clk      *simtime.Clock
	host     *netsim.Host
	ifaces   []*Iface
	routes   []Route
	handlers map[Protocol]func(Packet)
	// Forwarding enables router behaviour: packets not addressed to the
	// stack are re-routed instead of dropped.
	Forwarding bool
	// Divert, if non-nil, sees packets not addressed to this stack before
	// forwarding. Returning true consumes the packet. This is the attacker's
	// interception point for traffic redirected to it by ARP poisoning.
	Divert func(Packet) bool
	stats  Stats
	// txbuf is the marshal scratch for the synchronous send path. It is
	// safe to reuse per send because netsim copies the frame payload into
	// its own pooled buffer before Send returns.
	txbuf []byte
}

// NewStack creates a network stack for the host.
func NewStack(clk *simtime.Clock, host *netsim.Host) *Stack {
	return &Stack{
		clk:      clk,
		host:     host,
		handlers: make(map[Protocol]func(Packet)),
	}
}

// Host returns the owning host.
func (s *Stack) Host() *netsim.Host { return s.host }

// Stats returns a copy of the stack's counters.
func (s *Stack) Stats() Stats { return s.stats }

// AddIface attaches the stack to a segment with the given CIDR address
// (e.g. "192.168.1.10/24") and installs the on-link route.
func (s *Stack) AddIface(seg *netsim.Segment, cidr string) (*Iface, error) {
	pfx, err := ipaddr.ParsePrefix(cidr)
	if err != nil {
		return nil, err
	}
	nic := s.host.AttachNIC(seg)
	ifc := &Iface{
		nic:    nic,
		addr:   pfx.Addr,
		prefix: pfx,
		arp:    arp.NewClient(s.clk, nic, pfx.Addr),
	}
	nic.SetHandler(func(_ *netsim.NIC, f netsim.Frame) { s.receiveFrame(ifc, f) })
	s.ifaces = append(s.ifaces, ifc)
	s.routes = append(s.routes, Route{Prefix: pfx, Iface: ifc})
	return ifc, nil
}

// MustAddIface is AddIface for test and builder code; it panics on error.
func (s *Stack) MustAddIface(seg *netsim.Segment, cidr string) *Iface {
	ifc, err := s.AddIface(seg, cidr)
	if err != nil {
		panic(err)
	}
	return ifc
}

// Ifaces returns the stack's interfaces in attachment order.
func (s *Stack) Ifaces() []*Iface {
	out := make([]*Iface, len(s.ifaces))
	copy(out, s.ifaces)
	return out
}

// Addr returns the address of the first interface (convenience for
// single-homed hosts). It returns the zero Addr if no interface exists.
func (s *Stack) Addr() ipaddr.Addr {
	if len(s.ifaces) == 0 {
		return 0
	}
	return s.ifaces[0].addr
}

// AddRoute installs a static route.
func (s *Stack) AddRoute(prefix ipaddr.Prefix, via ipaddr.Addr, ifc *Iface) {
	s.routes = append(s.routes, Route{Prefix: prefix, Via: via, Iface: ifc})
}

// SetDefaultGateway installs a 0.0.0.0/0 route via gw out of the interface
// whose prefix contains gw.
func (s *Stack) SetDefaultGateway(gw ipaddr.Addr) error {
	for _, ifc := range s.ifaces {
		if ifc.prefix.Contains(gw) {
			s.AddRoute(ipaddr.Prefix{}, gw, ifc)
			return nil
		}
	}
	return fmt.Errorf("ipnet: no interface on-link for gateway %s", gw)
}

// Handle registers the receive callback for a transport protocol.
func (s *Stack) Handle(proto Protocol, fn func(Packet)) {
	s.handlers[proto] = fn
}

// ErrNoRoute reports that no route matched a packet's destination.
var ErrNoRoute = errors.New("ipnet: no route to destination")

// Send routes and transmits a packet. A zero Src is filled with the output
// interface's address; a non-zero Src is sent as-is (spoofing is an
// attacker capability). A zero TTL is stamped with DefaultTTL.
func (s *Stack) Send(p Packet) error {
	rt := s.lookupRoute(p.Dst)
	if rt == nil {
		s.stats.Dropped++
		return fmt.Errorf("%w: %s", ErrNoRoute, p.Dst)
	}
	if p.Src.IsZero() {
		p.Src = rt.Iface.addr
	}
	if p.TTL == 0 {
		p.TTL = DefaultTTL
	}
	nextHop := p.Dst
	if !rt.Via.IsZero() {
		nextHop = rt.Via
	}
	s.stats.Sent++
	ifc := rt.Iface
	// Fast path: with the next hop already in the ARP cache the whole send
	// is synchronous, so the packet marshals into the stack's scratch
	// buffer (netsim copies the payload before Send returns).
	if mac, ok := ifc.arp.Lookup(nextHop); ok {
		s.txbuf = p.AppendTo(s.txbuf[:0])
		ifc.nic.Send(netsim.Frame{
			Dst:     mac,
			Type:    netsim.EtherTypeIPv4,
			Payload: s.txbuf,
		})
		return nil
	}
	// Slow path: resolution defers the send, so the packet — whose payload
	// may alias a caller's scratch or a pooled frame buffer — must be
	// detached before it is captured.
	p.Payload = append([]byte(nil), p.Payload...)
	ifc.arp.Resolve(nextHop, func(mac netsim.MAC, ok bool) {
		if !ok {
			s.stats.Dropped++
			return
		}
		ifc.nic.Send(netsim.Frame{
			Dst:     mac,
			Type:    netsim.EtherTypeIPv4,
			Payload: p.Marshal(),
		})
	})
	return nil
}

func (s *Stack) lookupRoute(dst ipaddr.Addr) *Route {
	var best *Route
	for i := range s.routes {
		rt := &s.routes[i]
		if !rt.Prefix.Contains(dst) {
			continue
		}
		if best == nil || rt.Prefix.Bits > best.Prefix.Bits {
			best = rt
		}
	}
	return best
}

func (s *Stack) receiveFrame(ifc *Iface, f netsim.Frame) {
	switch f.Type {
	case netsim.EtherTypeARP:
		ifc.arp.HandleFrame(f)
	case netsim.EtherTypeIPv4:
		p, err := Unmarshal(f.Payload)
		if err != nil {
			s.stats.Dropped++
			return
		}
		s.receivePacket(p)
	}
}

func (s *Stack) receivePacket(p Packet) {
	if s.isLocal(p.Dst) {
		s.stats.Received++
		if h, ok := s.handlers[p.Proto]; ok {
			h(p)
		} else {
			s.stats.Dropped++
		}
		return
	}
	if s.Divert != nil && s.Divert(p) {
		s.stats.Diverted++
		return
	}
	if !s.Forwarding {
		s.stats.Dropped++
		return
	}
	if p.TTL <= 1 {
		s.stats.Dropped++
		return
	}
	p.TTL--
	s.stats.Forwarded++
	// Errors at forwarding time mean an unroutable destination; the packet
	// is silently dropped as a real router without ICMP would.
	if err := s.Send(p); err != nil {
		s.stats.Dropped++
	}
}

func (s *Stack) isLocal(a ipaddr.Addr) bool {
	for _, ifc := range s.ifaces {
		if ifc.addr == a {
			return true
		}
	}
	return false
}
