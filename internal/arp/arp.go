// Package arp implements address resolution over netsim segments, including
// the cache-poisoning behaviour the paper's attack model relies on: caches
// accept unsolicited replies, so an attacker can redirect a victim's unicast
// traffic through itself (Section III-B of the paper; the large-scale study
// it cites found IoT devices widely vulnerable to exactly this).
package arp

import (
	"encoding/binary"
	"errors"
	"time"

	"repro/internal/ipaddr"
	"repro/internal/netsim"
	"repro/internal/simtime"
)

// Op distinguishes ARP packet kinds.
type Op uint16

// ARP operations, numbered as in RFC 826.
const (
	OpRequest Op = 1
	OpReply   Op = 2
)

// Packet is an ARP request or reply.
type Packet struct {
	Op        Op
	SenderMAC netsim.MAC
	SenderIP  ipaddr.Addr
	TargetMAC netsim.MAC
	TargetIP  ipaddr.Addr
}

const packetLen = 2 + 6 + 4 + 6 + 4

// Marshal encodes the packet for a frame payload.
func (p Packet) Marshal() []byte {
	return p.AppendTo(nil)
}

// AppendTo encodes the packet onto b (usually a reusable scratch buffer)
// and returns the extended slice.
func (p Packet) AppendTo(b []byte) []byte {
	n := len(b)
	total := n + packetLen
	if cap(b) < total {
		nb := make([]byte, total)
		copy(nb, b)
		b = nb
	} else {
		b = b[:total]
	}
	out := b[n:]
	binary.BigEndian.PutUint16(out[0:2], uint16(p.Op))
	copy(out[2:8], p.SenderMAC[:])
	sip := p.SenderIP.Bytes()
	copy(out[8:12], sip[:])
	copy(out[12:18], p.TargetMAC[:])
	tip := p.TargetIP.Bytes()
	copy(out[18:22], tip[:])
	return b
}

// ErrShortPacket reports a truncated ARP payload.
var ErrShortPacket = errors.New("arp: short packet")

// Unmarshal decodes a frame payload into a Packet.
func Unmarshal(b []byte) (Packet, error) {
	if len(b) < packetLen {
		return Packet{}, ErrShortPacket
	}
	var p Packet
	p.Op = Op(binary.BigEndian.Uint16(b[0:2]))
	copy(p.SenderMAC[:], b[2:8])
	var sip, tip [4]byte
	copy(sip[:], b[8:12])
	p.SenderIP = ipaddr.FromBytes(sip)
	copy(p.TargetMAC[:], b[12:18])
	copy(tip[:], b[18:22])
	p.TargetIP = ipaddr.FromBytes(tip)
	return p, nil
}

// A resolution attempt waits requestTimeout for a reply and is repeated
// maxRetries times before the resolution fails.
const (
	requestTimeout = time.Second
	maxRetries     = 2
)

// Client resolves protocol addresses to MACs on one NIC and answers
// requests for its own address. It deliberately reproduces the permissive
// cache behaviour common in deployed stacks: any reply, solicited or not,
// overwrites the cache entry for its sender.
type Client struct {
	clk     *simtime.Clock
	nic     *netsim.NIC
	self    ipaddr.Addr
	cache   map[ipaddr.Addr]netsim.MAC
	pending map[ipaddr.Addr]*resolution
	// txbuf is the marshal scratch for the client's sends; netsim copies a
	// frame's payload before Send returns, so one buffer serves them all.
	txbuf []byte
}

// send marshals p into the client's scratch and transmits it.
func (c *Client) send(dst netsim.MAC, p Packet) {
	c.txbuf = p.AppendTo(c.txbuf[:0])
	c.nic.Send(netsim.Frame{Dst: dst, Type: netsim.EtherTypeARP, Payload: c.txbuf})
}

type resolution struct {
	callbacks []func(netsim.MAC, bool)
	retries   int
	timer     *simtime.Timer
}

// NewClient creates an ARP client for a NIC bound to the given address.
func NewClient(clk *simtime.Clock, nic *netsim.NIC, self ipaddr.Addr) *Client {
	return &Client{
		clk:     clk,
		nic:     nic,
		self:    self,
		cache:   make(map[ipaddr.Addr]netsim.MAC),
		pending: make(map[ipaddr.Addr]*resolution),
	}
}

// Self returns the protocol address the client answers for.
func (c *Client) Self() ipaddr.Addr { return c.self }

// Lookup returns the cached MAC for addr, if any.
func (c *Client) Lookup(addr ipaddr.Addr) (netsim.MAC, bool) {
	m, ok := c.cache[addr]
	return m, ok
}

// Resolve invokes done with the MAC for addr once known. The callback fires
// immediately on a cache hit, otherwise after a request/reply exchange; it
// receives ok=false if resolution times out.
func (c *Client) Resolve(addr ipaddr.Addr, done func(netsim.MAC, bool)) {
	if m, ok := c.cache[addr]; ok {
		done(m, true)
		return
	}
	if r, ok := c.pending[addr]; ok {
		r.callbacks = append(r.callbacks, done)
		return
	}
	r := &resolution{callbacks: []func(netsim.MAC, bool){done}}
	c.pending[addr] = r
	c.sendRequest(addr, r)
}

func (c *Client) sendRequest(addr ipaddr.Addr, r *resolution) {
	c.send(netsim.BroadcastMAC, Packet{
		Op:        OpRequest,
		SenderMAC: c.nic.MAC(),
		SenderIP:  c.self,
		TargetIP:  addr,
	})
	r.timer = c.clk.Schedule(requestTimeout, func() {
		if r.retries < maxRetries {
			r.retries++
			c.sendRequest(addr, r)
			return
		}
		delete(c.pending, addr)
		for _, cb := range r.callbacks {
			cb(netsim.MAC{}, false)
		}
	})
}

// Announce broadcasts a gratuitous reply advertising the client's own
// binding, as hosts do when joining a network.
func (c *Client) Announce() {
	c.send(netsim.BroadcastMAC, Packet{
		Op:        OpReply,
		SenderMAC: c.nic.MAC(),
		SenderIP:  c.self,
		TargetMAC: netsim.BroadcastMAC,
		TargetIP:  c.self,
	})
}

// HandleFrame processes an ARP frame received on the client's NIC. The
// owner of the NIC handler (the IP stack) routes EtherTypeARP frames here.
func (c *Client) HandleFrame(f netsim.Frame) {
	p, err := Unmarshal(f.Payload)
	if err != nil {
		return
	}
	// Vulnerable-by-default cache update: learn the sender binding from any
	// packet, including unsolicited replies. This is the poisoning surface.
	// Most frames (a spoofer's re-poison ticks) repeat the cached binding,
	// so the map is written only on a change and searched for a waiting
	// resolution only while one is pending.
	if !p.SenderIP.IsZero() {
		if m, ok := c.cache[p.SenderIP]; !ok || m != p.SenderMAC {
			c.cache[p.SenderIP] = p.SenderMAC
		}
		if len(c.pending) > 0 {
			if r, ok := c.pending[p.SenderIP]; ok {
				delete(c.pending, p.SenderIP)
				r.timer.Stop()
				for _, cb := range r.callbacks {
					cb(p.SenderMAC, true)
				}
			}
		}
	}
	if p.Op == OpRequest && p.TargetIP == c.self {
		c.send(p.SenderMAC, Packet{
			Op:        OpReply,
			SenderMAC: c.nic.MAC(),
			SenderIP:  c.self,
			TargetMAC: p.SenderMAC,
			TargetIP:  p.SenderIP,
		})
	}
}
