// Package core implements the paper's contribution: the phantom-delay
// attack toolkit. It contains
//
//   - Attacker: a foothold host on the victim WiFi (one controlled device,
//     per the attack model of Section III-B);
//   - Hijacker: the ARP-poisoned split-connection TCP proxy of Figure 2,
//     which acknowledges both sides immediately (so no TCP timer ever
//     fires) while holding TLS records and releasing them in order (so
//     TLS integrity and sequencing stay intact);
//   - the e-Delay and c-Delay primitives with timeout prediction
//     (Section IV-C), including the "release shortly before the predicted
//     timeout" maximisation;
//   - the Section IV-C profiler that derives a device's timeout-behaviour
//     parameters from controlled delays against a lab copy;
//   - the ordering of the Type-III attacks of Section V (ReleaseWhen);
//     Type-I and Type-II are e-Delay and c-Delay themselves.
package core

import (
	"fmt"

	"repro/internal/arp"
	"repro/internal/ipaddr"
	"repro/internal/ipnet"
	"repro/internal/netsim"
	"repro/internal/simtime"
	"repro/internal/tcpsim"
)

// Attacker is the one controlled WiFi device of the attack model. It can
// poison ARP caches, terminate TCP with spoofed addresses, and
// transparently forward everything it does not care about. Sniffing the
// broadcast medium is a separate sniff.Capture on the segment, made by
// the attacks that read one (fingerprinting, replay, TakeOver).
type Attacker struct {
	Clock   *simtime.Clock
	Host    *netsim.Host
	IP      *ipnet.Stack
	TCP     *tcpsim.Stack
	Spoofer *arp.Spoofer

	rng       *simtime.Rand
	diverters []func(ipnet.Packet) bool
	acceptors map[uint16]map[ipaddr.Addr]func(*tcpsim.Conn)
	met       coreMetrics
}

// NewAttacker joins the attacker to a LAN segment at the given CIDR
// address. The host name must be unique within the network.
func NewAttacker(nw *netsim.Network, lan *netsim.Segment, name, cidr string, gateway ipaddr.Addr, seed int64) (*Attacker, error) {
	clk := nw.Clock()
	ip := ipnet.NewStack(clk, nw.NewHost(name))
	if _, err := ip.AddIface(lan, cidr); err != nil {
		return nil, err
	}
	if err := ip.SetDefaultGateway(gateway); err != nil {
		return nil, err
	}
	a := &Attacker{
		Clock:     clk,
		Host:      ip.Host(),
		IP:        ip,
		TCP:       tcpsim.NewStack(clk, ip, tcpsim.Config{}, seed),
		rng:       simtime.NewRand(seed + 1),
		acceptors: make(map[uint16]map[ipaddr.Addr]func(*tcpsim.Conn)),
	}
	// Forward traffic that is not being attacked; divert what is. Unknown
	// diverted flows are swallowed silently (SendRST off): blackholing a
	// flow the attacker wants to take over is quieter than resetting it.
	a.IP.Forwarding = true
	a.IP.Divert = a.divert
	a.TCP.SendRST = false
	a.Spoofer = arp.NewSpoofer(clk, ip.Ifaces()[0].ARP(), 0)
	a.Spoofer.Start()
	return a, nil
}

// RNG returns the attacker's deterministic randomness source.
func (a *Attacker) RNG() *simtime.Rand { return a.rng }

// AddDivert registers a packet interceptor. Interceptors run in
// registration order; the first to return true consumes the packet.
func (a *Attacker) AddDivert(fn func(ipnet.Packet) bool) {
	a.diverters = append(a.diverters, fn)
}

func (a *Attacker) divert(p ipnet.Packet) bool {
	for _, fn := range a.diverters {
		if fn(p) {
			return true
		}
	}
	return false
}

// AcceptSpoofed routes inbound connections to a port, keyed by the true
// client address, so several hijackers can impersonate different servers
// on the same port.
func (a *Attacker) AcceptSpoofed(port uint16, client ipaddr.Addr, accept func(*tcpsim.Conn)) error {
	byClient, ok := a.acceptors[port]
	if !ok {
		byClient = make(map[ipaddr.Addr]func(*tcpsim.Conn))
		a.acceptors[port] = byClient
		if _, err := a.TCP.Listen(port, func(c *tcpsim.Conn) {
			if fn, ok := a.acceptors[port][c.Remote().Addr]; ok {
				fn(c)
			}
		}); err != nil {
			return fmt.Errorf("core: attacker listen %d: %w", port, err)
		}
	}
	if _, dup := byClient[client]; dup {
		return fmt.Errorf("core: port %d already hijacked for %s", port, client)
	}
	byClient[client] = accept
	return nil
}

// StopAccepting removes a spoofed-accept registration.
func (a *Attacker) StopAccepting(port uint16, client ipaddr.Addr) {
	if byClient, ok := a.acceptors[port]; ok {
		delete(byClient, client)
	}
}

// OnLink reports whether an address is on the attacker's LAN.
func (a *Attacker) OnLink(addr ipaddr.Addr) bool {
	return a.IP.Ifaces()[0].Prefix().Contains(addr)
}
