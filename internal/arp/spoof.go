package arp

import (
	"time"

	"repro/internal/ipaddr"
	"repro/internal/netsim"
	"repro/internal/simtime"
)

// Spoofer poisons victims' ARP caches so that their traffic for chosen
// addresses is delivered to the attacker's NIC instead. It periodically
// re-sends the forged bindings, as real tools do, so that legitimate ARP
// traffic cannot heal the victims' caches for long.
type Spoofer struct {
	clk      *simtime.Clock
	client   *Client
	period   time.Duration
	entries  []spoofEntry
	realMACs map[ipaddr.Addr]netsim.MAC
	ticker   *simtime.Ticker
	active   bool
}

type spoofEntry struct {
	victimIP  ipaddr.Addr
	victimMAC netsim.MAC
	claimedIP ipaddr.Addr
	// forged is the entry's encoded lie, marshalled once by Poison and
	// re-sent on every tick (netsim copies a payload before Send returns).
	forged []byte
}

// NewSpoofer creates a spoofer that re-poisons every period (default 1s if
// period <= 0) once Start is called.
func NewSpoofer(clk *simtime.Clock, client *Client, period time.Duration) *Spoofer {
	if period <= 0 {
		period = time.Second
	}
	return &Spoofer{
		clk:      clk,
		client:   client,
		period:   period,
		realMACs: make(map[ipaddr.Addr]netsim.MAC),
	}
}

// Poison tells victim that claimed is at the attacker's MAC. It resolves
// the victim's real MAC first (needed to address the forged reply) and
// remembers the claimed address's real binding so Restore can heal it.
// A victim that cannot be resolved is not poisoned.
func (s *Spoofer) Poison(victim, claimed ipaddr.Addr) {
	s.client.Resolve(victim, func(victimMAC netsim.MAC, ok bool) {
		if !ok {
			return
		}
		// Learn the claimed address's genuine MAC before we start lying
		// about it, so Restore can put it back.
		s.client.Resolve(claimed, func(realMAC netsim.MAC, ok bool) {
			if ok {
				s.realMACs[claimed] = realMAC
			}
			s.entries = append(s.entries, spoofEntry{
				victimIP:  victim,
				victimMAC: victimMAC,
				claimedIP: claimed,
				forged: Packet{
					Op:        OpReply,
					SenderMAC: s.client.nic.MAC(), // the lie: claimed is-at attacker
					SenderIP:  claimed,
					TargetMAC: victimMAC,
					TargetIP:  victim,
				}.Marshal(),
			})
			s.sendForged(s.entries[len(s.entries)-1])
			if s.active && s.ticker == nil {
				s.startTicker()
			}
		})
	})
}

// Start begins periodic re-poisoning of all registered entries.
func (s *Spoofer) Start() {
	if s.active {
		return
	}
	s.active = true
	if len(s.entries) > 0 {
		s.startTicker()
	}
}

func (s *Spoofer) startTicker() {
	s.ticker = simtime.NewTicker(s.clk, s.period, func() {
		for _, e := range s.entries {
			s.sendForged(e)
		}
	})
}

// SetPeriod changes the re-poison interval. Against quiet LANs a slow
// period is just as effective (see the ablation tests) and far less
// chatty; against caches that re-learn frequently, faster wins.
func (s *Spoofer) SetPeriod(period time.Duration) {
	if period <= 0 {
		period = time.Second
	}
	s.period = period
	if s.ticker != nil {
		s.ticker.Stop()
		s.startTicker()
	}
}

// Stop halts re-poisoning without healing the victims' caches.
func (s *Spoofer) Stop() {
	s.active = false
	if s.ticker != nil {
		s.ticker.Stop()
		s.ticker = nil
	}
}

// Restore stops the attack and sends corrective replies re-binding each
// claimed address to its genuine MAC.
func (s *Spoofer) Restore() {
	s.Stop()
	for _, e := range s.entries {
		realMAC, ok := s.realMACs[e.claimedIP]
		if !ok {
			continue
		}
		s.client.send(e.victimMAC, Packet{
			Op:        OpReply,
			SenderMAC: realMAC,
			SenderIP:  e.claimedIP,
			TargetMAC: e.victimMAC,
			TargetIP:  e.victimIP,
		})
	}
	s.entries = nil
}

func (s *Spoofer) sendForged(e spoofEntry) {
	s.client.nic.Send(netsim.Frame{Dst: e.victimMAC, Type: netsim.EtherTypeARP, Payload: e.forged})
}
