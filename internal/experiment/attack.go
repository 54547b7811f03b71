package experiment

import (
	"fmt"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/sniff"
)

// NewAttacker joins an attacker host to the home WiFi at AttackerAddr —
// the paper's "one controlled WiFi device". The attacker reports into the
// testbed's metrics registry.
func (tb *Testbed) NewAttacker() (*core.Attacker, error) {
	atk, err := core.NewAttacker(tb.Net, tb.LAN, "attacker", AttackerAddr.String()+"/24", GatewayAddr, tb.cfg.Seed+900)
	if err != nil {
		return nil, err
	}
	atk.TCP.Instrument(tb.Metrics, "attacker")
	atk.Instrument(tb.Metrics)
	return atk, nil
}

// NewCapture starts the attacker's passive sniffing of the home WiFi: a
// capture that hears every frame on the LAN from now on, keeps up to
// retain raw record bytes per flow (0: metadata only) and reports into the
// testbed's metrics registry. It sees only the flows whose handshake it
// hears, so the attacks that read it make it before Start.
func (tb *Testbed) NewCapture(retain int) *sniff.Capture {
	c := sniff.NewCapture(tb.Clock, retain)
	c.Instrument(tb.Metrics)
	tb.LAN.AddTap(c.HandleFrame)
	return c
}

// HijackTarget resolves the man-in-the-middle coordinates for a device:
// the session owner's LAN address, its server's address and port, and the
// fingerprint model. Works for cloud and local deployments alike.
func (tb *Testbed) HijackTarget(label string) (core.Target, error) {
	p, ok := tb.profile(label)
	if !ok {
		return core.Target{}, fmt.Errorf("experiment: unknown device %q", label)
	}
	owner, err := tb.sessionProfile(p)
	if err != nil {
		return core.Target{}, err
	}
	devAddr, ok := tb.DeviceAddrs[owner.Label]
	if !ok {
		return core.Target{}, fmt.Errorf("experiment: %s not deployed", owner.Label)
	}
	var port uint16
	var serverKey string
	switch owner.Transport {
	case device.TransportMQTT:
		port, serverKey = cloud.MQTTPort, owner.ServerDomain
	case device.TransportHTTPLong, device.TransportHTTPOnDemand:
		port, serverKey = cloud.HTTPSPort, owner.ServerDomain
	case device.TransportHAP:
		port, serverKey = cloud.HAPPort, "local"
	default:
		return core.Target{}, fmt.Errorf("experiment: %s has no hijackable session", label)
	}
	srvAddr, ok := tb.ServerAddrs[serverKey]
	if !ok {
		return core.Target{}, fmt.Errorf("experiment: no server address for %q", serverKey)
	}
	return core.Target{
		DeviceAddr:  devAddr,
		ServerAddr:  srvAddr,
		ServerPort:  port,
		GatewayAddr: GatewayAddr,
		Model:       owner.Label,
	}, nil
}

// Hijack is the one-call setup used throughout the experiments: create an
// attacker (or reuse the given one), resolve the target for the device and
// install the man in the middle. It must run before the device connects
// for a silent takeover; see core.Hijacker for mid-session options.
func (tb *Testbed) Hijack(atk *core.Attacker, label string) (*core.Hijacker, error) {
	target, err := tb.HijackTarget(label)
	if err != nil {
		return nil, err
	}
	cl := sniff.CatalogClassifier()
	h := core.NewHijacker(atk, target, cl)
	if err := h.Install(); err != nil {
		return nil, err
	}
	// Let the poisoning exchanges settle.
	tb.Clock.RunFor(500 * time.Millisecond)
	return h, nil
}
