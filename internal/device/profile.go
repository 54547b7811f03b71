// Package device models IoT devices as timeout-behaviour profiles driving
// real protocol sessions (MQTT, HTTP long-lived, HTTP on-demand, or a
// HAP-like local protocol) over the simulated network stack.
//
// A Profile is the ground truth of Section IV-B's three parameters —
// keep-alive timeout threshold, keep-alive pattern (period + fixed/on-idle),
// and normal-message timeout threshold — plus the wire lengths that make a
// device's encrypted traffic fingerprintable. The attack-side profiler
// (internal/core) must rediscover these values from observed behaviour.
package device

import (
	"time"

	"repro/internal/proto"
	"repro/internal/tlssim"
)

// Transport selects the protocol stack a device speaks to its server.
type Transport int

// Transports.
const (
	// TransportMQTT is a long-lived MQTT session (most hubs and plugs).
	TransportMQTT Transport = iota + 1
	// TransportHTTPLong is a long-lived HTTP-like session with
	// application keep-alives (most cameras).
	TransportHTTPLong
	// TransportHTTPOnDemand opens a session per event and closes it after
	// the response (battery WiFi sensors; the Finding 1 devices).
	TransportHTTPOnDemand
	// TransportHAP is the local HomeKit-like protocol (Table II devices).
	TransportHAP
	// TransportViaHub means the device has no network presence of its own:
	// its traffic rides its hub's session (Zigbee/Z-Wave devices).
	TransportViaHub
)

// String names the transport for table rendering.
func (t Transport) String() string {
	switch t {
	case TransportMQTT:
		return "mqtt"
	case TransportHTTPLong:
		return "http-long"
	case TransportHTTPOnDemand:
		return "http-on-demand"
	case TransportHAP:
		return "hap"
	case TransportViaHub:
		return "via-hub"
	default:
		return "unknown"
	}
}

// Profile is a device model's ground-truth behaviour.
type Profile struct {
	// Label is the paper-style row identifier (H1, C2, M7, ...).
	Label string
	// Model is the commercial product name.
	Model string
	// Vendor is the manufacturer.
	Vendor string
	// Class is the device category ("contact sensor", "camera", ...).
	Class string
	// Transport selects the protocol stack.
	Transport Transport
	// ViaHub names the hub profile this device rides on (Zigbee/Z-Wave
	// devices); it implies TransportViaHub.
	ViaHub string
	// ServerDomain groups devices under their vendor endpoint cloud.
	// Local (HAP) devices use "local".
	ServerDomain string

	// KeepAlivePeriod is the keep-alive interval of the device's session
	// (zero for on-demand and HAP devices).
	KeepAlivePeriod time.Duration
	// KeepAlivePattern is fixed or on-idle.
	KeepAlivePattern proto.Pattern
	// KeepAliveTimeout is how long the device waits for a keep-alive
	// response before tearing the session down.
	KeepAliveTimeout time.Duration
	// EventTimeout bounds the device's wait for an event acknowledgement;
	// zero means none (the "∞" rows of Table I and all of Table II).
	EventTimeout time.Duration
	// CommandTimeout is the server-side wait for a command response;
	// zero means the device takes no commands or the server never times
	// them out.
	CommandTimeout time.Duration
	// ServerIdleTimeout is how long the vendor server keeps an on-demand
	// session open with no traffic (bounds Finding 1 delays).
	ServerIdleTimeout time.Duration

	// EventLen, CommandLen and KeepAliveLen are the plaintext wire lengths
	// of the device's messages — its traffic fingerprint.
	EventLen     int
	CommandLen   int
	KeepAliveLen int

	// EventAttr and EventValues describe the device's primary reportable
	// attribute (used by examples and PoC scenarios).
	EventAttr   string
	EventValues []string
	// CommandAttr names the actuator attribute, empty for pure sensors.
	CommandAttr string

	// ReplayMode is the TLS stack the device's firmware ships: seq-bound
	// (modern, the zero value), legacy explicit-nonce, or null-cipher. It
	// decides whether captured records can be re-injected (and read) by an
	// on-path attacker; see internal/replay.
	ReplayMode tlssim.ReplayMode
	// ReplayWindow is the DTLS-style anti-replay window the device
	// negotiates for its sessions (0 disables it). Only meaningful for the
	// explicit-sequence replay modes.
	ReplayWindow int
	// CloudDedup marks vendors whose cloud discards events it has already
	// accepted (same device, attribute, value and generation timestamp) —
	// the server-side replay defense.
	CloudDedup bool

	// ReconnectDelay is the device's backoff before re-dialling after a
	// session loss. Default 3s.
	ReconnectDelay time.Duration
	// CellularBackup marks devices with a fallback WAN (the Ring base
	// station): repeated failures to reach the cloud over WiFi activate
	// it. The paper's Case 1 observes that phantom delays never trigger
	// it, because the device never perceives a connectivity failure.
	CellularBackup bool
	// AppDownloads is the popularity indicator the paper uses (companion
	// app downloads on Google Play).
	AppDownloads int
}

// IsHub reports whether other devices ride this profile's session.
func (p Profile) IsHub() bool { return p.Class == "hub" || p.Class == "bridge" }
