package device

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/hapsim"
	"repro/internal/httpsim"
	"repro/internal/mqttsim"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/simtime"
	"repro/internal/tcpsim"
	"repro/internal/tlssim"
)

// Env is the network context a session-owning device runs in.
type Env struct {
	Clock *simtime.Clock
	TCP   *tcpsim.Stack
	RNG   *simtime.Rand
	// Server is the device's cloud endpoint (or local hub for HAP).
	Server tcpsim.Endpoint
	// Trace, when enabled, makes the device's TLS and application-protocol
	// sessions emit flight-recorder events.
	Trace *obs.Trace
}

// EventTopic returns the MQTT topic carrying a device's events.
func EventTopic(label string) string { return label + "/event" }

// CommandTopic returns the MQTT topic carrying commands for a device.
func CommandTopic(label string) string { return label + "/set" }

// EncodeBody packs an event or command into a message body.
func EncodeBody(origin, attr, value string) []byte {
	return []byte(origin + "|" + attr + "|" + value)
}

// DecodeBody unpacks a message body produced by EncodeBody.
func DecodeBody(b []byte) (origin, attr, value string, err error) {
	parts := strings.SplitN(string(b), "|", 3)
	if len(parts) != 3 {
		return "", "", "", fmt.Errorf("device: malformed body %q", b)
	}
	return parts[0], parts[1], parts[2], nil
}

// LogEntry records one device-visible occurrence.
type LogEntry struct {
	At     simtime.Time
	Kind   string // "connected", "closed", "event-sent", "command-applied", "event-dropped"
	Detail string
}

// ErrNotConnected reports an event raised while the device's session (or
// its hub's) is down.
var ErrNotConnected = errors.New("device: session not connected")

// Device is a running device instance.
type Device struct {
	env     Env
	profile Profile

	parent   *Device
	children map[string]*Device

	state     map[string]string
	log       []LogEntry
	connected bool
	stopped   bool

	failedConnects int
	cellular       bool

	mqtt *mqttsim.Client
	http *httpsim.Client
	hap  *hapsim.Accessory

	reconnect *simtime.Timer
}

// New creates a session-owning device (anything but TransportViaHub).
func New(env Env, p Profile) *Device {
	if p.Transport == TransportViaHub {
		panic("device: use NewChild for via-hub devices")
	}
	if p.ReconnectDelay <= 0 {
		p.ReconnectDelay = 3 * time.Second
	}
	return &Device{
		env:      env,
		profile:  p,
		children: make(map[string]*Device),
		state:    make(map[string]string),
	}
}

// NewChild creates a hub-attached device riding the parent's session.
func NewChild(parent *Device, p Profile) *Device {
	if p.Transport != TransportViaHub {
		panic("device: NewChild requires TransportViaHub")
	}
	d := &Device{
		env:      parent.env,
		profile:  p,
		parent:   parent,
		children: make(map[string]*Device),
		state:    make(map[string]string),
	}
	parent.children[p.Label] = d
	return d
}

// Profile returns the device's profile.
func (d *Device) Profile() Profile { return d.profile }

// Label returns the device's identifier.
func (d *Device) Label() string { return d.profile.Label }

// Children returns the hub's attached devices (empty for non-hubs),
// ordered by label: the attachment table is a map, and callers walk the
// result to drive deterministic startup and measurement.
func (d *Device) Children() []*Device {
	out := make([]*Device, 0, len(d.children))
	for _, c := range d.children {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Label() < out[j].Label() })
	return out
}

// State returns the device's last known value for an attribute.
func (d *Device) State(attr string) string { return d.state[attr] }

// Connected reports whether the device (or its hub) has a live session.
// On-demand devices are always "connected": they dial per event.
func (d *Device) Connected() bool {
	if d.parent != nil {
		return d.parent.Connected()
	}
	if d.profile.Transport == TransportHTTPOnDemand {
		return !d.stopped
	}
	return d.connected
}

// TCPConn exposes the transport connection of the device's live session
// (nil when disconnected or on-demand). Device-side defenses such as the
// RTT monitor attach here, as firmware instrumentation would.
func (d *Device) TCPConn() *tcpsim.Conn {
	switch {
	case d.parent != nil:
		return d.parent.TCPConn()
	case d.mqtt != nil:
		return d.mqtt.Session().TCP()
	case d.http != nil:
		return d.http.Session().TCP()
	case d.hap != nil:
		return d.hap.Session().TCP()
	default:
		return nil
	}
}

// CellularActive reports whether the device fell back to its cellular
// path — the loud outcome jamming produces and phantom delays never do.
func (d *Device) CellularActive() bool { return d.cellular }

// Log returns the device's event log.
func (d *Device) Log() []LogEntry {
	out := make([]LogEntry, len(d.log))
	copy(out, d.log)
	return out
}

// LogCount counts log entries of one kind.
func (d *Device) LogCount(kind string) int {
	n := 0
	for _, e := range d.log {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// Start connects the device to its server. Via-hub and on-demand devices
// need no standing connection; Start is a no-op for them.
func (d *Device) Start() {
	if d.parent != nil || d.stopped {
		return
	}
	switch d.profile.Transport {
	case TransportMQTT:
		d.startMQTT()
	case TransportHTTPLong:
		d.startHTTPLong()
	case TransportHAP:
		d.startHAP()
	case TransportHTTPOnDemand:
		// Sessions are opened per event.
	}
}

// Stop disconnects the device and disables reconnection.
func (d *Device) Stop() {
	d.stopped = true
	if d.reconnect != nil {
		d.reconnect.Stop()
	}
	switch {
	case d.mqtt != nil:
		d.mqtt.Disconnect()
	case d.http != nil:
		d.http.Close()
	case d.hap != nil:
		d.hap.Close()
	}
}

// TriggerEvent simulates a physical occurrence: the state changes and an
// event message is emitted toward the server.
func (d *Device) TriggerEvent(attr, value string) error {
	d.state[attr] = value
	if d.parent != nil {
		return d.parent.sendEventFor(d.profile, attr, value)
	}
	return d.sendEventFor(d.profile, attr, value)
}

func (d *Device) sendEventFor(origin Profile, attr, value string) error {
	switch d.profile.Transport {
	case TransportMQTT:
		if !d.connected {
			d.logf("event-dropped", "%s %s=%s (disconnected)", origin.Label, attr, value)
			return ErrNotConnected
		}
		needAck := d.profile.EventTimeout > 0
		if _, err := d.mqtt.Publish(EventTopic(origin.Label), []byte(attr+"="+value), origin.EventLen, needAck); err != nil {
			return err
		}
	case TransportHTTPLong:
		if !d.connected {
			d.logf("event-dropped", "%s %s=%s (disconnected)", origin.Label, attr, value)
			return ErrNotConnected
		}
		if _, err := d.http.Request("/event", EncodeBody(origin.Label, attr, value), origin.EventLen); err != nil {
			return err
		}
	case TransportHTTPOnDemand:
		// The on-demand path logs asynchronously once its session is up.
		d.sendOnDemandEvent(origin, attr, value)
		return nil
	case TransportHAP:
		if !d.connected {
			d.logf("event-dropped", "%s %s=%s (disconnected)", origin.Label, attr, value)
			return ErrNotConnected
		}
		if err := d.hap.SendEvent(attr, value, origin.EventLen); err != nil {
			return err
		}
	default:
		return fmt.Errorf("device: %s cannot emit events itself", d.profile.Label)
	}
	d.logf("event-sent", "%s %s=%s", origin.Label, attr, value)
	return nil
}

// applyCommand actuates the device and emits the confirming state update,
// as real devices do.
func (d *Device) applyCommand(attr, value string) {
	d.state[attr] = value
	d.logf("command-applied", "%s=%s", attr, value)
	// The confirming event is best-effort; a torn session drops it.
	_ = d.TriggerEvent(attr, value)
}

func (d *Device) routeCommand(target, attr, value string) {
	if target == d.profile.Label || target == "" {
		d.applyCommand(attr, value)
		return
	}
	if c, ok := d.children[target]; ok {
		c.applyCommand(attr, value)
	}
}

func (d *Device) logf(kind, format string, args ...any) {
	d.log = append(d.log, LogEntry{
		At:     d.env.Clock.Now(),
		Kind:   kind,
		Detail: fmt.Sprintf(format, args...),
	})
}

func (d *Device) onClosed(reason proto.CloseReason) {
	wasConnected := d.connected
	d.connected = false
	d.mqtt = nil
	d.http = nil
	d.hap = nil
	d.logf("closed", "%s", reason)
	if d.stopped || reason == proto.ReasonGraceful {
		return
	}
	// Cellular fallback: a session that established and later timed out is
	// an ordinary hiccup, but repeatedly failing to even connect means the
	// WiFi path is dead (jamming, outage) and the backup radio kicks in.
	if wasConnected {
		d.failedConnects = 0
	} else {
		d.failedConnects++
		if d.profile.CellularBackup && !d.cellular && d.failedConnects >= 2 {
			d.cellular = true
			d.logf("cellular-activated", "wifi path failed %d times", d.failedConnects)
		}
	}
	if d.reconnect == nil {
		d.reconnect = d.env.Clock.NewTimer(d.Start)
	}
	d.reconnect.Reset(d.profile.ReconnectDelay)
}

// --- transport wiring ---

func (d *Device) dialTLS() *tlssim.Conn {
	tcp := d.env.TCP.Dial(d.env.Server)
	sess := tlssim.ClientWithMode(tcp, d.env.RNG, d.profile.ReplayMode, d.profile.ReplayWindow)
	sess.Instrument(d.env.Trace, d.profile.Label)
	return sess
}

func (d *Device) startMQTT() {
	sess := d.dialTLS()
	cli := mqttsim.NewClient(d.env.Clock, sess, mqttsim.ClientConfig{
		ClientID:    d.profile.Label,
		KeepAlive:   d.profile.KeepAlivePeriod,
		Pattern:     d.profile.KeepAlivePattern,
		PingTimeout: d.profile.KeepAliveTimeout,
		AckTimeout:  d.profile.EventTimeout,
		PingLen:     d.profile.KeepAliveLen,
	})
	cli.Instrument(d.env.Trace)
	d.mqtt = cli
	cli.OnConnected = func() {
		d.connected = true
		d.logf("connected", "mqtt")
	}
	cli.OnCommand = func(pkt mqttsim.Packet) {
		target := strings.TrimSuffix(pkt.Topic, "/set")
		attr, val, ok := strings.Cut(string(pkt.Payload), "=")
		if !ok {
			return
		}
		d.routeCommand(target, attr, val)
	}
	cli.OnClosed = d.onClosed
}

func (d *Device) startHTTPLong() {
	sess := d.dialTLS()
	cli := httpsim.NewClient(d.env.Clock, sess, httpsim.ClientConfig{
		DeviceID:         d.profile.Label,
		KeepAlive:        d.profile.KeepAlivePeriod,
		Pattern:          d.profile.KeepAlivePattern,
		KeepAliveTimeout: d.profile.KeepAliveTimeout,
		ResponseTimeout:  d.profile.EventTimeout,
		KeepAliveLen:     d.profile.KeepAliveLen,
	})
	cli.Instrument(d.env.Trace)
	d.http = cli
	cli.OnReady = func() {
		d.connected = true
		d.logf("connected", "http")
		// Announce so the server binds the session to this device.
		_, _ = cli.Request("/register", EncodeBody(d.profile.Label, "status", "online"), 0)
	}
	cli.OnCommand = func(m httpsim.Message) {
		target, attr, val, err := DecodeBody(m.Body)
		if err != nil {
			return
		}
		d.routeCommand(target, attr, val)
	}
	cli.OnClosed = d.onClosed
}

func (d *Device) startHAP() {
	sess := d.dialTLS()
	acc := hapsim.NewAccessory(d.env.Clock, sess, d.profile.Label)
	d.hap = acc
	acc.OnReady = func() {
		d.connected = true
		d.logf("connected", "hap")
	}
	acc.OnCommand = func(m hapsim.Message) {
		d.routeCommand(d.profile.Label, m.Characteristic, m.Value)
	}
	acc.OnClosed = d.onClosed
}

func (d *Device) sendOnDemandEvent(origin Profile, attr, value string) {
	sess := d.dialTLS()
	cli := httpsim.NewClient(d.env.Clock, sess, httpsim.ClientConfig{
		DeviceID:        d.profile.Label,
		ResponseTimeout: d.profile.EventTimeout,
	})
	cli.Instrument(d.env.Trace)
	cli.OnReady = func() {
		if _, err := cli.Request("/event", EncodeBody(origin.Label, attr, value), origin.EventLen); err != nil {
			cli.Close()
			return
		}
		d.logf("event-sent", "%s %s=%s (on-demand)", origin.Label, attr, value)
	}
	cli.OnResponse = func(httpsim.Message) { cli.Close() }
	cli.OnClosed = func(reason proto.CloseReason) {
		if reason == proto.ReasonAckTimeout {
			// Per the paper, the device gives up silently and reports no
			// anomaly in later sessions (Finding 1).
			d.logf("closed", "on-demand %s", reason)
		}
	}
}
