// Package experiment builds complete simulated smart homes (Figure 1's two
// deployments) and runs the paper's evaluation: the Table I/II timeout
// measurements, the Table III proof-of-concept attacks, the verification
// test, the three findings, and the countermeasure studies.
package experiment

import (
	"fmt"
	"time"

	"repro/internal/cloud"
	"repro/internal/device"
	"repro/internal/ipaddr"
	"repro/internal/ipnet"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/tcpsim"
)

// TestbedConfig selects what to build.
type TestbedConfig struct {
	// Seed drives all randomness; equal seeds give identical runs.
	Seed int64
	// Devices lists catalog labels to deploy. Hubs referenced by via-hub
	// devices are added automatically.
	Devices []string
	// Integration configures the automation server.
	Integration cloud.IntegrationConfig
	// Overrides replaces catalog profiles by label before the home is
	// built — how the defense experiments deploy hardened device variants.
	Overrides []device.Profile
	// LANLatency is the WiFi one-way latency. Default 2ms.
	LANLatency time.Duration
	// WANLatency is the uplink one-way latency. Default 10ms.
	WANLatency time.Duration
	// Jitter perturbs latencies by the given factor.
	Jitter float64
	// TraceCap turns the flight recorder on: a positive value records up
	// to that many events, the most recent kept. Any other value leaves it
	// off, and the instrumented layers skip event emission entirely.
	TraceCap int
}

// Testbed is a running simulated smart home.
type Testbed struct {
	Clock       *simtime.Clock
	Net         *netsim.Network
	LAN         *netsim.Segment
	WAN         *netsim.Segment
	Router      *ipnet.Stack
	Integration *cloud.IntegrationServer
	LocalHub    *cloud.LocalHub
	Endpoints   map[string]*cloud.EndpointServer
	Devices     map[string]*device.Device

	// Metrics is the testbed's observability registry. Every testbed owns
	// exactly one (the simulation is single-threaded); the clock, the
	// network, device TCP stacks and any attacker report into it. Take a
	// Snapshot after a run; snapshots from independent testbeds merge with
	// obs.Merge. Its flight recorder, Metrics.Trace, is on only when
	// TestbedConfig.TraceCap asked for it.
	Metrics *obs.Registry

	// DeviceAddrs maps session-owning device labels to their LAN address.
	DeviceAddrs map[string]ipaddr.Addr
	// ServerAddrs maps vendor domains to their WAN address ("local" maps
	// to the hub's LAN address).
	ServerAddrs map[string]ipaddr.Addr

	// cfg holds the home's Overrides; every other profile is looked up
	// in the shared catalog index (see profile).
	cfg      TestbedConfig
	rng      *simtime.Rand
	nextHost int
	nextWAN  int
	// ordered lists every deployed label (hubs before their children) in
	// deployment order — the fixed iteration order that keeps construction
	// and startup deterministic.
	ordered []string
}

// GatewayAddr is the home router's LAN address.
var GatewayAddr = ipaddr.MustParse("192.168.1.1")

// LocalHubAddr is the local hub's LAN address.
var LocalHubAddr = ipaddr.MustParse("192.168.1.2")

// AttackerAddr is where NewAttacker places its host.
var AttackerAddr = ipaddr.MustParse("192.168.1.66")

var routerWANAddr = ipaddr.MustParse("100.64.0.1")

// NewTestbed builds the home: LAN + router + WAN, one endpoint server per
// vendor domain, the integration server, a local hub if any HAP device is
// selected, and all requested devices (started and connected).
func NewTestbed(cfg TestbedConfig) (*Testbed, error) {
	tb := new(Testbed)
	if err := tb.Reset(cfg); err != nil {
		return nil, err
	}
	return tb, nil
}

// Reset rebuilds the testbed in place for a new configuration: it replaces
// *tb with freshly allocated components (clock, network, registry,
// integration server, randomness, indexes) and builds the home into them,
// exactly as NewTestbed(cfg) does. Nothing of the previous home is reused.
// On error the testbed is unusable and must be discarded.
func (tb *Testbed) Reset(cfg TestbedConfig) error {
	clk := simtime.NewClock()
	*tb = Testbed{
		Clock:       clk,
		Net:         netsim.NewNetwork(clk, cfg.Seed),
		Metrics:     obs.NewRegistry(),
		Integration: cloud.NewIntegrationServer(clk, cfg.Integration),
		Endpoints:   make(map[string]*cloud.EndpointServer),
		Devices:     make(map[string]*device.Device),
		DeviceAddrs: make(map[string]ipaddr.Addr),
		ServerAddrs: make(map[string]ipaddr.Addr),
		rng:         simtime.NewRand(cfg.Seed + 1),
	}
	return tb.build(cfg)
}

// build constructs the home into the freshly allocated components.
func (tb *Testbed) build(cfg TestbedConfig) error {
	if cfg.LANLatency <= 0 {
		cfg.LANLatency = 2 * time.Millisecond
	}
	if cfg.WANLatency <= 0 {
		cfg.WANLatency = 10 * time.Millisecond
	}
	tb.cfg = cfg
	reg := tb.Metrics
	// The recorder must be on before any component is instrumented: each
	// captures the ring, or nil, when it is.
	reg.SetTraceCapacity(cfg.TraceCap)
	tb.Clock.Instrument(reg)
	tb.Net.Instrument(reg) // before segments so they get per-segment counters
	tb.LAN = tb.Net.NewSegment("lan", cfg.LANLatency, cfg.Jitter)
	tb.WAN = tb.Net.NewSegment("wan", cfg.WANLatency, cfg.Jitter)
	tb.nextHost, tb.nextWAN = 10, 10

	tb.Router = tb.newIPStack("router")
	tb.Router.MustAddIface(tb.LAN, "192.168.1.1/24")
	tb.Router.MustAddIface(tb.WAN, "100.64.0.1/16")
	tb.Router.Forwarding = true

	tb.Integration.Instrument(reg)

	// Resolve the full device set (pull in hubs for via-hub devices) in
	// deployment order. The order is part of the simulation's determinism
	// contract: it fixes address and seed assignment and session start
	// order, so identical configs replay identically.
	seen := map[string]bool{}
	var labels []string
	add := func(l string) {
		if !seen[l] {
			seen[l] = true
			labels = append(labels, l)
		}
	}
	for _, l := range cfg.Devices {
		p, ok := tb.profile(l)
		if !ok {
			return fmt.Errorf("experiment: unknown device label %q", l)
		}
		if p.Transport == device.TransportViaHub {
			add(p.ViaHub)
		}
		add(l)
	}
	tb.ordered = labels

	// Create endpoint servers and the local hub as needed.
	for _, l := range labels {
		p := tb.Profile(l)
		if p.Transport == device.TransportViaHub {
			continue
		}
		if p.Transport == device.TransportHAP {
			if err := tb.ensureLocalHub(); err != nil {
				return err
			}
			continue
		}
		if _, ok := tb.Endpoints[p.ServerDomain]; !ok {
			if err := tb.addEndpoint(p.ServerDomain); err != nil {
				return err
			}
		}
	}

	// Create session-owning devices first, then children.
	for _, l := range labels {
		p := tb.Profile(l)
		if p.Transport == device.TransportViaHub {
			continue
		}
		if err := tb.addDevice(p); err != nil {
			return err
		}
	}
	for _, l := range labels {
		p := tb.Profile(l)
		if p.Transport != device.TransportViaHub {
			continue
		}
		hub, ok := tb.Devices[p.ViaHub]
		if !ok {
			return fmt.Errorf("experiment: hub %q for %q missing", p.ViaHub, p.Label)
		}
		child := device.NewChild(hub, p)
		tb.Devices[p.Label] = child
		tb.registerAtServer(p, p.ViaHub)
	}
	return nil
}

// newIPStack creates an IP stack on a new host.
func (tb *Testbed) newIPStack(hostname string) *ipnet.Stack {
	return ipnet.NewStack(tb.Clock, tb.Net.NewHost(hostname))
}

func (tb *Testbed) ensureLocalHub() error {
	if tb.LocalHub != nil {
		return nil
	}
	ip := tb.newIPStack("homepod")
	ip.MustAddIface(tb.LAN, "192.168.1.2/24")
	if err := ip.SetDefaultGateway(GatewayAddr); err != nil {
		return err
	}
	hub, err := cloud.NewLocalHub(tb.Clock, ip, tb.rng)
	if err != nil {
		return err
	}
	hub.Instrument(tb.Metrics)
	tb.LocalHub = hub
	tb.ServerAddrs["local"] = LocalHubAddr
	return nil
}

func (tb *Testbed) addEndpoint(domain string) error {
	addr := fmt.Sprintf("100.64.%d.10/16", tb.nextWAN)
	tb.nextWAN++
	ip := tb.newIPStack(domain)
	ip.MustAddIface(tb.WAN, addr)
	// Return path to the LAN runs through the router's WAN side.
	tb.addLANRoute(ip)
	epCfg := cloud.EndpointConfig{Domain: domain}
	// On-demand vendors reap idle sessions after their profile-specified
	// server-side timeout (Finding 1's bound): the longest over the whole
	// catalog with the home's overrides applied.
	reap := func(p *device.Profile) {
		if p.ServerDomain == domain && p.ServerIdleTimeout > epCfg.HTTP.SessionIdleTimeout {
			epCfg.HTTP.SessionIdleTimeout = p.ServerIdleTimeout
		}
	}
	cat := device.Catalog()
	for i := range cat {
		if tb.override(cat[i].Label) < 0 {
			reap(&cat[i])
		}
	}
	for i := range tb.cfg.Overrides {
		if tb.override(tb.cfg.Overrides[i].Label) == i {
			reap(&tb.cfg.Overrides[i])
		}
	}
	ep, err := cloud.NewEndpointServer(tb.Clock, ip, tb.rng, epCfg)
	if err != nil {
		return err
	}
	ep.Instrument(tb.Metrics)
	tb.Endpoints[domain] = ep
	tb.ServerAddrs[domain] = ip.Addr()
	tb.Integration.AttachEndpoint(ep)
	return nil
}

func (tb *Testbed) addLANRoute(ip *ipnet.Stack) {
	ip.AddRoute(ipaddr.MustParsePrefix("192.168.1.0/24"), routerWANAddr, ip.Ifaces()[0])
}

func (tb *Testbed) addDevice(p device.Profile) error {
	hostAddr := fmt.Sprintf("192.168.1.%d/24", tb.nextHost)
	tb.nextHost++
	ip := tb.newIPStack(p.Label)
	ip.MustAddIface(tb.LAN, hostAddr)
	if err := ip.SetDefaultGateway(GatewayAddr); err != nil {
		return err
	}
	env := device.Env{
		Clock: tb.Clock,
		TCP:   tcpsim.NewStack(tb.Clock, ip, tcpsim.Config{}, tb.cfg.Seed+int64(tb.nextHost)),
		RNG:   tb.rng,
		Trace: tb.Metrics.Trace(),
	}
	env.TCP.Instrument(tb.Metrics, p.Label)
	switch p.Transport {
	case device.TransportHAP:
		env.Server = tb.LocalHub.Addr()
	default:
		ep, ok := tb.Endpoints[p.ServerDomain]
		if !ok {
			return fmt.Errorf("experiment: no endpoint for domain %q", p.ServerDomain)
		}
		env.Server = ep.AddrFor(p.Transport)
	}
	d := device.New(env, p)
	tb.Devices[p.Label] = d
	tb.DeviceAddrs[p.Label] = ip.Addr()
	tb.registerAtServer(p, p.Label)
	return nil
}

func (tb *Testbed) registerAtServer(p device.Profile, owner string) {
	ownerProfile := tb.Profile(owner)
	if ownerProfile.Transport == device.TransportHAP {
		tb.LocalHub.RegisterDevice(p)
		return
	}
	if ep, ok := tb.Endpoints[ownerProfile.ServerDomain]; ok {
		ep.RegisterDevice(p, owner)
		tb.Integration.RouteDevice(p.Label, ownerProfile.ServerDomain)
	}
}

// Start connects every device and runs the clock until sessions settle.
// Devices start in deployment order so session establishment replays
// identically across runs.
func (tb *Testbed) Start() {
	for _, l := range tb.ordered {
		tb.Devices[l].Start()
	}
	tb.Clock.RunFor(2 * time.Second)
}

// Device returns a deployed device by label.
func (tb *Testbed) Device(label string) *device.Device { return tb.Devices[label] }

// Profile returns the profile deployed under a label: the home's
// override when it has one, else the catalog's (zero when neither has it).
func (tb *Testbed) Profile(label string) device.Profile {
	p, _ := tb.profile(label)
	return p
}

// profile is Profile plus whether the label is known.
func (tb *Testbed) profile(label string) (device.Profile, bool) {
	if i := tb.override(label); i >= 0 {
		return tb.cfg.Overrides[i], true
	}
	p, ok := device.Index()[label]
	return p, ok
}

// override returns the index of the override in force for a label — the
// last one that names it — or -1.
func (tb *Testbed) override(label string) int {
	for i := len(tb.cfg.Overrides) - 1; i >= 0; i-- {
		if tb.cfg.Overrides[i].Label == label {
			return i
		}
	}
	return -1
}

// sessionProfile resolves the deployed profile that owns p's session: the
// hub's for a via-hub device, p itself otherwise.
func (tb *Testbed) sessionProfile(p device.Profile) (device.Profile, error) {
	if p.Transport != device.TransportViaHub {
		return p, nil
	}
	hub, ok := tb.profile(p.ViaHub)
	if !ok {
		return device.Profile{}, fmt.Errorf("experiment: %s references unknown hub %q", p.Label, p.ViaHub)
	}
	return hub, nil
}

// SessionOwner resolves the session-owning device for a label.
func (tb *Testbed) SessionOwner(label string) *device.Device {
	p := tb.Profile(label)
	if p.Transport == device.TransportViaHub {
		return tb.Devices[p.ViaHub]
	}
	return tb.Devices[label]
}

// TotalAlarmCount sums every server-side alarm in the home.
func (tb *Testbed) TotalAlarmCount() int {
	n := tb.Integration.TotalAlarmCount()
	if tb.LocalHub != nil {
		n += tb.LocalHub.AlarmCount()
	}
	return n
}
