package ipnet

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/arp"
	"repro/internal/ipaddr"
	"repro/internal/netsim"
	"repro/internal/simtime"
)

// lanEnv is a single-segment LAN with two hosts.
type lanEnv struct {
	clk  *simtime.Clock
	net  *netsim.Network
	seg  *netsim.Segment
	a, b *Stack
}

func newLANEnv() *lanEnv {
	clk := simtime.NewClock()
	net := netsim.NewNetwork(clk, 1)
	seg := net.NewSegment("lan", time.Millisecond, 0)
	a := NewStack(clk, net.NewHost("a"))
	a.MustAddIface(seg, "192.168.1.10/24")
	b := NewStack(clk, net.NewHost("b"))
	b.MustAddIface(seg, "192.168.1.20/24")
	return &lanEnv{clk: clk, net: net, seg: seg, a: a, b: b}
}

// wanEnv is LAN + router + WAN with a cloud host, mirroring Figure 1(a).
type wanEnv struct {
	clk    *simtime.Clock
	net    *netsim.Network
	lan    *netsim.Segment
	wan    *netsim.Segment
	device *Stack
	router *Stack
	cloud  *Stack
}

func newWANEnv() *wanEnv {
	clk := simtime.NewClock()
	net := netsim.NewNetwork(clk, 1)
	lan := net.NewSegment("lan", time.Millisecond, 0)
	wan := net.NewSegment("wan", 10*time.Millisecond, 0)

	device := NewStack(clk, net.NewHost("device"))
	device.MustAddIface(lan, "192.168.1.10/24")
	if err := device.SetDefaultGateway(ipaddr.MustParse("192.168.1.1")); err != nil {
		panic(err)
	}

	router := NewStack(clk, net.NewHost("router"))
	router.MustAddIface(lan, "192.168.1.1/24")
	router.MustAddIface(wan, "100.64.0.1/16")
	router.Forwarding = true

	cloud := NewStack(clk, net.NewHost("cloud"))
	cloud.MustAddIface(wan, "100.64.10.10/16")
	if err := cloud.SetDefaultGateway(ipaddr.MustParse("100.64.0.1")); err != nil {
		panic(err)
	}
	return &wanEnv{clk: clk, net: net, lan: lan, wan: wan, device: device, router: router, cloud: cloud}
}

func TestPacketMarshalRoundTrip(t *testing.T) {
	f := func(src, dst uint32, proto, ttl uint8, payload []byte) bool {
		p := Packet{
			Src:     ipaddr.Addr(src),
			Dst:     ipaddr.Addr(dst),
			Proto:   Protocol(proto),
			TTL:     ttl,
			Payload: payload,
		}
		if len(payload) > 60000 {
			return true // length field is 16-bit by design
		}
		got, err := Unmarshal(p.Marshal())
		if err != nil {
			return false
		}
		if got.Src != p.Src || got.Dst != p.Dst || got.Proto != p.Proto || got.TTL != p.TTL {
			return false
		}
		return string(got.Payload) == string(p.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalShort(t *testing.T) {
	if _, err := Unmarshal(make([]byte, 3)); err == nil {
		t.Fatal("short buffer should fail")
	}
	// Header claims more payload than present.
	p := Packet{Payload: []byte("abcdef")}
	b := p.Marshal()
	if _, err := Unmarshal(b[:len(b)-2]); err == nil {
		t.Fatal("truncated payload should fail")
	}
}

func TestLANDelivery(t *testing.T) {
	e := newLANEnv()
	var got Packet
	e.b.Handle(ProtoTCP, func(p Packet) { got = p })
	err := e.a.Send(Packet{Dst: e.b.Addr(), Proto: ProtoTCP, Payload: []byte("hello")})
	if err != nil {
		t.Fatal(err)
	}
	e.clk.Run()
	if string(got.Payload) != "hello" {
		t.Fatalf("payload = %q", got.Payload)
	}
	if got.Src != e.a.Addr() {
		t.Fatalf("src = %v, want %v (auto-filled)", got.Src, e.a.Addr())
	}
	if got.TTL != DefaultTTL {
		t.Fatalf("ttl = %d, want %d", got.TTL, DefaultTTL)
	}
}

func TestNoRouteError(t *testing.T) {
	e := newLANEnv()
	err := e.a.Send(Packet{Dst: ipaddr.MustParse("8.8.8.8"), Proto: ProtoTCP})
	if err == nil {
		t.Fatal("expected no-route error")
	}
}

func TestRoutedDeliveryThroughGateway(t *testing.T) {
	e := newWANEnv()
	var got Packet
	e.cloud.Handle(ProtoTCP, func(p Packet) { got = p })
	err := e.device.Send(Packet{Dst: e.cloud.Addr(), Proto: ProtoTCP, Payload: []byte("up")})
	if err != nil {
		t.Fatal(err)
	}
	e.clk.Run()
	if string(got.Payload) != "up" {
		t.Fatalf("cloud got %q", got.Payload)
	}
	if got.TTL != DefaultTTL-1 {
		t.Fatalf("ttl = %d, want %d (one hop)", got.TTL, DefaultTTL-1)
	}
	if e.router.Stats().Forwarded != 1 {
		t.Fatalf("router forwarded = %d, want 1", e.router.Stats().Forwarded)
	}
}

func TestReturnPathThroughGateway(t *testing.T) {
	e := newWANEnv()
	e.device.Handle(ProtoTCP, func(p Packet) {})
	var got Packet
	e.cloud.Handle(ProtoTCP, func(p Packet) { got = p })
	// Cloud needs a route back to the LAN: via the router's WAN address.
	e.device.Handle(ProtoTCP, func(p Packet) { got = p })
	err := e.cloud.Send(Packet{Dst: e.device.Addr(), Proto: ProtoTCP, Payload: []byte("cmd")})
	if err != nil {
		t.Fatal(err)
	}
	e.clk.Run()
	if string(got.Payload) != "cmd" {
		t.Fatalf("device got %q", got.Payload)
	}
}

func TestNonForwardingHostDrops(t *testing.T) {
	e := newLANEnv()
	// a sends to an off-link address via b as (non-)gateway.
	e.a.AddRoute(ipaddr.Prefix{Addr: ipaddr.MustParse("8.8.8.8"), Bits: 32}, e.b.Addr(), e.a.Ifaces()[0])
	_ = e.a.Send(Packet{Dst: ipaddr.MustParse("8.8.8.8"), Proto: ProtoTCP})
	e.clk.Run()
	if e.b.Stats().Dropped == 0 {
		t.Fatal("non-forwarding host should drop transit packets")
	}
}

// AddRoute with an Addr (not Prefix) — helper overload check via /32 route.
func (s *Stack) addHostRoute(dst ipaddr.Addr, via ipaddr.Addr, ifc *Iface) {
	s.AddRoute(ipaddr.Prefix{Addr: dst, Bits: 32}, via, ifc)
}

func TestLongestPrefixWins(t *testing.T) {
	e := newWANEnv()
	hits := 0
	e.cloud.Handle(ProtoTCP, func(p Packet) { hits++ })
	// A /32 route for the cloud address pointing at a black hole must win
	// over the default route.
	e.device.addHostRoute(e.cloud.Addr(), ipaddr.MustParse("192.168.1.99"), e.device.Ifaces()[0])
	_ = e.device.Send(Packet{Dst: e.cloud.Addr(), Proto: ProtoTCP})
	e.clk.Run()
	if hits != 0 {
		t.Fatal("longest-prefix route not preferred")
	}
}

func TestTTLExpiryDropped(t *testing.T) {
	e := newWANEnv()
	hits := 0
	e.cloud.Handle(ProtoTCP, func(p Packet) { hits++ })
	_ = e.device.Send(Packet{Dst: e.cloud.Addr(), Proto: ProtoTCP, TTL: 1})
	e.clk.Run()
	if hits != 0 {
		t.Fatal("TTL=1 packet should die at the router")
	}
}

func TestSpoofedSourceSent(t *testing.T) {
	e := newLANEnv()
	var got Packet
	e.b.Handle(ProtoTCP, func(p Packet) { got = p })
	fake := ipaddr.MustParse("192.168.1.77")
	_ = e.a.Send(Packet{Src: fake, Dst: e.b.Addr(), Proto: ProtoTCP})
	e.clk.Run()
	if got.Src != fake {
		t.Fatalf("src = %v, want spoofed %v", got.Src, fake)
	}
}

func TestDivertConsumesRedirectedTraffic(t *testing.T) {
	clk := simtime.NewClock()
	net := netsim.NewNetwork(clk, 1)
	seg := net.NewSegment("lan", time.Millisecond, 0)

	victim := NewStack(clk, net.NewHost("victim"))
	victim.MustAddIface(seg, "192.168.1.10/24")
	gw := NewStack(clk, net.NewHost("gw"))
	gw.MustAddIface(seg, "192.168.1.1/24")
	attacker := NewStack(clk, net.NewHost("attacker"))
	atkIfc := attacker.MustAddIface(seg, "192.168.1.66/24")

	if err := victim.SetDefaultGateway(ipaddr.MustParse("192.168.1.1")); err != nil {
		t.Fatal(err)
	}

	var diverted []Packet
	attacker.Divert = func(p Packet) bool {
		diverted = append(diverted, p)
		return true
	}

	// Poison the victim's view of the gateway.
	sp := arp.NewSpoofer(clk, atkIfc.ARP(), time.Second)
	sp.Poison(victim.Addr(), gw.Addr())
	clk.RunFor(100 * time.Millisecond)

	// Victim sends to an off-link destination; the frame goes to the
	// attacker's MAC and is diverted.
	_ = victim.Send(Packet{Dst: ipaddr.MustParse("8.8.8.8"), Proto: ProtoTCP, Payload: []byte("secret")})
	clk.Run()
	if len(diverted) != 1 || string(diverted[0].Payload) != "secret" {
		t.Fatalf("diverted = %v", diverted)
	}
	if attacker.Stats().Diverted != 1 {
		t.Fatalf("Diverted stat = %d, want 1", attacker.Stats().Diverted)
	}
}

func TestDivertFalseFallsThroughToForwarding(t *testing.T) {
	e := newWANEnv()
	// Make the router also a "divert-capable" host that declines.
	declined := 0
	e.router.Divert = func(p Packet) bool { declined++; return false }
	got := 0
	e.cloud.Handle(ProtoTCP, func(p Packet) { got++ })
	_ = e.device.Send(Packet{Dst: e.cloud.Addr(), Proto: ProtoTCP})
	e.clk.Run()
	if declined != 1 || got != 1 {
		t.Fatalf("declined=%d got=%d, want 1,1", declined, got)
	}
}

func TestUnhandledProtocolDropped(t *testing.T) {
	e := newLANEnv()
	_ = e.a.Send(Packet{Dst: e.b.Addr(), Proto: Protocol(99)})
	e.clk.Run()
	if e.b.Stats().Dropped == 0 {
		t.Fatal("packet for unhandled protocol should be dropped")
	}
}

func TestBadGatewayRejected(t *testing.T) {
	e := newLANEnv()
	if err := e.a.SetDefaultGateway(ipaddr.MustParse("10.9.9.9")); err == nil {
		t.Fatal("off-link gateway should be rejected")
	}
}

func TestAddIfaceBadCIDR(t *testing.T) {
	e := newLANEnv()
	if _, err := e.a.AddIface(e.seg, "bogus"); err == nil {
		t.Fatal("bad CIDR should be rejected")
	}
}
