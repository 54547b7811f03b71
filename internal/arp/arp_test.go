package arp

import (
	"slices"
	"testing"
	"time"

	"repro/internal/ipaddr"
	"repro/internal/netsim"
	"repro/internal/simtime"
)

type testHost struct {
	nic    *netsim.NIC
	client *Client
}

type testEnv struct {
	clk *simtime.Clock
	net *netsim.Network
	seg *netsim.Segment
}

func newEnv() *testEnv {
	clk := simtime.NewClock()
	net := netsim.NewNetwork(clk, 1)
	return &testEnv{clk: clk, net: net, seg: net.NewSegment("lan", time.Millisecond, 0)}
}

func (e *testEnv) addHost(name, ip string) *testHost {
	nic := e.net.NewHost(name).AttachNIC(e.seg)
	c := NewClient(e.clk, nic, ipaddr.MustParse(ip))
	nic.SetHandler(func(_ *netsim.NIC, f netsim.Frame) {
		if f.Type == netsim.EtherTypeARP {
			c.HandleFrame(f)
		}
	})
	return &testHost{nic: nic, client: c}
}

func TestMarshalRoundTrip(t *testing.T) {
	p := Packet{
		Op:        OpReply,
		SenderMAC: netsim.MAC{0x02, 0, 0, 0, 0, 1},
		SenderIP:  ipaddr.MustParse("192.168.1.10"),
		TargetMAC: netsim.MAC{0x02, 0, 0, 0, 0, 2},
		TargetIP:  ipaddr.MustParse("192.168.1.1"),
	}
	got, err := Unmarshal(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Fatalf("round trip %+v -> %+v", p, got)
	}
}

func TestUnmarshalShort(t *testing.T) {
	if _, err := Unmarshal(make([]byte, 5)); err != ErrShortPacket {
		t.Fatalf("err = %v, want ErrShortPacket", err)
	}
}

func TestResolve(t *testing.T) {
	e := newEnv()
	a := e.addHost("a", "192.168.1.10")
	b := e.addHost("b", "192.168.1.20")
	var gotMAC netsim.MAC
	var gotOK bool
	a.client.Resolve(b.client.Self(), func(m netsim.MAC, ok bool) { gotMAC, gotOK = m, ok })
	e.clk.Run()
	if !gotOK || gotMAC != b.nic.MAC() {
		t.Fatalf("resolve = %v,%v want %v,true", gotMAC, gotOK, b.nic.MAC())
	}
}

func TestResolveCachesResult(t *testing.T) {
	e := newEnv()
	a := e.addHost("a", "192.168.1.10")
	b := e.addHost("b", "192.168.1.20")
	a.client.Resolve(b.client.Self(), func(netsim.MAC, bool) {})
	e.clk.Run()
	framesBefore := a.nic.Stats().FramesSent
	immediate := false
	a.client.Resolve(b.client.Self(), func(m netsim.MAC, ok bool) { immediate = ok })
	if !immediate {
		t.Fatal("cached resolve should fire synchronously")
	}
	if a.nic.Stats().FramesSent != framesBefore {
		t.Fatal("cached resolve should send no frames")
	}
}

func TestResolveTimeout(t *testing.T) {
	e := newEnv()
	a := e.addHost("a", "192.168.1.10")
	done := false
	ok := true
	a.client.Resolve(ipaddr.MustParse("192.168.1.99"), func(_ netsim.MAC, o bool) {
		done, ok = true, o
	})
	e.clk.Run()
	if !done {
		t.Fatal("resolution never completed")
	}
	if ok {
		t.Fatal("resolution of absent host should fail")
	}
}

func TestResolveRetries(t *testing.T) {
	e := newEnv()
	a := e.addHost("a", "192.168.1.10")
	a.client.Resolve(ipaddr.MustParse("192.168.1.99"), func(netsim.MAC, bool) {})
	e.clk.Run()
	// 1 initial + 2 retries.
	if got := a.nic.Stats().FramesSent; got != 3 {
		t.Fatalf("sent %d requests, want 3", got)
	}
}

func TestConcurrentResolveCoalesced(t *testing.T) {
	e := newEnv()
	a := e.addHost("a", "192.168.1.10")
	b := e.addHost("b", "192.168.1.20")
	calls := 0
	for i := 0; i < 5; i++ {
		a.client.Resolve(b.client.Self(), func(_ netsim.MAC, ok bool) {
			if ok {
				calls++
			}
		})
	}
	e.clk.Run()
	if calls != 5 {
		t.Fatalf("callbacks = %d, want 5", calls)
	}
	if got := a.nic.Stats().FramesSent; got != 1 {
		t.Fatalf("sent %d requests, want 1 (coalesced)", got)
	}
}

func TestLearnFromRequest(t *testing.T) {
	e := newEnv()
	a := e.addHost("a", "192.168.1.10")
	b := e.addHost("b", "192.168.1.20")
	// b requests a; a should passively learn b's binding.
	b.client.Resolve(a.client.Self(), func(netsim.MAC, bool) {})
	e.clk.Run()
	if m, ok := a.client.Lookup(b.client.Self()); !ok || m != b.nic.MAC() {
		t.Fatalf("a did not learn b's binding from the request: %v %v", m, ok)
	}
}

func TestGratuitousAnnounceLearned(t *testing.T) {
	e := newEnv()
	a := e.addHost("a", "192.168.1.10")
	b := e.addHost("b", "192.168.1.20")
	b.client.Announce()
	e.clk.Run()
	if m, ok := a.client.Lookup(b.client.Self()); !ok || m != b.nic.MAC() {
		t.Fatal("gratuitous announce not learned")
	}
}

func TestCachePoisoning(t *testing.T) {
	e := newEnv()
	victim := e.addHost("victim", "192.168.1.10")
	gw := e.addHost("gw", "192.168.1.1")
	attacker := e.addHost("attacker", "192.168.1.66")

	// Victim resolves the gateway legitimately.
	victim.client.Resolve(gw.client.Self(), func(netsim.MAC, bool) {})
	e.clk.Run()
	if m, _ := victim.client.Lookup(gw.client.Self()); m != gw.nic.MAC() {
		t.Fatal("precondition: victim should know real gateway MAC")
	}

	sp := NewSpoofer(e.clk, attacker.client, time.Second)
	sp.Poison(victim.client.Self(), gw.client.Self())
	e.clk.Run()
	if m, _ := victim.client.Lookup(gw.client.Self()); m != attacker.nic.MAC() {
		t.Fatalf("victim cache = %v, want attacker MAC %v", m, attacker.nic.MAC())
	}
}

func TestRepoisoningOverridesHealing(t *testing.T) {
	e := newEnv()
	victim := e.addHost("victim", "192.168.1.10")
	gw := e.addHost("gw", "192.168.1.1")
	attacker := e.addHost("attacker", "192.168.1.66")

	sp := NewSpoofer(e.clk, attacker.client, 500*time.Millisecond)
	sp.Start()
	sp.Poison(victim.client.Self(), gw.client.Self())
	e.clk.RunFor(2 * time.Second)

	// The gateway announces itself (healing the victim's cache)...
	gw.client.Announce()
	e.clk.RunFor(2 * time.Millisecond)
	if m, _ := victim.client.Lookup(gw.client.Self()); m != gw.nic.MAC() {
		t.Fatal("announce should momentarily heal the cache")
	}
	// ...but the next re-poison tick re-corrupts it.
	e.clk.RunFor(time.Second)
	if m, _ := victim.client.Lookup(gw.client.Self()); m != attacker.nic.MAC() {
		t.Fatal("re-poisoning did not re-corrupt the cache")
	}
	sp.Stop()
}

func TestRestoreHealsCache(t *testing.T) {
	e := newEnv()
	victim := e.addHost("victim", "192.168.1.10")
	gw := e.addHost("gw", "192.168.1.1")
	attacker := e.addHost("attacker", "192.168.1.66")

	sp := NewSpoofer(e.clk, attacker.client, time.Second)
	sp.Start()
	sp.Poison(victim.client.Self(), gw.client.Self())
	e.clk.RunFor(3 * time.Second)
	sp.Restore()
	e.clk.RunFor(time.Second)
	if m, _ := victim.client.Lookup(gw.client.Self()); m != gw.nic.MAC() {
		t.Fatalf("restore did not heal cache: %v", m)
	}
}

func TestPoisonUnknownVictimFails(t *testing.T) {
	e := newEnv()
	attacker := e.addHost("attacker", "192.168.1.66")
	sp := NewSpoofer(e.clk, attacker.client, time.Second)
	absent := ipaddr.MustParse("192.168.1.77")
	sp.Poison(absent, ipaddr.MustParse("192.168.1.1"))
	e.clk.Run()
	if _, ok := attacker.client.Lookup(absent); ok {
		t.Fatal("an absent victim resolved")
	}
	if len(sp.entries) != 0 {
		t.Fatalf("poisoning an absent victim registered %d entries, want 0", len(sp.entries))
	}
}

// Every re-poison tick sends each entry's own forged reply, for both
// directions of a two-way poison and again after SetPeriod, and Restore
// sends the genuine bindings.
func TestRepoisonFramesCarryEachEntrysBinding(t *testing.T) {
	e := newEnv()
	victim := e.addHost("victim", "192.168.1.10")
	gw := e.addHost("gw", "192.168.1.1")
	attacker := e.addHost("attacker", "192.168.1.66")
	var sent []Packet
	e.seg.AddTap(func(f netsim.Frame) {
		if f.Type != netsim.EtherTypeARP || f.Src != attacker.nic.MAC() {
			return
		}
		p, err := Unmarshal(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if p.Op == OpReply && f.Dst != p.TargetMAC {
			t.Errorf("reply %+v sent to %v", p, f.Dst)
		}
		sent = append(sent, p)
	})
	reply := func(target *testHost, claimed ipaddr.Addr, mac netsim.MAC) Packet {
		return Packet{Op: OpReply, SenderMAC: mac, SenderIP: claimed, TargetMAC: target.nic.MAC(), TargetIP: target.client.Self()}
	}
	forged := []Packet{
		reply(victim, gw.client.Self(), attacker.nic.MAC()),
		reply(gw, victim.client.Self(), attacker.nic.MAC()),
	}
	ticks := func(period time.Duration, n int) {
		t.Helper()
		sent = nil
		// Half a period of slack takes in the last tick's delivery.
		e.clk.RunFor(time.Duration(n)*period + period/2)
		if len(sent) != n*len(forged) {
			t.Fatalf("%d forged replies over %d ticks of %v, want %d", len(sent), n, period, n*len(forged))
		}
		for i, p := range sent {
			if p != forged[i%len(forged)] {
				t.Fatalf("reply %d = %+v, want %+v", i, p, forged[i%len(forged)])
			}
		}
	}

	sp := NewSpoofer(e.clk, attacker.client, time.Second)
	sp.Start()
	sp.Poison(victim.client.Self(), gw.client.Self())
	e.clk.RunFor(100 * time.Millisecond)
	sp.Poison(gw.client.Self(), victim.client.Self())
	e.clk.RunFor(100 * time.Millisecond)
	ticks(time.Second, 3)
	sp.SetPeriod(300 * time.Millisecond)
	ticks(300*time.Millisecond, 4)
	if m, _ := victim.client.Lookup(gw.client.Self()); m != attacker.nic.MAC() {
		t.Fatalf("victim cache = %v, want attacker MAC %v", m, attacker.nic.MAC())
	}
	if m, _ := gw.client.Lookup(victim.client.Self()); m != attacker.nic.MAC() {
		t.Fatalf("gateway cache = %v, want attacker MAC %v", m, attacker.nic.MAC())
	}

	sent = nil
	sp.Restore()
	e.clk.RunFor(5 * time.Second)
	genuine := []Packet{
		reply(victim, gw.client.Self(), gw.nic.MAC()),
		reply(gw, victim.client.Self(), victim.nic.MAC()),
	}
	if !slices.Equal(sent, genuine) {
		t.Fatalf("restore sent %+v, want %+v", sent, genuine)
	}
	if m, _ := victim.client.Lookup(gw.client.Self()); m != gw.nic.MAC() {
		t.Fatalf("healed victim cache = %v, want gateway MAC %v", m, gw.nic.MAC())
	}
	if m, _ := gw.client.Lookup(victim.client.Self()); m != victim.nic.MAC() {
		t.Fatalf("healed gateway cache = %v, want victim MAC %v", m, victim.nic.MAC())
	}
}

// A long hold re-poisons on a timer for hours of virtual time, so one
// re-poison round — the forged reply sent, carried and handled by the
// victim — must allocate nothing once the frame pool has warmed up.
func TestRepoisonRoundAllocFree(t *testing.T) {
	e := newEnv()
	victim := e.addHost("victim", "192.168.1.10")
	gw := e.addHost("gw", "192.168.1.1")
	attacker := e.addHost("attacker", "192.168.1.66")

	const period = time.Second
	sp := NewSpoofer(e.clk, attacker.client, period)
	sp.Start()
	sp.Poison(victim.client.Self(), gw.client.Self())
	e.clk.RunFor(2 * period) // resolve, first forged reply, one re-poison

	before := victim.nic.Stats().FramesDelivered
	const rounds = 100
	if n := testing.AllocsPerRun(rounds, func() { e.clk.RunFor(period) }); n != 0 {
		t.Fatalf("re-poison round allocates %.2f per op, want 0", n)
	}
	// AllocsPerRun adds one warm-up run to the measured ones.
	if got := victim.nic.Stats().FramesDelivered - before; got != rounds+1 {
		t.Fatalf("victim received %d forged replies over %d rounds", got, rounds+1)
	}
	if m, _ := victim.client.Lookup(gw.client.Self()); m != attacker.nic.MAC() {
		t.Fatalf("victim cache = %v, want attacker MAC %v", m, attacker.nic.MAC())
	}
	sp.Stop()
}
