package hapsim

import (
	"testing"
	"time"

	"repro/internal/ipaddr"
	"repro/internal/ipnet"
	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/simtime"
	"repro/internal/tcpsim"
	"repro/internal/tlssim"
)

type env struct {
	clk *simtime.Clock
	hub *Hub
	acc *Accessory
}

func newEnv(t *testing.T) *env {
	t.Helper()
	clk := simtime.NewClock()
	nw := netsim.NewNetwork(clk, 1)
	seg := nw.NewSegment("lan", time.Millisecond, 0)

	accIP := ipnet.NewStack(clk, nw.NewHost("accessory"))
	accIP.MustAddIface(seg, "192.168.1.10/24")
	hubIP := ipnet.NewStack(clk, nw.NewHost("homepod"))
	hubIP.MustAddIface(seg, "192.168.1.2/24")

	accTCP := tcpsim.NewStack(clk, accIP, tcpsim.Config{}, 7)
	hubTCP := tcpsim.NewStack(clk, hubIP, tcpsim.Config{}, 8)

	rng := simtime.NewRand(99)
	hub := NewHub(clk)
	if _, err := hubTCP.Listen(8443, func(c *tcpsim.Conn) {
		hub.Accept(tlssim.Server(c, rng))
	}); err != nil {
		t.Fatal(err)
	}
	tcp := accTCP.Dial(tcpsim.Endpoint{Addr: ipaddr.MustParse("192.168.1.2"), Port: 8443})
	acc := NewAccessory(clk, tlssim.Client(tcp, rng), "aqara-contact-1")
	clk.RunFor(time.Second)
	if !acc.Ready() || !hub.Connected("aqara-contact-1") {
		t.Fatal("accessory did not pair with hub")
	}
	return &env{clk: clk, hub: hub, acc: acc}
}

func TestEventDelivery(t *testing.T) {
	e := newEnv(t)
	var events []Message
	e.hub.OnEvent = func(id string, m Message) {
		if id != "aqara-contact-1" {
			t.Fatalf("event from %q", id)
		}
		events = append(events, m)
	}
	if err := e.acc.SendEvent("contact", "open", 1345); err != nil {
		t.Fatal(err)
	}
	e.clk.RunFor(time.Second)
	if len(events) != 1 || events[0].Characteristic != "contact" || events[0].Value != "open" {
		t.Fatalf("events = %v", events)
	}
}

func TestEventsHaveNoAcknowledgement(t *testing.T) {
	// The hub never responds to events: the accessory's TCP stream sees
	// only TCP ACKs, no application records back.
	e := newEnv(t)
	e.hub.OnEvent = func(string, Message) {}
	gotAppData := 0
	e.acc.Session().OnMessage = func([]byte) { gotAppData++ }
	for i := 0; i < 5; i++ {
		if err := e.acc.SendEvent("motion", "active", 0); err != nil {
			t.Fatal(err)
		}
	}
	e.clk.RunFor(time.Minute)
	if gotAppData != 0 {
		t.Fatalf("accessory received %d app messages for its events, want 0", gotAppData)
	}
}

func TestUnboundedEventDelayRaisesNothing(t *testing.T) {
	// Hold an event for 8 virtual hours, then deliver: the hub accepts it
	// and no alarms exist anywhere — Table II's "∞" rows.
	e := newEnv(t)
	var got []Message
	e.hub.OnEvent = func(_ string, m Message) { got = append(got, m) }
	rec := func() []byte {
		m := Message{
			Type:           MsgEvent,
			AccessoryID:    "aqara-contact-1",
			Characteristic: "contact",
			Value:          "open",
			Timestamp:      e.clk.Now(),
		}
		return m.AppendTo(nil, 0)
	}()
	e.clk.Schedule(8*time.Hour, func() {
		sess := e.acc.Session()
		_ = sess.Send(rec)
	})
	e.clk.RunFor(9 * time.Hour)
	if len(got) != 1 {
		t.Fatalf("delayed event not accepted: %v", got)
	}
	if e.hub.AlarmCount() != 0 {
		t.Fatalf("alarms = %v, want none", e.hub.Alarms())
	}
}

func TestCommandRoundTrip(t *testing.T) {
	e := newEnv(t)
	var gotCmd Message
	e.acc.OnCommand = func(m Message) { gotCmd = m }
	var res proto.CommandResult
	if err := e.hub.Command("aqara-contact-1", "identify", "1", 128, func(r proto.CommandResult) { res = r }); err != nil {
		t.Fatal(err)
	}
	e.clk.RunFor(time.Second)
	if gotCmd.Characteristic != "identify" || gotCmd.Value != "1" {
		t.Fatalf("accessory got %v", gotCmd)
	}
	if !res.Acked {
		t.Fatal("command not acked")
	}
}

func TestCommandTimeoutAlarm(t *testing.T) {
	e := newEnv(t)
	e.acc.Session().OnMessage = func([]byte) {} // accessory goes deaf
	var res proto.CommandResult
	gotRes := false
	if err := e.hub.Command("aqara-contact-1", "identify", "1", 0, func(r proto.CommandResult) { res, gotRes = r, true }); err != nil {
		t.Fatal(err)
	}
	e.clk.RunFor(time.Minute)
	if !gotRes || res.Acked {
		t.Fatalf("res=%+v, want unacked", res)
	}
	if res.Duration != CommandTimeout {
		t.Fatalf("timeout after %v, want %v", res.Duration, CommandTimeout)
	}
	if e.hub.alarms.CountKind("no-response") != 1 {
		t.Fatalf("alarms = %v", e.hub.Alarms())
	}
}

func TestCommandToUnknownAccessoryFails(t *testing.T) {
	e := newEnv(t)
	if err := e.hub.Command("ghost", "x", "y", 0, nil); err == nil {
		t.Fatal("command to unknown accessory should fail")
	}
}

func TestSilentDisappearanceUnnoticed(t *testing.T) {
	// Finding 3 in the local setting: an accessory that vanishes without a
	// TCP-visible close is never noticed until a command is attempted.
	e := newEnv(t)
	e.acc.Session().OnMessage = func([]byte) {}
	e.clk.RunFor(time.Hour)
	if e.hub.AlarmCount() != 0 {
		t.Fatalf("alarms = %v, want none before any command", e.hub.Alarms())
	}
	if !e.hub.Connected("aqara-contact-1") {
		t.Fatal("hub should still believe the accessory is online")
	}
}

func TestGracefulCloseRemovesSession(t *testing.T) {
	e := newEnv(t)
	e.acc.Close()
	e.clk.RunFor(time.Second)
	if e.hub.Connected("aqara-contact-1") {
		t.Fatal("session should be gone after close")
	}
	if err := e.acc.SendEvent("contact", "open", 0); err == nil {
		t.Fatal("send after close should fail")
	}
}

func TestMessageRoundTrip(t *testing.T) {
	tests := []Message{
		{Type: MsgHello, AccessoryID: "acc-1", Timestamp: time.Second},
		{Type: MsgEvent, AccessoryID: "acc-1", Characteristic: "contact", Value: "open", Timestamp: 2 * time.Second},
		{Type: MsgCommand, ID: 5, Characteristic: "on", Value: "true"},
		{Type: MsgCommandResp, ID: 5},
	}
	for _, want := range tests {
		got, err := Unmarshal(want.AppendTo(nil, 64))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("round trip %+v -> %+v", want, got)
		}
	}
}

func TestUnmarshalGarbage(t *testing.T) {
	if _, err := Unmarshal([]byte{0xee}); err == nil {
		t.Fatal("garbage should fail")
	}
}

// TestDecodedMessageOutlivesNextRecord: the session reuses its receive
// buffer for the next record, so a decoded event must own its strings.
// Two same-shaped events put the second one's bytes exactly where the
// first one's were.
func TestDecodedMessageOutlivesNextRecord(t *testing.T) {
	e := newEnv(t)
	var got []Message
	e.hub.OnEvent = func(_ string, m Message) { got = append(got, m) }
	if err := e.acc.SendEvent("contact", "open", 128); err != nil {
		t.Fatal(err)
	}
	e.clk.RunFor(time.Second)
	if err := e.acc.SendEvent("battery", "full", 128); err != nil {
		t.Fatal(err)
	}
	e.clk.RunFor(time.Second)
	if len(got) != 2 || got[0].AccessoryID != "aqara-contact-1" || got[0].Characteristic != "contact" || got[0].Value != "open" ||
		got[1].Characteristic != "battery" || got[1].Value != "full" {
		t.Fatalf("hub kept %+v", got)
	}
}

// TestAppendToAllocFree: encoding into a grown buffer allocates nothing.
func TestAppendToAllocFree(t *testing.T) {
	m := Message{Type: MsgEvent, AccessoryID: "acc-1", Characteristic: "contact", Value: "open", Timestamp: time.Second}
	buf := m.AppendTo(nil, 256)
	if n := testing.AllocsPerRun(100, func() { buf = m.AppendTo(buf[:0], 256) }); n != 0 {
		t.Fatalf("AppendTo into a grown buffer allocates %.2f per op, want 0", n)
	}
	got, err := Unmarshal(buf)
	if err != nil || len(buf) != 256 || got != m {
		t.Fatalf("re-encoded %d bytes decode to %+v, %v", len(buf), got, err)
	}
}
