package mqttsim

import (
	"testing"
	"time"

	"repro/internal/proto"
)

func TestPublishBeforeConnectFails(t *testing.T) {
	e := newEnv()
	cli := e.dial(defaultCfg())
	// No RunFor: CONNACK not yet received.
	if _, err := cli.Publish("t", []byte("x"), 0, false); err != ErrNotConnected {
		t.Fatalf("err = %v, want ErrNotConnected", err)
	}
}

func TestClientConfigValidation(t *testing.T) {
	e := newEnv()
	mustPanic := func(cfg ClientConfig) {
		defer func() {
			if recover() == nil {
				t.Errorf("config %+v should panic", cfg)
			}
		}()
		e.dial(cfg)
	}
	mustPanic(ClientConfig{ClientID: "x", PingTimeout: time.Second}) // no keep-alive
	mustPanic(ClientConfig{ClientID: "x", KeepAlive: time.Second})   // no ping timeout
}

func TestServerInitiatedDisconnect(t *testing.T) {
	e := newEnv()
	cli := e.dial(defaultCfg())
	var reason proto.CloseReason
	cli.OnClosed = func(r proto.CloseReason) { reason = r }
	e.clk.RunFor(time.Second)
	s, _ := e.broker.ActiveSession("dev-1")
	s.send(Packet{Type: PacketDisconnect}, 0)
	e.clk.RunFor(time.Second)
	if reason != proto.ReasonServerClosed {
		t.Fatalf("reason = %v, want server-closed", reason)
	}
}

func TestPacketTypeStrings(t *testing.T) {
	tests := []struct {
		typ  PacketType
		want string
	}{
		{PacketConnect, "CONNECT"}, {PacketConnAck, "CONNACK"},
		{PacketSubscribe, "SUBSCRIBE"}, {PacketSubAck, "SUBACK"},
		{PacketPublish, "PUBLISH"}, {PacketPubAck, "PUBACK"},
		{PacketPingReq, "PINGREQ"}, {PacketPingResp, "PINGRESP"},
		{PacketDisconnect, "DISCONNECT"}, {PacketType(0), "UNKNOWN"},
	}
	for _, tt := range tests {
		if got := tt.typ.String(); got != tt.want {
			t.Errorf("%d = %q, want %q", tt.typ, got, tt.want)
		}
	}
}

func TestTwoClientsIndependentSessions(t *testing.T) {
	e := newEnv()
	cfg2 := defaultCfg()
	cfg2.ClientID = "dev-2"
	cli1 := e.dial(defaultCfg())
	cli2 := e.dial(cfg2)
	e.clk.RunFor(time.Second)
	var got []string
	e.broker.OnPublish = func(s *Session, p Packet) { got = append(got, s.ClientID()) }
	if _, err := cli1.Publish("a", nil, 0, false); err != nil {
		t.Fatal(err)
	}
	if _, err := cli2.Publish("b", nil, 0, false); err != nil {
		t.Fatal(err)
	}
	e.clk.RunFor(time.Second)
	if len(got) != 2 || got[0] == got[1] {
		t.Fatalf("publishers = %v", got)
	}
	// Dropping one must not disturb the other.
	cli1.Disconnect()
	e.clk.RunFor(time.Second)
	if _, ok := e.broker.ActiveSession("dev-2"); !ok {
		t.Fatal("dev-2 lost its session")
	}
	if len(e.broker.Alarms()) != 0 {
		t.Fatalf("alarms = %v", e.broker.Alarms())
	}
}
