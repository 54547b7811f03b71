package httpsim

import (
	"testing"
	"time"

	"repro/internal/proto"
)

func TestClientConfigValidation(t *testing.T) {
	e := newEnv(ServerConfig{})
	defer func() {
		if recover() == nil {
			t.Fatal("keep-alive without timeout should panic")
		}
	}()
	e.dial(ClientConfig{DeviceID: "d", KeepAlive: time.Second})
}

func TestFixedPatternKeepAliveIgnoresRequests(t *testing.T) {
	e := newEnv(ServerConfig{})
	cfg := longLivedCfg()
	cfg.Pattern = proto.PatternFixed
	cfg.KeepAlive = 20 * time.Second
	cli := e.dial(cfg)
	e.clk.RunFor(time.Second)
	// Requests every 8s would suppress on-idle keep-alives entirely; fixed
	// keep-alives must keep their own schedule.
	kaSeen := 0
	e.server.OnRequest = func(_ *Session, m Message) {}
	for _, s := range e.accepted {
		orig := s.OnMessage
		s.OnMessage = func(b []byte) {
			if m, err := Unmarshal(b); err == nil && m.Path == KeepAlivePath {
				kaSeen++
			}
			orig(b)
		}
	}
	stop := false
	var tickFn func()
	tick := func() {
		if stop {
			return
		}
		_, _ = cli.Request("/event", []byte("x"), 0)
		e.clk.Schedule(8*time.Second, tickFn)
	}
	tickFn = tick
	e.clk.Schedule(0, tick)
	e.clk.RunFor(90 * time.Second)
	stop = true
	if kaSeen < 3 {
		t.Fatalf("fixed pattern sent %d keep-alives in 90s of activity, want >= 3", kaSeen)
	}
}

func TestResponsesCorrelateByID(t *testing.T) {
	e := newEnv(ServerConfig{})
	cli := e.dial(ClientConfig{DeviceID: "d", ResponseTimeout: time.Minute})
	e.clk.RunFor(time.Second)
	var ids []uint16
	cli.OnResponse = func(m Message) { ids = append(ids, m.ID) }
	id1, err := cli.Request("/event", []byte("a"), 0)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := cli.Request("/event", []byte("b"), 0)
	if err != nil {
		t.Fatal(err)
	}
	e.clk.RunFor(time.Second)
	if len(ids) != 2 || ids[0] != id1 || ids[1] != id2 {
		t.Fatalf("response ids = %v, want [%d %d]", ids, id1, id2)
	}
}

func TestRequestPaddingApplied(t *testing.T) {
	e := newEnv(ServerConfig{})
	cli := e.dial(ClientConfig{DeviceID: "d"})
	var gotLen int
	for _, s := range e.accepted {
		_ = s
	}
	e.clk.RunFor(time.Second)
	// Observe the raw record length via the server session's message hook.
	for _, s := range e.accepted {
		orig := s.OnMessage
		s.OnMessage = func(b []byte) {
			gotLen = len(b)
			orig(b)
		}
	}
	if _, err := cli.Request("/event", []byte("tiny"), 512); err != nil {
		t.Fatal(err)
	}
	e.clk.RunFor(time.Second)
	if gotLen != 512 {
		t.Fatalf("padded message length = %d, want 512", gotLen)
	}
}
