package proto

import (
	"testing"
	"time"

	"repro/internal/simtime"
)

func TestCommandIDsSkipZero(t *testing.T) {
	c := NewCommands(simtime.NewClock())
	if id := c.NextID(); id != 1 {
		t.Fatalf("first ID = %d, want 1", id)
	}
	for want := 2; want <= 65535; want++ {
		if id := c.NextID(); int(id) != want {
			t.Fatalf("ID = %d, want %d", id, want)
		}
	}
	// 0 marks a message that wants no acknowledgement.
	if id := c.NextID(); id != 1 {
		t.Fatalf("ID after 65535 = %d, want 1", id)
	}
}

func TestCommandAckAfterTimeoutIgnored(t *testing.T) {
	clk := simtime.NewClock()
	c := NewCommands(clk)
	id := c.NextID()
	expired := 0
	var results []CommandResult
	c.Await(id, 5*time.Second, func(got uint16) {
		if got != id {
			t.Errorf("expire got ID %d, want %d", got, id)
		}
		expired++
	}, func(r CommandResult) {
		if expired != 1 {
			t.Errorf("done ran with %d expiries, want it after the one", expired)
		}
		results = append(results, r)
	})
	clk.RunFor(10 * time.Second)
	c.Ack(id)
	want := CommandResult{ID: id, Acked: false, Duration: 5 * time.Second}
	if expired != 1 || len(results) != 1 || results[0] != want {
		t.Fatalf("expired %d times, results %+v; want one expiry and %+v", expired, results, want)
	}
}

func TestCommandAckStopsTimeout(t *testing.T) {
	clk := simtime.NewClock()
	c := NewCommands(clk)
	id := c.NextID()
	expired := false
	var results []CommandResult
	c.Await(id, 5*time.Second, func(uint16) { expired = true }, func(r CommandResult) { results = append(results, r) })
	clk.RunFor(2 * time.Second)
	c.Ack(id)
	if n := clk.Pending(); n != 0 {
		t.Fatalf("clock holds %d events after the ack, want 0", n)
	}
	clk.RunFor(time.Minute)
	want := CommandResult{ID: id, Acked: true, Duration: 2 * time.Second}
	if expired || len(results) != 1 || results[0] != want {
		t.Fatalf("expired %v, results %+v; want no expiry and %+v", expired, results, want)
	}
}

func TestCommandZeroTimeoutWaitsForever(t *testing.T) {
	clk := simtime.NewClock()
	c := NewCommands(clk)
	id := c.NextID()
	var results []CommandResult
	c.Await(id, 0, func(uint16) { t.Error("a zero timeout expired") }, func(r CommandResult) { results = append(results, r) })
	if n := clk.Pending(); n != 0 {
		t.Fatalf("a zero timeout scheduled %d events", n)
	}
	clk.RunFor(24 * time.Hour)
	if len(results) != 0 {
		t.Fatalf("results before any ack: %+v", results)
	}
	c.Ack(id)
	want := CommandResult{ID: id, Acked: true, Duration: 24 * time.Hour}
	if len(results) != 1 || results[0] != want {
		t.Fatalf("results = %+v, want [%+v]", results, want)
	}
}

func TestCommandsStopRunsNothing(t *testing.T) {
	clk := simtime.NewClock()
	c := NewCommands(clk)
	expire := func(uint16) { t.Error("expire ran after Stop") }
	done := func(r CommandResult) { t.Errorf("done ran after Stop: %+v", r) }
	timed, untimed := c.NextID(), c.NextID()
	c.Await(timed, 5*time.Second, expire, done)
	c.Await(untimed, 0, expire, done)
	c.Stop()
	if n := clk.Pending(); n != 0 {
		t.Fatalf("clock holds %d events after Stop, want 0", n)
	}
	clk.RunFor(time.Minute)
	c.Ack(timed)
	c.Ack(untimed)
}

type session struct{ name string }

func TestBindSupersedesLiveSession(t *testing.T) {
	var tab Sessions[*session]
	old, cur := &session{"old"}, &session{"new"}
	tab.Bind("dev", old)
	tab.Bind("dev", old) // rebinding the live session supersedes nothing
	if n := tab.HalfOpen("dev"); n != 0 {
		t.Fatalf("half-open = %d after rebinding the live session, want 0", n)
	}
	tab.Bind("dev", cur)
	if s, ok := tab.Live("dev"); !ok || s != cur {
		t.Fatalf("live = %v, want the new session", s)
	}
	if n := tab.HalfOpen("dev"); n != 1 {
		t.Fatalf("half-open = %d, want the old session", n)
	}
}

func TestDropHalfOpenKeepsLive(t *testing.T) {
	var tab Sessions[*session]
	old, cur := &session{"old"}, &session{"new"}
	tab.Bind("dev", old)
	tab.Bind("dev", cur)
	if tab.Drop("dev", old) {
		t.Fatal("dropping the half-open session reported the live one")
	}
	if s, ok := tab.Live("dev"); !ok || s != cur {
		t.Fatalf("live = %v after dropping the half-open session, want the new one", s)
	}
	if n := tab.HalfOpen("dev"); n != 0 {
		t.Fatalf("half-open = %d after its drop, want 0", n)
	}
}

func TestDropLiveSession(t *testing.T) {
	var tab Sessions[*session]
	s := &session{"only"}
	if tab.Drop("dev", s) {
		t.Fatal("dropping an unbound session reported a live one")
	}
	tab.Bind("dev", s)
	if !tab.Drop("dev", s) {
		t.Fatal("dropping the live session reported false")
	}
	if _, ok := tab.Live("dev"); ok {
		t.Fatal("the dropped session is still live")
	}
	if tab.Drop("dev", s) {
		t.Fatal("a second drop reported the session live again")
	}
}
