package mqttsim

import (
	"testing"
	"time"
)

// A clean DISCONNECT must leave no timer behind on either side: after the
// teardown settles, the clock holds no events at all. (The broker once
// rearmed a keep-alive enforcement deadline on the DISCONNECT packet
// itself and had to stop it on close; it no longer enforces keep-alives,
// but the invariant still guards every timer the session owns.)
func TestCleanDisconnectLeavesNoPendingEvents(t *testing.T) {
	e := newEnv()
	cli := e.dial(defaultCfg())
	e.clk.RunFor(time.Second)
	if !cli.Connected() {
		t.Fatal("client never connected")
	}

	cli.Disconnect()
	// Long enough for the FIN exchange and any leaked keep-alive-scale
	// timer to surface.
	e.clk.RunFor(2 * time.Minute)

	if n := e.clk.Pending(); n != 0 {
		t.Fatalf("clock has %d pending events after clean disconnect, want 0 (leaked timer?)", n)
	}
	if got := len(e.broker.Alarms()); got != 0 {
		t.Fatalf("clean disconnect raised %d alarms: %v", got, e.broker.Alarms())
	}
	if s, ok := e.broker.ActiveSession("dev-1"); ok {
		t.Fatalf("broker still holds active session %v after disconnect", s.ClientID())
	}
}
