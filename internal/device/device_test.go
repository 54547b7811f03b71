package device_test

import (
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/experiment"
	"repro/internal/proto"
)

func home(t *testing.T, labels ...string) *experiment.Testbed {
	t.Helper()
	tb, err := experiment.NewTestbed(experiment.TestbedConfig{Seed: 777, Devices: labels})
	if err != nil {
		t.Fatal(err)
	}
	tb.Start()
	return tb
}

func TestDeviceReconnectsAfterAbort(t *testing.T) {
	tb := home(t, "P2")
	d := tb.Device("P2")
	if !d.Connected() {
		t.Fatal("not connected")
	}
	first := d.TCPConn()
	first.Abort()
	tb.Clock.RunFor(10 * time.Second)
	if !d.Connected() {
		t.Fatal("device did not reconnect")
	}
	if d.TCPConn() == first {
		t.Fatal("reconnect should produce a new transport connection")
	}
	if got := d.LogCount("closed"); got != 1 {
		t.Fatalf("closed log entries = %d, want 1", got)
	}
	if got := d.LogCount("connected"); got != 2 {
		t.Fatalf("connected log entries = %d, want 2", got)
	}
}

func TestDeviceStopDisablesReconnect(t *testing.T) {
	tb := home(t, "P2")
	d := tb.Device("P2")
	d.Stop()
	tb.Clock.RunFor(30 * time.Second)
	if d.Connected() {
		t.Fatal("stopped device should stay disconnected")
	}
	if err := d.TriggerEvent("switch", "on"); err == nil {
		t.Fatal("event on a stopped device should fail")
	}
}

func TestChildEventRidesHubSession(t *testing.T) {
	tb := home(t, "C2")
	hub := tb.Device("H3")
	child := tb.Device("C2")
	if child.TCPConn() != hub.TCPConn() {
		t.Fatal("child transport should be the hub's")
	}
	if err := child.TriggerEvent("contact", "open"); err != nil {
		t.Fatal(err)
	}
	tb.Clock.RunFor(2 * time.Second)
	if hub.LogCount("event-sent") != 1 {
		t.Fatalf("hub event-sent = %d", hub.LogCount("event-sent"))
	}
	if child.State("contact") != "open" {
		t.Fatal("child state not tracked")
	}
}

func TestChildEventDroppedWhileHubDown(t *testing.T) {
	tb := home(t, "C2")
	hub := tb.Device("H3")
	hub.TCPConn().Abort()
	// Before the reconnect completes, events are dropped (the paper's
	// cited observation that blocked events are lost permanently).
	if err := tb.Device("C2").TriggerEvent("contact", "open"); err == nil {
		t.Fatal("event during outage should report an error")
	}
	if hub.LogCount("event-dropped") != 1 {
		t.Fatalf("event-dropped = %d", hub.LogCount("event-dropped"))
	}
	tb.Clock.RunFor(10 * time.Second)
	if len(tb.Integration.Events()) != 0 {
		t.Fatal("dropped event must not be delivered later")
	}
}

func TestActuationEmitsConfirmingEvent(t *testing.T) {
	tb := home(t, "P2")
	ep := tb.Endpoints["tplinkcloud.com"]
	if err := ep.SendCommand("P2", "switch", "on", nil); err != nil {
		t.Fatal(err)
	}
	tb.Clock.RunFor(2 * time.Second)
	if got := lastLog(tb.Device("P2"), "command-applied"); got != "switch=on" {
		t.Fatalf("applied command = %q", got)
	}
	// The confirming state update reached the cloud.
	evs := tb.Integration.Events()
	if len(evs) != 1 || evs[0].Device != "P2" || evs[0].Value != "on" {
		t.Fatalf("confirming event = %v", evs)
	}
}

func TestOnDemandDeviceSessionPerEvent(t *testing.T) {
	tb := home(t, "M7")
	d := tb.Device("M7")
	if d.TCPConn() != nil {
		t.Fatal("on-demand device should hold no standing connection")
	}
	if !d.Connected() {
		t.Fatal("on-demand devices report connected (they dial per event)")
	}
	for i := 0; i < 3; i++ {
		v := []string{"active", "inactive"}[i%2]
		if err := d.TriggerEvent("motion", v); err != nil {
			t.Fatal(err)
		}
		tb.Clock.RunFor(5 * time.Second)
	}
	if got := len(tb.Integration.Events()); got != 3 {
		t.Fatalf("events = %d, want 3", got)
	}
	if d.LogCount("event-sent") != 3 {
		t.Fatalf("event-sent = %d", d.LogCount("event-sent"))
	}
}

func TestNewPanicsOnViaHubProfile(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p, _ := device.Lookup("C2")
	device.New(device.Env{}, p)
}

func TestNewChildPanicsOnSessionOwner(t *testing.T) {
	tb := home(t, "P2")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p, _ := device.Lookup("P2")
	device.NewChild(tb.Device("P2"), p)
}

func TestSessionLossReasonSurfaced(t *testing.T) {
	tb := home(t, "P2")
	tb.Device("P2").TCPConn().Abort()
	tb.Clock.RunFor(time.Second)
	if got, want := lastLog(tb.Device("P2"), "closed"), proto.ReasonTransport.String(); got != want {
		t.Fatalf("reason = %q, want %q", got, want)
	}
}

// lastLog returns the detail of d's latest log entry of the given kind.
func lastLog(d *device.Device, kind string) string {
	log := d.Log()
	for i := len(log) - 1; i >= 0; i-- {
		if log[i].Kind == kind {
			return log[i].Detail
		}
	}
	return ""
}

func TestDeviceLogCopies(t *testing.T) {
	tb := home(t, "P2")
	d := tb.Device("P2")
	_ = d.TriggerEvent("switch", "on")
	log1 := d.Log()
	if len(log1) == 0 {
		t.Fatal("empty log")
	}
	log1[0].Detail = "mutated"
	if d.Log()[0].Detail == "mutated" {
		t.Fatal("Log() leaked internal slice")
	}
}

func TestStopAcrossTransports(t *testing.T) {
	tb := home(t, "P2", "CM1", "A1")
	for _, label := range []string{"P2", "CM1", "A1"} {
		d := tb.Device(label)
		if !d.Connected() {
			t.Fatalf("%s not connected", label)
		}
		d.Stop()
	}
	tb.Clock.RunFor(30 * time.Second)
	for _, label := range []string{"P2", "CM1", "A1"} {
		if tb.Device(label).Connected() {
			t.Fatalf("%s still connected after Stop", label)
		}
	}
	// Graceful stops raise nothing.
	if tb.TotalAlarmCount() != 0 {
		t.Fatalf("alarms = %d", tb.TotalAlarmCount())
	}
}

func TestCommandForUnknownChildIgnored(t *testing.T) {
	tb := home(t, "C2")
	ep := tb.Endpoints["ring.com"]
	// Register a bogus routing entry and send a command for it: the hub
	// receives a command for a child it does not know and must ignore it.
	p, _ := device.Lookup("C2")
	p.Label = "GHOST"
	p.CommandAttr = "contact"
	p.CommandTimeout = 5 * time.Second
	ep.RegisterDevice(p, "H3")
	if err := ep.SendCommand("GHOST", "contact", "open", nil); err != nil {
		t.Fatal(err)
	}
	tb.Clock.RunFor(2 * time.Second)
	if tb.Device("H3").State("contact") != "" {
		t.Fatal("hub applied a command for an unknown child to itself")
	}
}

func TestChildrenListing(t *testing.T) {
	tb := home(t, "C2", "M3")
	hub := tb.Device("H3")
	kids := hub.Children()
	if len(kids) != 2 {
		t.Fatalf("children = %d, want 2", len(kids))
	}
	seen := map[string]bool{}
	for _, c := range kids {
		seen[c.Label()] = true
	}
	if !seen["C2"] || !seen["M3"] {
		t.Fatalf("children = %v", seen)
	}
}

func TestTransportStrings(t *testing.T) {
	tests := []struct {
		tr   device.Transport
		want string
	}{
		{device.TransportMQTT, "mqtt"},
		{device.TransportHTTPLong, "http-long"},
		{device.TransportHTTPOnDemand, "http-on-demand"},
		{device.TransportHAP, "hap"},
		{device.TransportViaHub, "via-hub"},
		{device.Transport(0), "unknown"},
	}
	for _, tt := range tests {
		if got := tt.tr.String(); got != tt.want {
			t.Errorf("%d = %q want %q", tt.tr, got, tt.want)
		}
	}
}
