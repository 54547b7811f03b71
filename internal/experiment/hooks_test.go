package experiment

import (
	"testing"
	"time"
)

// TestTrialCountsAllocateNothing checks that the two counts every trial
// reads before and after its hold copy nothing: the events accepted from an
// origin, on the integration server and the local hub, and the server-side
// alarms, a hub alarm included. Neither does the HomeKit lab's alarm
// observable, which the profiler polls after every simulated event while a
// held command waits.
func TestTrialCountsAllocateNothing(t *testing.T) {
	tb, err := NewTestbed(TestbedConfig{Seed: 5, Devices: []string{"C1", "A1", "A6"}})
	if err != nil {
		t.Fatal(err)
	}
	h, lab, err := tb.HijackLab("A6")
	if err != nil {
		t.Fatal(err)
	}
	for _, label := range []string{"C1", "A1"} {
		p := tb.Profile(label)
		if err := tb.Device(label).TriggerEvent(p.EventAttr, p.EventValues[0]); err != nil {
			t.Fatal(err)
		}
	}
	// A command held past the hub's timeout raises its no-response alarm.
	op := h.CDelay("A6", 0)
	if err := lab.TriggerCommand(); err != nil {
		t.Fatal(err)
	}
	tb.Clock.RunFor(15 * time.Second)
	op.Release()
	tb.Clock.RunFor(5 * time.Second)

	if c1, a1 := tb.AcceptedEventCount("C1"), tb.AcceptedEventCount("A1"); c1 != 1 || a1 != 1 {
		t.Fatalf("accepted events: C1 %d, A1 %d; want 1 each", c1, a1)
	}
	if hub, total := tb.LocalHub.AlarmCount(), tb.TotalAlarmCount(); hub != 1 || total != 1 {
		t.Fatalf("alarms: hub %d, total %d; want the hub's one", hub, total)
	}
	if a := testing.AllocsPerRun(100, func() { tb.AcceptedEventCount("A1") }); a != 0 {
		t.Errorf("AcceptedEventCount allocates %v times per call, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { tb.TotalAlarmCount() }); a != 0 {
		t.Errorf("TotalAlarmCount allocates %v times per call, want 0", a)
	}
	if at, ok := lab.ServerAlarmAt(); !ok || at != tb.LocalHub.Alarms()[0].At {
		t.Fatalf("ServerAlarmAt = %v, %v; want the hub alarm's %v", at, ok, tb.LocalHub.Alarms()[0].At)
	}
	if a := testing.AllocsPerRun(100, func() { lab.ServerAlarmAt() }); a != 0 {
		t.Errorf("ServerAlarmAt allocates %v times per call, want 0", a)
	}
}
