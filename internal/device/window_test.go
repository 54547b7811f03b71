package device_test

import (
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/experiment"
	"repro/internal/proto"
)

// The §IV-C delay windows of a catalog profile are the windows the
// attacker derives from its measured parameters:
// experiment.MeasuredFromProfile(p).EventWindow() and CommandWindow().

func eventWindow(p device.Profile) (min, max time.Duration, bounded bool) {
	return experiment.MeasuredFromProfile(p).EventWindow()
}

func commandWindow(p device.Profile) (min, max time.Duration, bounded bool) {
	return experiment.MeasuredFromProfile(p).CommandWindow()
}

func TestEventWindowsMatchPaperAggregate(t *testing.T) {
	// "Event messages of all tested devices can be delayed for longer than
	// 30 seconds except the SimpliSafe keypad."
	byLabel := device.Index()
	for _, p := range device.CloudProfiles() {
		sp, err := device.SessionProfile(p, byLabel)
		if err != nil {
			t.Fatal(err)
		}
		eff := sp
		if p.Transport == device.TransportViaHub {
			// Children inherit session timeouts; their own EventTimeout
			// field is unset.
			eff.EventLen = p.EventLen
		}
		lo, _, bounded := eventWindow(eff)
		if p.Label == "K2" {
			if !bounded || lo >= 30*time.Second {
				t.Fatalf("K2 window %v (bounded %v), want the sub-30s outlier", lo, bounded)
			}
			continue
		}
		if !bounded {
			continue // unbounded is trivially > 30s
		}
		if lo < 30*time.Second {
			t.Errorf("%s: min event window %v < 30s", p.Label, lo)
		}
	}
}

func TestHomeKitWindowsUnbounded(t *testing.T) {
	for _, p := range device.LocalProfiles() {
		if _, _, bounded := eventWindow(p); bounded {
			t.Errorf("%s: HAP event window should be unbounded", p.Label)
		}
	}
}

func TestMaxEventDelayShapes(t *testing.T) {
	onIdle := device.Profile{
		Transport:        device.TransportMQTT,
		KeepAlivePeriod:  31 * time.Second,
		KeepAlivePattern: proto.PatternOnIdle,
		KeepAliveTimeout: 16 * time.Second,
	}
	lo, hi, ok := eventWindow(onIdle)
	if !ok || lo != 47*time.Second || hi != 47*time.Second {
		t.Fatalf("on-idle window = [%v,%v], want constant 47s", lo, hi)
	}
	fixed := device.Profile{
		Transport:        device.TransportMQTT,
		KeepAlivePeriod:  120 * time.Second,
		KeepAlivePattern: proto.PatternFixed,
		KeepAliveTimeout: 60 * time.Second,
	}
	lo, hi, ok = eventWindow(fixed)
	if !ok || lo != 60*time.Second || hi != 180*time.Second {
		t.Fatalf("fixed window = [%v,%v], want [60s,180s] (the Hue range)", lo, hi)
	}
	dedicated := device.Profile{Transport: device.TransportHTTPLong, EventTimeout: 25 * time.Second}
	lo, hi, ok = eventWindow(dedicated)
	if !ok || lo != 25*time.Second || hi != 25*time.Second {
		t.Fatalf("dedicated window = [%v,%v], want 25s", lo, hi)
	}
	onDemand := device.Profile{Transport: device.TransportHTTPOnDemand, ServerIdleTimeout: 5 * time.Minute}
	lo, _, ok = eventWindow(onDemand)
	if !ok || lo != 5*time.Minute {
		t.Fatalf("on-demand window = %v, want 5m", lo)
	}
}

func TestMaxCommandDelay(t *testing.T) {
	p := device.Profile{CommandAttr: "switch", CommandTimeout: 21 * time.Second}
	lo, hi, ok := commandWindow(p)
	if !ok || lo != 21*time.Second || hi != 21*time.Second {
		t.Fatalf("command window = [%v,%v], want 21s", lo, hi)
	}
	sensor := device.Profile{}
	if _, _, ok := commandWindow(sensor); ok {
		t.Fatal("a profile with no timeouts has no command window")
	}
	noTimeout := device.Profile{
		CommandAttr:      "switch",
		Transport:        device.TransportMQTT,
		KeepAlivePeriod:  31 * time.Second,
		KeepAlivePattern: proto.PatternOnIdle,
		KeepAliveTimeout: 16 * time.Second,
	}
	lo, _, ok = commandWindow(noTimeout)
	if !ok || lo != 47*time.Second {
		t.Fatalf("keep-alive-bounded command window = %v, want 47s", lo)
	}
}
