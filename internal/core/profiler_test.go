package core_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/proto"
)

// profileDevice runs the Section IV-C procedure against a lab copy of the
// device and returns the measured parameters.
func profileDevice(t *testing.T, label string, trials int) core.Measured {
	t.Helper()
	tb, _, h := hijackedHome(t, label, label)
	lab, err := tb.NewLab(h, label)
	if err != nil {
		t.Fatal(err)
	}
	lab.Trials = trials
	lab.Recovery = 30 * time.Second // lab-tuned; the paper waits 2 minutes
	m, err := lab.Profile()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestProfilerRecoversSmartThingsParameters(t *testing.T) {
	m := profileDevice(t, "C1", 3)
	if !m.HasKeepAlive {
		t.Fatal("keep-alive not detected")
	}
	if m.KeepAlivePeriod < 30*time.Second || m.KeepAlivePeriod > 32*time.Second {
		t.Fatalf("period = %v, want about 31s", m.KeepAlivePeriod)
	}
	if m.Pattern != proto.PatternOnIdle {
		t.Fatalf("pattern = %v, want on-idle", m.Pattern)
	}
	if m.KeepAliveTimeout < 15*time.Second || m.KeepAliveTimeout > 17*time.Second {
		t.Fatalf("keep-alive timeout = %v, want about 16s", m.KeepAliveTimeout)
	}
	if m.EventTimeout != 0 {
		t.Fatalf("event timeout = %v, want none (∞)", m.EventTimeout)
	}
	lo, hi, bounded := m.EventWindow()
	if !bounded || lo < 45*time.Second || hi > 49*time.Second {
		t.Fatalf("event window = [%v,%v], want about 47s", lo, hi)
	}
}

func TestProfilerRecoversHuePattern(t *testing.T) {
	m := profileDevice(t, "L2", 3)
	if m.Pattern != proto.PatternFixed {
		t.Fatalf("pattern = %v, want fixed (Hue bridge)", m.Pattern)
	}
	if m.KeepAlivePeriod < 118*time.Second || m.KeepAlivePeriod > 122*time.Second {
		t.Fatalf("period = %v, want about 120s", m.KeepAlivePeriod)
	}
	if m.KeepAliveTimeout < 58*time.Second || m.KeepAliveTimeout > 62*time.Second {
		t.Fatalf("keep-alive timeout = %v, want about 60s", m.KeepAliveTimeout)
	}
	lo, hi, bounded := m.EventWindow()
	if !bounded || lo < 58*time.Second || hi > 182*time.Second {
		t.Fatalf("event window = [%v,%v], want about [60s,180s]", lo, hi)
	}
}

func TestProfilerRecoversHueCommandTimeout(t *testing.T) {
	m := profileDevice(t, "L2", 3)
	if m.CommandTimeout < 19*time.Second || m.CommandTimeout > 23*time.Second {
		t.Fatalf("command timeout = %v, want about 21s", m.CommandTimeout)
	}
}

func TestProfilerDetectsDedicatedEventTimeout(t *testing.T) {
	// SimpliSafe keypad: a dedicated 25s event timeout shorter than the
	// keep-alive bound (45s).
	m := profileDevice(t, "K2", 3)
	if m.EventTimeout < 23*time.Second || m.EventTimeout > 27*time.Second {
		t.Fatalf("event timeout = %v, want about 25s", m.EventTimeout)
	}
	lo, _, bounded := m.EventWindow()
	if !bounded || lo >= 30*time.Second {
		t.Fatalf("K2 window = %v, must stay the sub-30s outlier", lo)
	}
}

func TestProfilerDetectsOnDemandDevice(t *testing.T) {
	m := profileDevice(t, "M7", 3)
	if !m.OnDemand {
		t.Fatal("on-demand transport not detected")
	}
	if m.HasKeepAlive {
		t.Fatal("on-demand device has no keep-alives")
	}
	// Device-side 408 at ~30s.
	if m.EventTimeout < 28*time.Second || m.EventTimeout > 32*time.Second {
		t.Fatalf("device-side event timeout = %v, want about 30s", m.EventTimeout)
	}
	// Server-side idle reap at ~5m — the true delivery bound (Finding 1).
	if m.ServerIdleTimeout < 4*time.Minute || m.ServerIdleTimeout > 6*time.Minute {
		t.Fatalf("server idle timeout = %v, want about 5m", m.ServerIdleTimeout)
	}
	lo, _, bounded := m.EventWindow()
	if !bounded || lo < 2*time.Minute {
		t.Fatalf("window = %v, want > 2 minutes", lo)
	}
}

func TestProfilerHomeKitUnbounded(t *testing.T) {
	tb, _, h := hijackedHome(t, "A1", "A1")
	lab, err := tb.NewLab(h, "A1")
	if err != nil {
		t.Fatal(err)
	}
	lab.Trials = 1
	lab.Recovery = 10 * time.Second
	m, err := lab.Profile()
	if err != nil {
		t.Fatal(err)
	}
	if m.HasKeepAlive {
		t.Fatal("HAP accessory should show no keep-alive")
	}
	if m.EventTimeout != 0 {
		t.Fatalf("event timeout = %v, want none", m.EventTimeout)
	}
	if _, _, bounded := m.EventWindow(); bounded {
		t.Fatal("HomeKit event window must be unbounded")
	}
}

func TestProfilerHomeKitCommandTimeout(t *testing.T) {
	tb, _, h := hijackedHome(t, "A6", "A6")
	lab, err := tb.NewLab(h, "A6")
	if err != nil {
		t.Fatal(err)
	}
	lab.Trials = 2
	lab.Recovery = 10 * time.Second
	m, err := lab.Profile()
	if err != nil {
		t.Fatal(err)
	}
	if m.CommandTimeout < 9*time.Second || m.CommandTimeout > 11*time.Second {
		t.Fatalf("command timeout = %v, want about 10s (hub no-response)", m.CommandTimeout)
	}
}
