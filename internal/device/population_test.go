package device_test

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/simtime"
)

func TestEcosystemsCoverEveryViaHubDevice(t *testing.T) {
	covered := make(map[string]bool)
	for _, eco := range device.Ecosystems() {
		if p, err := device.Lookup(eco.Hub); err != nil || !p.IsHub() {
			t.Fatalf("ecosystem hub %q invalid (err=%v)", eco.Hub, err)
		}
		for _, c := range eco.Children {
			covered[c] = true
		}
	}
	for _, p := range device.Catalog() {
		if p.Transport == device.TransportViaHub && !covered[p.Label] {
			t.Errorf("via-hub device %s missing from ecosystems", p.Label)
		}
	}
}

func TestSampleDevicesDeterministicAndValid(t *testing.T) {
	byLabel := device.Index()
	for seed := int64(0); seed < 50; seed++ {
		a := device.SampleDevices(simtime.NewRand(seed))
		b := device.SampleDevices(simtime.NewRand(seed))
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: sampling not deterministic: %v vs %v", seed, a, b)
		}
		if len(a) == 0 {
			t.Fatalf("seed %d: empty home", seed)
		}
		seen := make(map[string]bool)
		for _, l := range a {
			p, ok := byLabel[l]
			if !ok {
				t.Fatalf("seed %d: unknown label %q", seed, l)
			}
			if seen[l] {
				t.Fatalf("seed %d: duplicate label %q", seed, l)
			}
			seen[l] = true
			if p.Transport == device.TransportViaHub && !seen[p.ViaHub] {
				t.Fatalf("seed %d: child %s sampled before/without hub %s", seed, l, p.ViaHub)
			}
		}
	}
}

func TestSampleDevicesMixesVary(t *testing.T) {
	sizes := make(map[int]bool)
	for seed := int64(0); seed < 200; seed++ {
		sizes[len(device.SampleDevices(simtime.NewRand(seed)))] = true
	}
	if len(sizes) < 4 {
		t.Fatalf("population not heterogeneous: only %d distinct home sizes", len(sizes))
	}
}

func TestWithTimingJitter(t *testing.T) {
	p, err := device.Lookup("H1")
	if err != nil {
		t.Fatal(err)
	}
	rng := simtime.NewRand(7)
	q := p.WithTimingJitter(rng, 0.2)
	if q.EventLen != p.EventLen || q.KeepAliveLen != p.KeepAliveLen || q.CommandLen != p.CommandLen {
		t.Fatal("jitter must not touch wire lengths")
	}
	if q.Label != p.Label || q.Transport != p.Transport {
		t.Fatal("jitter must not change identity")
	}
	lo := time.Duration(float64(p.KeepAlivePeriod) * 0.8)
	hi := time.Duration(float64(p.KeepAlivePeriod) * 1.2)
	if q.KeepAlivePeriod < lo || q.KeepAlivePeriod > hi {
		t.Fatalf("keep-alive period %v outside ±20%% of %v", q.KeepAlivePeriod, p.KeepAlivePeriod)
	}
	if q.EventTimeout != 0 {
		t.Fatal("zero timeout must stay zero under jitter")
	}
	// Clamped factor: even f=3 must not zero a timeout.
	r := p.WithTimingJitter(simtime.NewRand(9), 3)
	if r.KeepAliveTimeout < p.KeepAliveTimeout/2 {
		t.Fatalf("jitter factor not clamped: %v from %v", r.KeepAliveTimeout, p.KeepAliveTimeout)
	}
}
