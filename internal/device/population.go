package device

import (
	"sort"
	"time"

	"repro/internal/simtime"
)

// Ecosystem groups a session-owning hub with the via-hub devices that ride
// its session — the unit of deployment a real buyer installs together.
type Ecosystem struct {
	Hub      string
	Children []string
}

// Ecosystems derives the hub ecosystems from the catalog, sorted by hub
// label with children in catalog order.
func Ecosystems() []Ecosystem {
	children := make(map[string][]string)
	for _, p := range Catalog() {
		if p.Transport == TransportViaHub {
			children[p.ViaHub] = append(children[p.ViaHub], p.Label)
		}
	}
	hubs := make([]string, 0, len(children))
	for hub := range children {
		hubs = append(hubs, hub)
	}
	sort.Strings(hubs)
	out := make([]Ecosystem, 0, len(hubs))
	for _, hub := range hubs {
		out = append(out, Ecosystem{Hub: hub, Children: children[hub]})
	}
	return out
}

// The population mix: the probability that each kind of deployment is
// present in a home. Real smart homes are heterogeneous mixes of hub
// ecosystems, direct WiFi devices, battery on-demand sensors and local
// HomeKit accessories. Most sampled homes have one or two hub ecosystems,
// a few direct WiFi devices, occasionally on-demand sensors and a HomeKit
// corner, so the mean home size lands in the 4–10 device range the
// traffic-characterization literature reports for real deployments.
const (
	// ecosystemProb is the probability that each hub ecosystem (hub plus a
	// sampled subset of its children) is deployed.
	ecosystemProb = 0.35
	// childProb is the per-child inclusion probability within a deployed
	// ecosystem (at least one child is always kept).
	childProb = 0.6
	// directProb is the per-device probability for direct WiFi devices
	// (cameras, plugs, bulbs, keypads, ...).
	directProb = 0.18
	// onDemandProb is the per-device probability for battery on-demand
	// sensors (the Finding 1 devices).
	onDemandProb = 0.2
	// hapProb is the probability that the home runs a local HomeKit
	// deployment at all.
	hapProb = 0.25
	// maxHAP bounds how many HomeKit accessories a HAP home gets.
	maxHAP = 4
)

// SampleDevices draws one home's device mix. The walk over the catalog is
// in a fixed order, so a given rng state fully determines the mix. The
// result always contains at least one attackable device (a minimal
// SmartThings deployment is substituted for an empty draw) and lists hubs
// before their children.
func SampleDevices(rng *simtime.Rand) []string {
	var out []string
	for _, eco := range Ecosystems() {
		if rng.Float64() >= ecosystemProb {
			continue
		}
		out = append(out, eco.Hub)
		picked := 0
		for _, child := range eco.Children {
			if rng.Float64() < childProb {
				out = append(out, child)
				picked++
			}
		}
		if picked == 0 && len(eco.Children) > 0 {
			// A hub nobody pairs anything with is not a deployment.
			out = append(out, eco.Children[0])
		}
	}
	for _, p := range Catalog() {
		switch p.Transport {
		case TransportHTTPLong, TransportMQTT:
			if p.IsHub() {
				continue // hubs are sampled as ecosystems
			}
			if rng.Float64() < directProb {
				out = append(out, p.Label)
			}
		case TransportHTTPOnDemand:
			if rng.Float64() < onDemandProb {
				out = append(out, p.Label)
			}
		}
	}
	if rng.Float64() < hapProb {
		out = append(out, sampleK(rng, hapLabels(), 1+rng.Intn(maxHAP))...)
	}
	if len(out) == 0 {
		out = []string{"H1", "C1"}
	}
	return out
}

func hapLabels() []string {
	var out []string
	for _, p := range LocalProfiles() {
		out = append(out, p.Label)
	}
	return out
}

// sampleK picks k of the given labels without replacement, preserving
// order, via sequential (selection) sampling: each element is included with
// probability needed/remaining, which yields a uniform k-subset in one
// deterministic pass.
func sampleK(rng *simtime.Rand, labels []string, k int) []string {
	if k >= len(labels) {
		return labels
	}
	out := make([]string, 0, k)
	need := k
	for i, l := range labels {
		if need == 0 {
			break
		}
		remaining := len(labels) - i
		if rng.Intn(remaining) < need {
			out = append(out, l)
			need--
		}
	}
	return out
}

// WithTimingJitter returns a copy of p with its timing parameters — the
// keep-alive period, the timeout thresholds, the server idle reaper and the
// reconnect backoff — perturbed by a uniform factor in [1-f, 1+f]. Wire
// lengths are untouched: a jittered unit is still the same model to the
// traffic classifier, it just shipped with slightly different firmware
// timers. f is clamped to [0, 0.5] so no timeout collapses to zero. Zero
// durations stay zero (an "∞" row never grows a timeout from jitter).
func (p Profile) WithTimingJitter(rng *simtime.Rand, f float64) Profile {
	if f < 0 {
		f = 0
	}
	if f > 0.5 {
		f = 0.5
	}
	j := func(d time.Duration) time.Duration {
		if d <= 0 {
			return d
		}
		return rng.Jitter(d, f)
	}
	q := p
	q.KeepAlivePeriod = j(p.KeepAlivePeriod)
	q.KeepAliveTimeout = j(p.KeepAliveTimeout)
	q.EventTimeout = j(p.EventTimeout)
	q.CommandTimeout = j(p.CommandTimeout)
	q.ServerIdleTimeout = j(p.ServerIdleTimeout)
	q.ReconnectDelay = j(p.ReconnectDelay)
	return q
}
