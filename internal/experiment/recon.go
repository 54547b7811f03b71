package experiment

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/device"
	"repro/internal/sniff"
)

// ReconResult reports how much of a home an attacker can recognise with a
// fingerprint database limited to the topN most popular session-owning
// models — the paper's Clarification II: profiling a handful of popular
// devices already covers a large share of deployments.
type ReconResult struct {
	TopN            int
	ProfiledModels  []string
	FlowsObserved   int
	FlowsIdentified int
	// DevicesCovered counts deployed devices whose session owner was
	// identified (children count with their hub).
	DevicesCovered int
	DevicesTotal   int
	Err            error
}

// Coverage is the fraction of deployed devices recognisable.
func (r ReconResult) Coverage() float64 {
	if r.DevicesTotal == 0 {
		return 0
	}
	return float64(r.DevicesCovered) / float64(r.DevicesTotal)
}

// RunReconCoverage deploys the given devices, lets the attacker sniff
// passively, and scores fingerprint databases limited to the top-N
// session-owning models by app popularity against that one capture.
func RunReconCoverage(labels []string, topNs []int, seed int64) []ReconResult {
	capture, err := reconCapture(labels, seed)
	out := make([]ReconResult, 0, len(topNs))
	for _, n := range topNs {
		if err != nil {
			out = append(out, ReconResult{TopN: n, Err: err})
			continue
		}
		out = append(out, reconPoint(labels, capture, n))
	}
	return out
}

// reconCapture builds the home and returns what the attacker's passive
// capture on its LAN sees of household activity and the idle keep-alives
// after it.
func reconCapture(labels []string, seed int64) (*sniff.Capture, error) {
	tb, err := NewTestbed(TestbedConfig{Seed: seed, Devices: labels})
	if err != nil {
		return nil, err
	}
	capture := tb.NewCapture(0)
	tb.Start()
	for i, label := range labels {
		p := tb.Profile(label)
		_ = tb.Device(label).TriggerEvent(p.EventAttr, p.EventValues[i%len(p.EventValues)])
		tb.Clock.RunFor(10 * time.Second)
	}
	tb.Clock.RunFor(5 * time.Minute)
	return capture, nil
}

// reconPoint scores a database of the topN models' signatures against the
// capture.
func reconPoint(labels []string, capture *sniff.Capture, topN int) ReconResult {
	res := ReconResult{TopN: topN}
	sigs := topModelSignatures(topN)
	for _, s := range sigs {
		res.ProfiledModels = append(res.ProfiledModels, s.Owner)
	}
	cl := sniff.NewClassifier(sigs)
	identified := cl.IdentifyAllFlows(capture)
	res.FlowsObserved = len(capture.Flows())
	res.FlowsIdentified = len(identified)

	// Which deployed devices ride an identified session?
	owners := make(map[string]bool)
	for _, model := range identified {
		owners[model] = true
	}
	byLabel := device.Index()
	for _, label := range labels {
		res.DevicesTotal++
		owner, err := device.SessionProfile(byLabel[label], byLabel)
		if err != nil {
			continue
		}
		if owners[owner.Label] {
			res.DevicesCovered++
		}
	}
	return res
}

// topModelSignatures returns signatures for the topN session-owning cloud
// models by app downloads (the paper's popularity proxy).
func topModelSignatures(topN int) []sniff.ModelSignature {
	// Copy before sorting: BuildCatalogSignatures returns a shared slice.
	all := append([]sniff.ModelSignature(nil), sniff.BuildCatalogSignatures()...)
	byLabel := device.Index()
	sort.SliceStable(all, func(i, j int) bool {
		pi, pj := byLabel[all[i].Owner], byLabel[all[j].Owner]
		if pi.AppDownloads != pj.AppDownloads {
			return pi.AppDownloads > pj.AppDownloads
		}
		return all[i].Owner < all[j].Owner
	})
	if topN < len(all) {
		all = all[:topN]
	}
	return all
}

// FormatRecon renders the coverage sweep.
func FormatRecon(w io.Writer, results []ReconResult) {
	fmt.Fprintf(w, "Recon coverage vs. fingerprint-database size (Clarification II)\n%s\n", strings.Repeat("=", 64))
	fmt.Fprintf(w, "%-6s %-8s %-12s %-16s %-9s\n", "TopN", "Flows", "Identified", "DevicesCovered", "Coverage")
	for _, r := range results {
		if r.Err != nil {
			fmt.Fprintf(w, "%-6d ERROR: %v\n", r.TopN, r.Err)
			continue
		}
		fmt.Fprintf(w, "%-6d %-8d %-12d %d/%-14d %.0f%%\n",
			r.TopN, r.FlowsObserved, r.FlowsIdentified, r.DevicesCovered, r.DevicesTotal, r.Coverage()*100)
	}
}
