package main

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/experiment"
	"repro/internal/fleet"
)

// healthy builds results with every shape the checks want.
func healthy() paperResults {
	var r paperResults
	for _, p := range device.CloudProfiles() {
		r.table1 = append(r.table1, experiment.TableRow{Label: p.Label, ParametersVerified: true, StealthOK: true})
	}
	for _, p := range device.LocalProfiles() {
		r.table2 = append(r.table2, experiment.TableRow{Label: p.Label, ParametersVerified: true, StealthOK: true, EventDelayUnbounded: true})
	}
	for _, c := range experiment.Table3Cases() {
		r.cases = append(r.cases, experiment.CaseResult{Case: c, AttackConsequence: true})
	}
	for _, l := range []string{"C1", "L2", "CM1", "K2", "M7", "A1"} {
		r.verify = append(r.verify, experiment.VerifyResult{Label: l, Trials: 20, TimeoutsAvoided: 20, Accepted: 20})
	}
	for id := 1; id <= 3; id++ {
		r.findings = append(r.findings, experiment.FindingResult{ID: id, Holds: true})
	}
	for _, p := range device.Catalog() {
		r.replay = append(r.replay, experiment.ReplayResult{Label: p.Label, Class: experiment.ReplayProtected})
	}
	r.ack = []experiment.AckDefenseResult{
		{AckTimeout: 30 * time.Second, AchievedDelay: 40 * time.Second},
		{AckTimeout: 20 * time.Second, AchievedDelay: 30 * time.Second},
		{AckTimeout: 10 * time.Second, AchievedDelay: 20 * time.Second},
		{AckTimeout: 5 * time.Second, AchievedDelay: 12 * time.Second},
	}
	r.recon = make([]experiment.ReconResult, 4)
	r.margins = make([]experiment.MarginPoint, 4)
	r.boundary = make([]experiment.BoundaryPoint, 4)
	r.timestamp = experiment.TimestampDefenseResult{TriggerDelayBlocked: true, ConditionDelayStillWorks: true}
	return r
}

func TestCheckHealthyReproduction(t *testing.T) {
	c := check(healthy())
	want := len(device.CloudProfiles()) + len(device.LocalProfiles()) + len(experiment.Table3Cases()) + 6 + 3 + len(device.Catalog())
	if c.Items != want || len(c.Failures) != 0 {
		t.Fatalf("items %d failures %v, want %d items and no failure", c.Items, c.Failures, want)
	}
}

// TestBrokenShapeIsReported breaks one item or one run-level shape at a
// time: each must be reported, and the item count must not change.
func TestBrokenShapeIsReported(t *testing.T) {
	items := check(healthy()).Items
	for name, breakIt := range map[string]func(*paperResults){
		"table1 stealth":   func(r *paperResults) { r.table1[3].StealthOK = false },
		"table2 bounded":   func(r *paperResults) { r.table2[0].EventDelayUnbounded = false },
		"case baseline":    func(r *paperResults) { r.cases[10].BaselineConsequence = true },
		"verify imperfect": func(r *paperResults) { r.verify[0].Accepted-- },
		"finding":          func(r *paperResults) { r.findings[1].Holds = false },
		"replay error":     func(r *paperResults) { r.replay[5].Err = errors.New("no session") },
		"defense window":   func(r *paperResults) { r.ack[1].AchievedDelay = r.ack[0].AchievedDelay },
		"timestamp":        func(r *paperResults) { r.timestamp.ConditionDelayStillWorks = false },
		"recon error":      func(r *paperResults) { r.recon[0].Err = errors.New("x") },
		"missing recon":    func(r *paperResults) { r.recon = r.recon[1:] },
		"ablation error":   func(r *paperResults) { r.boundary[2].Err = errors.New("x") },
	} {
		r := healthy()
		breakIt(&r)
		if c := check(r); c.Items != items || len(c.Failures) != 1 {
			t.Errorf("%s: %d items, failures %v, want %d items and exactly 1 failure", name, c.Items, c.Failures, items)
		}
	}
	for name, breakIt := range map[string]func(*paperResults){
		"missing case":     func(r *paperResults) { r.cases = r.cases[1:] },
		"missing findings": func(r *paperResults) { r.findings = nil },
	} {
		r := healthy()
		breakIt(&r)
		if c := check(r); len(c.Failures) != 1 {
			t.Errorf("%s: failures %v, want exactly 1", name, c.Failures)
		}
	}
}

func TestShardRangesTileTheCampaign(t *testing.T) {
	for _, c := range []struct{ homes, n int }{{768, 3}, {1000, 3}, {64, 1}, {65, 2}, {700, 4}} {
		next := 0
		for i := 0; i < c.n; i++ {
			first, last, err := shardRange(fmt.Sprintf("%d/%d", i, c.n), c.homes)
			if err != nil || first != next || last <= first {
				t.Fatalf("%d homes, part %d/%d: [%d,%d) err %v, want a range from %d", c.homes, i, c.n, first, last, err, next)
			}
			next = last
		}
		if want := (c.homes + fleet.DefaultShardSize - 1) / fleet.DefaultShardSize; next != want {
			t.Errorf("%d homes in %d parts end at shard %d, want %d", c.homes, c.n, next, want)
		}
	}
	for _, bad := range []string{"3/3", "-1/3", "1", "a/b"} {
		if _, _, err := shardRange(bad, 768); err == nil {
			t.Errorf("-part %q accepted", bad)
		}
	}
}
