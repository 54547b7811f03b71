// Recon demonstrates the attack's passive prelude (Sections II-C and
// IV-C): a compromised WiFi device sniffs the encrypted home traffic,
// identifies the devices by their record-length/keep-alive fingerprints,
// and infers an automation rule from cause→effect timing — all without
// decrypting a single byte, before any active step is taken.
//
// Run with: go run ./examples/recon
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"repro/internal/experiment"
	"repro/internal/rules"
	"repro/internal/sniff"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// A home with a Ring contact sensor, an August lock, and a Kasa plug,
	// plus the automation the victim configured.
	tb, err := experiment.NewTestbed(experiment.TestbedConfig{
		Seed:    17,
		Devices: []string{"C2", "LK1", "P2"},
	})
	if err != nil {
		return err
	}
	if err := tb.Integration.AddRule(rules.Rule{
		Name:    "lock-on-close",
		Trigger: rules.Trigger{Device: "C2", Attribute: "contact", Value: "closed"},
		Actions: []rules.Action{{Kind: rules.ActionCommand, Device: "LK1", Attribute: "lock", Value: "locked"}},
	}); err != nil {
		return err
	}

	// The attacker only listens: a promiscuous capture on the WiFi medium.
	capture := tb.NewCapture(0)
	tb.Start()

	// A few hours of household life.
	for i := 0; i < 5; i++ {
		tb.Clock.RunFor(20 * time.Minute)
		_ = tb.Device("C2").TriggerEvent("contact", "open")
		tb.Clock.RunFor(45 * time.Second)
		_ = tb.Device("C2").TriggerEvent("contact", "closed")
		tb.Clock.RunFor(3 * time.Minute)
		_ = tb.Device("P2").TriggerEvent("switch", "on")
	}
	tb.Clock.RunFor(10 * time.Minute)

	// Step 1: identify the devices behind each TLS flow.
	cl := sniff.NewClassifier(sniff.BuildCatalogSignatures())
	flows := cl.IdentifyAllFlows(capture)
	fmt.Printf("observed %d flows, identified %d:\n", len(capture.Flows()), len(flows))
	var lines []string
	for flow, model := range flows {
		lines = append(lines, fmt.Sprintf("  %s -> model %s", flow.Client.Addr, model))
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Println(l)
	}

	// Step 2: build the message timeline and mine cause→effect patterns.
	timeline := cl.Timeline(capture.Records(), flows)
	fmt.Printf("\nrecognized %d messages in the encrypted traffic\n", len(timeline))

	res := sniff.Correlate(timeline, "C2", sniff.KindEvent, "LK1", sniff.KindCommand, 5*time.Second)
	fmt.Printf("\nhypothesis: C2 events trigger LK1 commands\n")
	fmt.Printf("  contact events observed:   %d\n", res.CauseCount)
	fmt.Printf("  lock commands observed:    %d\n", res.EffectCount)
	fmt.Printf("  followed within 5s:        %d (confidence %.0f%%)\n", res.Matched, res.Confidence()*100)
	fmt.Printf("  mean automation latency:   %v\n", res.MeanLag.Round(time.Millisecond))

	noise := sniff.Correlate(timeline, "P2", sniff.KindEvent, "LK1", sniff.KindCommand, 5*time.Second)
	fmt.Printf("\ncontrol: P2 events vs LK1 commands: confidence %.0f%%\n", noise.Confidence()*100)

	fmt.Println("\nthe attacker now knows which flow to hijack and when to strike —")
	fmt.Println("half of the contact events (the 'closed' ones) drive the lock;")
	fmt.Println("a 5-second probe delay (Case 3's verification) would confirm it")
	return nil
}
