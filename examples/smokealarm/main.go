// Smokealarm reproduces Figure 3(a): the Type-I state-update delay attack
// against a smoke detector. A kitchen fire is reported to the user's phone
// only after the attacker releases the held "smoke detected" event —
// every second of which matters.
//
// Run with: go run ./examples/smokealarm
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/experiment"
	"repro/internal/rules"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	tb, err := experiment.NewTestbed(experiment.TestbedConfig{
		Seed:    7,
		Devices: []string{"SD1"}, // Nest Protect smoke detector
	})
	if err != nil {
		return err
	}
	if err := tb.Integration.AddRule(rules.Rule{
		Name:    "smoke-alert",
		Trigger: rules.Trigger{Device: "SD1", Attribute: "smoke", Value: "detected"},
		Actions: []rules.Action{{Kind: rules.ActionNotify, Message: "SMOKE DETECTED IN KITCHEN"}},
	}); err != nil {
		return err
	}

	atk, err := tb.NewAttacker()
	if err != nil {
		return err
	}
	h, err := tb.Hijack(atk, "SD1")
	if err != nil {
		return err
	}
	tb.Start()

	// The attacker knows SD1's profile (a one-time lab effort) and arms
	// the maximum stealthy delay: release 2s before the predicted timeout.
	lab, err := tb.NewLab(h, "SD1")
	if err != nil {
		return err
	}
	lab.Trials = 2
	lab.Recovery = 30 * time.Second
	measured, err := lab.Profile()
	if err != nil {
		return err
	}
	lo, hi, _ := measured.EventWindow()
	fmt.Printf("profiled %s: e-Delay window [%v, %v]\n", measured.Model,
		lo.Round(time.Second), hi.Round(time.Second))

	h.ArmPredictor(measured)
	h.MaxEDelay("SD1", 2*time.Second)

	fireAt := tb.Clock.Now()
	if err := tb.Device("SD1").TriggerEvent("smoke", "detected"); err != nil {
		return err
	}
	fmt.Printf("[%8s] smoke fills the kitchen\n", tb.Clock.Now().Round(time.Millisecond))

	tb.Clock.RunFor(3 * time.Minute)

	// Profiling triggered its own probe events; the fire's notification is
	// the one whose cause was generated when the smoke appeared.
	for _, n := range tb.Integration.Notifications() {
		if n.Cause.GeneratedAt < fireAt {
			continue
		}
		fmt.Printf("[%8s] phone finally buzzes: %q\n", n.At.Round(time.Millisecond), n.Message)
		fmt.Printf("\nthe user learned about the fire %.0f seconds late\n", n.Latency().Seconds())
		fmt.Printf("alarms raised anywhere in the pipeline: %d\n", tb.TotalAlarmCount())
		return nil
	}
	return fmt.Errorf("notification never arrived")
}
