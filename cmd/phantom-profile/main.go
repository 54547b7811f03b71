// Command phantom-profile runs the Section IV-C profiling procedure
// against one catalog device and prints its measured timeout-behaviour
// parameters and delay windows.
//
// Usage:
//
//	phantom-profile [-seed N] [-trials N] <label>
//	phantom-profile -list
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/device"
	"repro/internal/experiment"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "phantom-profile:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("phantom-profile", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "deterministic seed")
	trials := fs.Int("trials", 3, "trials per message class")
	list := fs.Bool("list", false, "list catalog devices and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		printCatalog()
		return nil
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("expected a device label (try -list)")
	}
	label := fs.Arg(0)

	truth, err := device.Lookup(label)
	if err != nil {
		return err
	}
	fmt.Printf("Profiling %s (%s %s, %s)\n\n", label, truth.Vendor, truth.Model, truth.Class)

	tb, err := experiment.NewTestbed(experiment.TestbedConfig{Seed: *seed, Devices: []string{label}})
	if err != nil {
		return err
	}
	_, lab, err := tb.HijackLab(label)
	if err != nil {
		return err
	}
	lab.Trials = *trials
	lab.Recovery = 30 * time.Second
	m, err := lab.Profile()
	if err != nil {
		return err
	}

	fmt.Println("Measured timeout behaviour (Section IV-B parameters):")
	if m.OnDemand {
		fmt.Println("  session:            on-demand (opened per event)")
	} else if m.HasKeepAlive {
		fmt.Printf("  keep-alive period:  %v (%s pattern)\n", m.KeepAlivePeriod.Round(time.Millisecond), m.Pattern)
		fmt.Printf("  keep-alive timeout: %v\n", m.KeepAliveTimeout.Round(time.Millisecond))
	} else {
		fmt.Println("  session:            long-lived, no keep-alives")
	}
	printTimeout("event message timeout", m.EventTimeout)
	printTimeout("command timeout", m.CommandTimeout)
	if m.ServerIdleTimeout > 0 {
		fmt.Printf("  server idle reap:   %v\n", m.ServerIdleTimeout.Round(time.Millisecond))
	}

	fmt.Println("\nAttack windows:")
	if lo, hi, ok := m.EventWindow(); ok {
		fmt.Printf("  e-Delay: [%v, %v]\n", lo.Round(time.Millisecond), hi.Round(time.Millisecond))
	} else {
		fmt.Println("  e-Delay: unbounded (∞)")
	}
	if truth.CommandAttr != "" {
		if lo, hi, ok := m.CommandWindow(); ok {
			fmt.Printf("  c-Delay: [%v, %v]\n", lo.Round(time.Millisecond), hi.Round(time.Millisecond))
		} else {
			fmt.Println("  c-Delay: unbounded (∞)")
		}
	} else {
		fmt.Println("  c-Delay: n/a (no actuator)")
	}
	return nil
}

func printTimeout(name string, d time.Duration) {
	if d > 0 {
		fmt.Printf("  %-19s %v\n", name+":", d.Round(time.Millisecond))
		return
	}
	fmt.Printf("  %-19s none (∞)\n", name+":")
}

func printCatalog() {
	fmt.Println("Cloud-connected devices (Table I):")
	for _, p := range device.CloudProfiles() {
		via := ""
		if p.ViaHub != "" {
			via = " via " + p.ViaHub
		}
		fmt.Printf("  %-5s %-40s %s%s\n", p.Label, p.Model, p.Transport, via)
	}
	fmt.Println("\nHomeKit accessories (Table II):")
	for _, p := range device.LocalProfiles() {
		fmt.Printf("  %-5s %-40s %s\n", p.Label, p.Model, p.Transport)
	}
}
