package main

import (
	"errors"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// profile is a CPU profile: each sample's stack of function names,
// innermost frame first, and its CPU nanoseconds.
type profile struct {
	stacks  [][]string
	weights []int64
}

// readProfile reads a CPU profile through the toolchain's pprof, which
// prints every sample's stack with its value.
func readProfile(path string) (profile, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-unit=ns", path)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return profile{}, fmt.Errorf("go tool pprof %s: %v: %s", path, err, lastLine(stderr.String()))
	}
	p, err := parseTraces(string(out))
	if err != nil {
		return profile{}, fmt.Errorf("%s: %v", path, err)
	}
	return p, nil
}

// tracesSeparator opens each sample's block in `pprof -traces` output.
const tracesSeparator = "-----------+-------------------------------------------------------\n"

// parseTraces reads `pprof -traces -unit=ns` output: a header, then one
// block per sample. A block's first line holds the sample's value and its
// innermost function, and each further line one caller; inlined frames
// carry an "(inline)" mark.
func parseTraces(out string) (profile, error) {
	blocks := strings.Split(out, tracesSeparator)
	if len(blocks) < 2 {
		return profile{}, errors.New("pprof printed no samples")
	}
	var p profile
	for _, block := range blocks[1:] {
		lines := strings.Split(strings.TrimSuffix(block, "\n"), "\n")
		if block == "" {
			continue // after the closing separator
		}
		first := strings.Fields(lines[0])
		if len(first) < 2 || !strings.HasSuffix(first[0], "ns") && first[0] != "0" {
			return profile{}, fmt.Errorf("pprof sample line %q has no value in ns", lines[0])
		}
		ns, err := strconv.ParseFloat(strings.TrimSuffix(first[0], "ns"), 64)
		if err != nil {
			return profile{}, fmt.Errorf("pprof sample line %q: %v", lines[0], err)
		}
		stack := []string{first[1]}
		for _, l := range lines[1:] {
			if f := strings.Fields(l); len(f) > 0 {
				stack = append(stack, f[0])
			}
		}
		p.stacks = append(p.stacks, stack)
		p.weights = append(p.weights, int64(ns))
	}
	return p, nil
}

// modules are the repro/internal packages whose host time is reported.
// Sub-packages count as their parent (obs/serve as obs). Internal packages
// not listed here (wire, proto, ipaddr, defense) are charged to the
// innermost listed module that called them.
var modules = []string{
	"simtime", "netsim", "arp", "ipnet", "tcpsim", "tlssim",
	"mqttsim", "httpsim", "hapsim", "device", "cloud", "rules",
	"core", "sniff", "replay", "experiment", "fleet", "obs",
}

// gcFrames are the collector's entry points: background mark workers,
// mark assists charged to allocating goroutines, sweeping and scavenging.
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker":    true,
	"runtime.gcAssistAlloc":     true,
	"runtime.gcAssistAlloc1":    true,
	"runtime.bgsweep":           true,
	"runtime.bgscavenge":        true,
	"runtime.deductSweepCredit": true,
	"runtime.gcStart":           true,
	"runtime.gcMarkDone":        true,
	"runtime.gcMarkTermination": true,
}

// moduleOf names the layer a sample is charged to: "gc" when the collector
// is anywhere on the stack, otherwise the innermost listed repro/internal
// module, otherwise "other". So crypto/ecdh under tlssim counts as tlssim
// and container/heap under simtime as simtime.
func moduleOf(stack []string) string {
	for _, fn := range stack {
		if gcFrames[fn] {
			return "gc"
		}
	}
	for _, fn := range stack {
		rest, ok := strings.CutPrefix(fn, "repro/internal/")
		if !ok {
			continue
		}
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		for _, m := range modules {
			if m == rest {
				return m
			}
		}
	}
	return "other"
}

// moduleShares charges every sample of the profiles to a module and
// returns each module's share of the total weight, and the sample count.
func moduleShares(paths []string) (map[string]float64, int, error) {
	byModule := map[string]int64{}
	var total int64
	samples := 0
	for _, path := range paths {
		p, err := readProfile(path)
		if err != nil {
			return nil, 0, err
		}
		for i, stack := range p.stacks {
			byModule[moduleOf(stack)] += p.weights[i]
			total += p.weights[i]
		}
		samples += len(p.stacks)
	}
	if total == 0 {
		return nil, 0, errors.New("CPU profiles hold no samples")
	}
	shares := make(map[string]float64, len(byModule))
	for m, w := range byModule {
		shares[m] = float64(w) / float64(total)
	}
	return shares, samples, nil
}
