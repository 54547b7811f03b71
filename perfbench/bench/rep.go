package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// workerReport is the worker's last stdout line.
type workerReport struct {
	ReadyNs    int64        `json:"readyNs"`
	DoneNs     int64        `json:"doneNs"`
	Units      int          `json:"units"`
	GCCycles   uint32       `json:"gcCycles"`
	AllocBytes uint64       `json:"allocBytes"`
	Allocs     uint64       `json:"allocs"`
	PeakRSSKB  int64        `json:"peakRssKB"`
	Paper      *paperChecks `json:"paper"`
}

// paperChecks is the paper-shape check outcome of one reproduction, with
// each section's wall time. Any failure breaks the run's output check.
type paperChecks struct {
	Items    int                `json:"items"`
	Failures []string           `json:"failures"`
	Seconds  map[string]float64 `json:"seconds"`
}

// repResult is one workload process, or the sum of a rep's processes, as
// the benchmark saw it.
type repResult struct {
	ok bool // every process exited cleanly and reported

	setupS float64 // process start to the first timed unit
	timedS float64 // first timed unit to the last one done
	cpuS   float64 // user + sys CPU of the whole process
	rssMB  float64 // peak resident set of the process

	// nomTimedS and nomCPUS are timedS and cpuS at the machine's nominal
	// speed: each process's share divided by the slowdown around it.
	nomTimedS, nomCPUS float64

	report      workerReport
	output      []byte
	fleet       fleetResult
	profiles    []string // CPU profile paths, when taken
	metricsFile string   // paper metrics snapshot path, when written
}

// add sums one process of the rep, measured at the given slowdown, into r.
func (r *repResult) add(p repResult, slowdown float64) {
	r.timedS += p.timedS
	r.cpuS += p.cpuS
	r.rssMB = max(r.rssMB, p.rssMB)
	r.nomTimedS += p.timedS / slowdown
	r.nomCPUS += p.cpuS / slowdown
	r.report.Units += p.report.Units
	r.report.GCCycles += p.report.GCCycles
	r.report.AllocBytes += p.report.AllocBytes
	r.report.Allocs += p.report.Allocs
	r.report.Paper = p.report.Paper
}

// unitsPerSec is the rep's throughput at the machine's nominal speed.
func (r repResult) unitsPerSec() float64 { return float64(r.report.Units) / r.nomTimedS }

// cpuMsPerUnit is the rep's CPU per unit at the machine's nominal speed.
func (r repResult) cpuMsPerUnit() float64 { return r.nomCPUS * 1000 / float64(r.report.Units) }

func (r repResult) rawUnitsPerSec() float64 { return float64(r.report.Units) / r.timedS }

func (r repResult) rawCPUMsPerUnit() float64 { return r.cpuS * 1000 / float64(r.report.Units) }

// errStart marks a process the benchmark could not start at all, as opposed
// to one that ran and failed.
var errStart = errors.New("cannot start process")

// runProcess runs one worker to completion and fills r from the process
// accounting and the worker's report.
func runProcess(r *repResult, path string, args, env []string) error {
	cmd := exec.Command(path, args...)
	cmd.Env = env
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("%w %s: %v", errStart, path, err)
	}
	if err := cmd.Wait(); err != nil {
		return fmt.Errorf("%s %s: %v: %s", path, strings.Join(args, " "), err, lastLine(stderr.String()))
	}
	if err := json.Unmarshal([]byte(lastLine(stdout.String())), &r.report); err != nil {
		return fmt.Errorf("%s: bad report: %v", path, err)
	}
	ps := cmd.ProcessState
	r.setupS = float64(r.report.ReadyNs-start.UnixNano()) / 1e9
	r.timedS = float64(r.report.DoneNs-r.report.ReadyNs) / 1e9
	r.cpuS = (ps.UserTime() + ps.SystemTime()).Seconds()
	// The rusage's Maxrss would not do: Linux starts a child's count at
	// its parent's peak, so it would read the benchmark's own peak
	// whenever that is the larger.
	r.rssMB = float64(r.report.PeakRSSKB) / 1024
	r.ok = true
	return nil
}

func lastLine(s string) string {
	s = strings.TrimRight(s, "\n")
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}

// fleetResult is the part of a fleet result JSON that the checks read.
type fleetResult struct {
	Homes         int `json:"homes"`
	HomesAttacked int `json:"homesAttacked"`
	HomesNoTarget int `json:"homesNoTarget"`
	HomesFailed   int `json:"homesFailed"`
	TotalTrials   int `json:"totalTrials"`
	PerModel      []struct {
		Trials int `json:"trials"`
	} `json:"perModel"`
	Metrics snapshot `json:"metrics"`
}

// checkFleet decodes a fleet result and checks that its accounting adds
// up. Failed homes are not a broken check: they are failed units.
func checkFleet(data []byte, homes int) (fleetResult, error) {
	var res fleetResult
	if err := json.Unmarshal(data, &res); err != nil {
		return res, fmt.Errorf("fleet result: %v", err)
	}
	if res.Homes != homes {
		return res, fmt.Errorf("fleet result covers %d homes, want %d", res.Homes, homes)
	}
	if n := res.HomesAttacked + res.HomesNoTarget + res.HomesFailed; n != res.Homes {
		return res, fmt.Errorf("fleet accounting: attacked %d + no target %d + failed %d = %d, want %d homes",
			res.HomesAttacked, res.HomesNoTarget, res.HomesFailed, n, res.Homes)
	}
	trials := 0
	for _, m := range res.PerModel {
		trials += m.Trials
	}
	if trials != res.TotalTrials {
		return res, fmt.Errorf("fleet accounting: per-model trials sum to %d, totalTrials is %d", trials, res.TotalTrials)
	}
	return res, nil
}
