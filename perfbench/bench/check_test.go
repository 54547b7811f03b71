package main

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func fleetOutput(t *testing.T, homes, attacked, noTarget, failed int, trials ...int) []byte {
	t.Helper()
	res := map[string]any{
		"homes": homes, "homesAttacked": attacked, "homesNoTarget": noTarget, "homesFailed": failed,
	}
	total := 0
	var perModel []map[string]int
	for _, n := range trials {
		perModel = append(perModel, map[string]int{"trials": n})
		total += n
	}
	res["perModel"] = perModel
	res["totalTrials"] = total
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// wantRun checks a run's result counts after its reps are accounted.
func wantRun(t *testing.T, name string, b *bench, attempted, failed int, broken bool) {
	t.Helper()
	gotA, gotF := b.counts()
	if gotA != attempted || gotF != failed || (len(b.broken) > 0) != broken {
		t.Errorf("%s: attempted %d failed %d broken %v, want %d, %d and broken=%v", name, gotA, gotF, b.broken, attempted, failed, broken)
	}
}

func TestFailedHomesCountAsFailedUnits(t *testing.T) {
	b := &bench{w: workload{homes: 10}}
	out := fleetOutput(t, 10, 6, 1, 3, 4, 2)
	b.account(&repResult{ok: true, output: out})
	b.account(&repResult{ok: true, output: out})
	wantRun(t, "failed homes", b, 20, 6, false)
	if got := b.failedFrac(); got != 0.3 {
		t.Errorf("failed_frac = %v, want 0.3", got)
	}
}

// TestBrokenCheckFailsTheWholeRun breaks one check in the last of three
// reps: every unit of the run, those of the clean reps too, must fail.
func TestBrokenCheckFailsTheWholeRun(t *testing.T) {
	good := fleetOutput(t, 10, 6, 1, 3, 4, 2)
	for name, out := range map[string][]byte{
		"accounting":     fleetOutput(t, 10, 6, 1, 1, 6),
		"trials":         []byte(`{"homes":10,"homesAttacked":10,"totalTrials":5,"perModel":[{"trials":4}]}`),
		"wrong homes":    fleetOutput(t, 9, 9, 0, 0, 9),
		"not a result":   []byte(`fleet: boom`),
		"differs by rep": fleetOutput(t, 10, 7, 0, 3, 5, 2),
	} {
		b := &bench{w: workload{homes: 10}}
		b.account(&repResult{ok: true, output: good})
		b.account(&repResult{ok: true, output: good})
		b.account(&repResult{ok: true, output: out})
		wantRun(t, name, b, 30, 30, true)
		if got := b.failedFrac(); got != 1 {
			t.Errorf("%s: failed_frac = %v, want 1", name, got)
		}
	}
}

// TestLateCheckFailsTheWholeRun breaks a check after the reps, as the
// traced run's comparisons against phantomlab do.
func TestLateCheckFailsTheWholeRun(t *testing.T) {
	b := &bench{w: workload{homes: 10}}
	b.account(&repResult{ok: true, output: fleetOutput(t, 10, 10, 0, 0, 10)})
	wantRun(t, "clean", b, 10, 0, false)
	b.fail("phantomlab fleet -workers 1 result differs")
	wantRun(t, "after a late check", b, 10, 10, true)
}

func TestPaperFailuresFailTheWholeRun(t *testing.T) {
	b := &bench{w: workload{paper: true}}
	b.account(&repResult{ok: true, output: []byte("tables"), report: workerReport{Units: 1,
		Paper: &paperChecks{Items: 120}}})
	wantRun(t, "clean paper rep", b, 120, 0, false)
	b.account(&repResult{ok: true, output: []byte("tables"), report: workerReport{Units: 1,
		Paper: &paperChecks{Items: 120, Failures: []string{"table1 C1: stealthy=false"}}}})
	wantRun(t, "one failed item", b, 240, 240, true)
	if !strings.Contains(b.broken[0], "stealthy=false") {
		t.Errorf("broken %v, want the worker's failure message", b.broken)
	}

	b = &bench{w: workload{paper: true}}
	b.account(&repResult{ok: true, output: []byte("tables"), report: workerReport{Units: 1}})
	wantRun(t, "a rep without checks", b, 1, 1, true)
}

// TestRepCountFollowsTheArgumentsOnly pins a run's rep count to its
// arguments: the same seed and seconds must attempt the same units however
// fast the machine runs.
func TestRepCountFollowsTheArgumentsOnly(t *testing.T) {
	for name, w := range workloads {
		if w.repSeconds <= 0 {
			t.Errorf("%s: repSeconds %v, want > 0", name, w.repSeconds)
		}
	}
	w := workload{repSeconds: 6.2}
	for _, c := range []struct {
		seconds   time.Duration
		min, want int
	}{{20, 3, 3}, {60, 3, 9}, {1, 3, 3}, {20, 2, 3}, {20 / 3, 2, 2}} {
		if got := w.reps(c.seconds*time.Second, c.min); got != c.want {
			t.Errorf("reps(%v s, min %d) = %d, want %d", c.seconds, c.min, got, c.want)
		}
	}
}

// TestRatesAtNominalSpeed checks that a rep's rates take each process at
// the machine's speed around it: a process run at half speed counts half
// its time and CPU.
func TestRatesAtNominalSpeed(t *testing.T) {
	var r repResult
	r.add(repResult{timedS: 2, cpuS: 4, rssMB: 12, report: workerReport{Units: 100}}, 2)
	r.add(repResult{timedS: 1, cpuS: 2, rssMB: 11, report: workerReport{Units: 100}}, 1)
	if r.timedS != 3 || r.cpuS != 6 || r.rssMB != 12 || r.report.Units != 200 {
		t.Errorf("as measured: %+v, want 3 s, 6 CPU s, 12 MB peak and 200 units", r)
	}
	if got := r.unitsPerSec(); got != 100 {
		t.Errorf("units_per_s = %v, want 200 units in 1+1 nominal s = 100", got)
	}
	if got := r.cpuMsPerUnit(); got != 20 {
		t.Errorf("cpu_ms_per_unit = %v, want 2+2 nominal CPU s over 200 units = 20", got)
	}
}
