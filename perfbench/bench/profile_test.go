package main

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestModuleOf(t *testing.T) {
	cases := []struct {
		stack []string // innermost first
		want  string
	}{
		{[]string{"crypto/internal/fips140/edwards25519/field.feMul", "crypto/ecdh.x25519Ladder",
			"repro/internal/tlssim.(*Conn).processHandshake", "repro/internal/tcpsim.(*Conn).deliver"}, "tlssim"},
		{[]string{"container/heap.down", "container/heap.Pop", "repro/internal/simtime.(*Clock).step",
			"repro/internal/experiment.(*Testbed).Start"}, "simtime"},
		{[]string{"runtime.scanobject", "runtime.gcDrainN", "runtime.gcAssistAlloc",
			"runtime.mallocgc", "repro/internal/tlssim.(*Conn).seal"}, "gc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.sweepone", "runtime.bgsweep"}, "gc"},
		{[]string{"repro/internal/wire.Encode", "repro/internal/mqttsim.(*Client).publish"}, "mqttsim"},
		{[]string{"repro/internal/obs/timeline.Build", "main.main"}, "obs"},
		{[]string{"repro/internal/fleet.Campaign.collect.func1"}, "fleet"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "other"},
		{[]string{"main.run", "main.main"}, "other"},
		{nil, "other"},
	}
	for _, c := range cases {
		if got := moduleOf(c.stack); got != c.want {
			t.Errorf("moduleOf(%q) = %s, want %s", c.stack, got, c.want)
		}
	}
}

//go:noinline
func spin(d time.Duration) int {
	x := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += i * i
		}
	}
	return x
}

// TestDecodeRealProfile reads a CPU profile this process takes of itself,
// so the parser is checked against what runtime/pprof writes and what the
// toolchain's pprof prints.
func TestDecodeRealProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	p, err := readProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	var total, inSpin int64
	for i, stack := range p.stacks {
		total += p.weights[i]
		for _, fn := range stack {
			if strings.HasSuffix(fn, ".spin") {
				inSpin += p.weights[i]
				break
			}
		}
	}
	if total == 0 || inSpin*2 < total {
		t.Fatalf("spin holds %d of %d ns of samples, want most", inSpin, total)
	}
	// The weights are CPU nanoseconds, not sample counts.
	if total < int64(100*time.Millisecond) {
		t.Fatalf("profile holds %v of CPU, want about 300ms", time.Duration(total))
	}
}

func TestParseTraces(t *testing.T) {
	out := `File: worker
Type: cpu
Duration: 412.15ms, Total samples = 30000000ns (7.28%)
-----------+-------------------------------------------------------
10000000ns   crypto/internal/fips140/edwards25519/field.feMul
             crypto/internal/fips140/edwards25519/field.(*Element).Multiply (inline)
             crypto/ecdh.x25519ScalarMult
             repro/internal/tlssim.newX25519Key
-----------+-------------------------------------------------------
20000000ns   runtime.futex
-----------+-------------------------------------------------------
`
	p, err := parseTraces(out)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"crypto/internal/fips140/edwards25519/field.feMul", "crypto/internal/fips140/edwards25519/field.(*Element).Multiply",
			"crypto/ecdh.x25519ScalarMult", "repro/internal/tlssim.newX25519Key"},
		{"runtime.futex"},
	}
	if !reflect.DeepEqual(p.stacks, want) || !reflect.DeepEqual(p.weights, []int64{10000000, 20000000}) {
		t.Fatalf("stacks %q weights %v", p.stacks, p.weights)
	}
	if _, err := parseTraces("File: worker\n"); err == nil {
		t.Error("output without samples parsed")
	}
	if _, err := parseTraces("h\n" + tracesSeparator + "10ms   runtime.futex\n"); err == nil {
		t.Error("a value not in ns parsed")
	}
}
