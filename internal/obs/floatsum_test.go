package obs

import (
	"encoding/json"
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"testing"
)

// bigSum folds vs into an arbitrary-precision reference sum. 2200 bits of
// mantissa exceeds the 2098-bit span of all finite float64s plus the
// accumulation headroom, so the reference is exact for every test input.
func bigSum(vs []float64) *big.Float {
	sum := new(big.Float).SetPrec(2200)
	for _, v := range vs {
		sum.Add(sum, new(big.Float).SetPrec(2200).SetFloat64(v))
	}
	return sum
}

// refValue rounds the exact reference sum to float64 the way Value must:
// nearest, ties to even — big.Float's default rounding mode.
func refValue(vs []float64) float64 {
	f, _ := bigSum(vs).Float64()
	return f
}

// randFloat draws from a distribution heavy in awkward cases: mixed signs,
// wildly mixed magnitudes, subnormals, and exact powers of two.
func randFloat(r *rand.Rand) float64 {
	switch r.Intn(8) {
	case 0: // full normal range
		return math.Ldexp(r.Float64()*2-1, r.Intn(2045)-1022)
	case 1: // subnormal
		return math.Ldexp(float64(r.Int63n(1<<52)), -1074) * float64(1-2*r.Intn(2))
	case 2: // power of two
		return math.Ldexp(1, r.Intn(2046)-1074) * float64(1-2*r.Intn(2))
	case 3: // boundary values
		return [...]float64{0, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 1, -1}[r.Intn(6)]
	default: // everyday magnitudes (delay seconds and the like)
		return (r.Float64()*2 - 1) * math.Pow(10, float64(r.Intn(9)-4))
	}
}

func TestFloatSumMatchesBigFloatReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		n := 1 + r.Intn(12)
		vs := make([]float64, n)
		var s FloatSum
		for i := range vs {
			vs[i] = randFloat(r)
			s.Add(vs[i])
		}
		want := refValue(vs)
		if got := s.Value(); got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("trial %d: Value() = %g (% x), reference %g (% x) for %v",
				trial, got, math.Float64bits(got), want, math.Float64bits(want), vs)
		}
	}
}

func TestFloatSumTwoOperandMatchesIEEE(t *testing.T) {
	// A single IEEE addition is correctly rounded, so the exact sum of two
	// values must equal the hardware result bit for bit.
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 2000; trial++ {
		a, b := randFloat(r), randFloat(r)
		if math.IsInf(a+b, 0) {
			continue // overflow rounds to Inf, which FloatSum represents finitely
		}
		var s FloatSum
		s.Add(a)
		s.Add(b)
		if got, want := s.Value(), a+b; math.Float64bits(got) != math.Float64bits(want) && got != want {
			t.Fatalf("%g + %g: Value() = %g, IEEE %g", a, b, got, want)
		}
	}
}

func TestFloatSumAssociativeAndCommutative(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		vs := make([]float64, 2+r.Intn(10))
		for i := range vs {
			vs[i] = randFloat(r)
		}
		var serial FloatSum
		for _, v := range vs {
			serial.Add(v)
		}
		// Random permutation, randomly grouped into partial sums merged
		// with AddSum: the limb state must be identical.
		perm := r.Perm(len(vs))
		var grouped FloatSum
		for i := 0; i < len(perm); {
			var part FloatSum
			k := 1 + r.Intn(len(perm)-i)
			for _, idx := range perm[i : i+k] {
				part.Add(vs[idx])
			}
			grouped.AddSum(&part)
			i += k
		}
		if serial != grouped {
			t.Fatalf("trial %d: regrouped accumulation diverged for %v:\n serial  %v\n grouped %v",
				trial, vs, serial.limbs, grouped.limbs)
		}
	}
}

func TestFloatSumCancellation(t *testing.T) {
	var s FloatSum
	for _, v := range []float64{1e300, math.SmallestNonzeroFloat64, -1e300, 0.1, -0.1, -math.SmallestNonzeroFloat64} {
		s.Add(v)
	}
	if !s.IsZero() {
		t.Fatalf("exact cancellation left non-zero limbs: %v", s.limbs)
	}
	if v := s.Value(); v != 0 {
		t.Fatalf("Value() = %g after full cancellation", v)
	}
	// Tiny survivor under a huge transient: exact accumulation must not
	// lose the 2^-1074 to absorption.
	var tiny FloatSum
	tiny.Add(math.MaxFloat64)
	tiny.Add(math.SmallestNonzeroFloat64)
	tiny.Add(-math.MaxFloat64)
	if got := tiny.Value(); got != math.SmallestNonzeroFloat64 {
		t.Fatalf("Value() = %g, want the smallest subnormal to survive", got)
	}
}

func TestFloatSumNegativeTotals(t *testing.T) {
	var s FloatSum
	s.Add(0.1)
	s.Add(-0.3)
	if got, want := s.Value(), refValue([]float64{0.1, -0.3}); got != want {
		t.Fatalf("Value() = %g, want %g", got, want)
	}
	s.Add(-1e308)
	s.Add(-1e308)
	// The exact total is below -MaxFloat64; Value saturates via Ldexp's
	// overflow to -Inf, matching what the real sum rounds to.
	if got := s.Value(); !math.IsInf(got, -1) {
		t.Fatalf("Value() = %g, want -Inf for an overflowing total", got)
	}
}

func TestFloatSumNonFinitePanics(t *testing.T) {
	for _, v := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Add(%v) did not panic", v)
				}
			}()
			var s FloatSum
			s.Add(v)
		}()
	}
}

func TestFloatSumJSONRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 100; trial++ {
		var s FloatSum
		for i := 1 + r.Intn(6); i > 0; i-- {
			s.Add(randFloat(r))
		}
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var back FloatSum
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if s != back {
			t.Fatalf("round trip diverged:\n in  %v\n out %v", s.limbs, back.limbs)
		}
		// Canonical: re-encoding the decoded value reproduces the bytes.
		again, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != string(again) {
			t.Fatalf("encoding not canonical: %s != %s", data, again)
		}
	}
	var zero FloatSum
	data, err := json.Marshal(zero)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "[]" {
		t.Fatalf("zero sum encodes as %s, want []", data)
	}
	var s FloatSum
	if err := json.Unmarshal([]byte("[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24,25,26,27,28,29,30,31,32,33,34,35]"), &s); err == nil {
		t.Fatal("oversized limb array accepted")
	}
}

// TestAbsorbReassociatesExactly is the law multi-process fleet merging
// rides on: split a snapshot sequence at any point, fold each half into
// its own accumulator, Absorb both into a third — the result must equal
// the uninterrupted serial fold in every field, exact sums included.
func TestAbsorbReassociatesExactly(t *testing.T) {
	snaps := make([]Snapshot, 7)
	for i := range snaps {
		snaps[i] = accSnap(i)
	}
	serial := NewAccumulator()
	for _, s := range snaps {
		serial.Add(s)
	}
	for split := 0; split <= len(snaps); split++ {
		left, right := NewAccumulator(), NewAccumulator()
		for _, s := range snaps[:split] {
			left.Add(s)
		}
		for _, s := range snaps[split:] {
			right.Add(s)
		}
		merged := NewAccumulator()
		if err := merged.Absorb(left.State(), left.HistogramSums()); err != nil {
			t.Fatal(err)
		}
		if err := merged.Absorb(right.State(), right.HistogramSums()); err != nil {
			t.Fatal(err)
		}
		if got, want := merged.State(), serial.State(); !reflect.DeepEqual(got, want) {
			t.Fatalf("split %d: absorbed state diverges from serial fold:\n got %+v\nwant %+v", split, got, want)
		}
		if got, want := merged.HistogramSums(), serial.HistogramSums(); !reflect.DeepEqual(got, want) {
			t.Fatalf("split %d: exact sums diverge after absorb", split)
		}
	}
}

// TestAbsorbBeatsPlainRefold pins why Absorb exists: re-folding a rounded
// State() loses the exact tail of the sum, and for a crafted sequence the
// difference is observable in the final float64 — Absorb must not lose it.
func TestAbsorbBeatsPlainRefold(t *testing.T) {
	mk := func(v float64) Snapshot {
		r := NewRegistry()
		r.Histogram("h", []float64{1}).Observe(v)
		return r.Snapshot()
	}
	// 2^-53 is exactly half an ulp of 1: each rounded step ties back to 1,
	// but the exact sum 1 + 2·2^-53 = 1 + 2^-52 is representable.
	a, b, c := mk(1), mk(math.Ldexp(1, -53)), mk(math.Ldexp(1, -53))

	serial := NewAccumulator()
	for _, s := range []Snapshot{a, b, c} {
		serial.Add(s)
	}
	prefix := NewAccumulator()
	prefix.Add(a)
	prefix.Add(b)

	exact := NewAccumulator()
	if err := exact.Absorb(prefix.State(), prefix.HistogramSums()); err != nil {
		t.Fatal(err)
	}
	exact.Add(c)

	refold := NewAccumulator()
	refold.Add(prefix.State()) // rounded boundary: exact tail lost
	refold.Add(c)

	wantSum := serial.State().Histograms[0].Sum
	if got := exact.State().Histograms[0].Sum; got != wantSum {
		t.Fatalf("Absorb-resumed sum %g != serial %g", got, wantSum)
	}
	if got := refold.State().Histograms[0].Sum; got == wantSum {
		t.Fatalf("plain re-fold unexpectedly matched the serial sum (%g) — counterexample no longer demonstrates the loss", got)
	}
}

func TestAbsorbValidation(t *testing.T) {
	acc := NewAccumulator()
	src := NewAccumulator()
	src.Add(accSnap(0))
	if err := acc.Absorb(src.State(), nil); err == nil {
		t.Fatal("misaligned exact sums accepted")
	}
	unsorted := src.State()
	unsorted.Counters = append(unsorted.Counters, CounterValue{Name: "aaa_first"})
	if err := acc.Absorb(unsorted, src.HistogramSums()); err == nil {
		t.Fatal("unsorted snapshot accepted")
	}
	if got, want := acc.State(), NewAccumulator().State(); !reflect.DeepEqual(got, want) {
		t.Fatalf("failed Absorbs mutated the accumulator: %+v", got)
	}
}

// TestSnapshotJSONRoundTripFidelity: checkpoints persist Snapshot and
// FloatSum state as JSON; both must round-trip bit-for-bit, adversarial
// float values included.
func TestSnapshotJSONRoundTripFidelity(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("awkward", []float64{1e-200, 0.5})
	for _, v := range []float64{0.1, 0.2, 1e-300, -1e-300, math.SmallestNonzeroFloat64, 1e300, -0.30000000000000004} {
		h.Observe(v)
	}
	r.Gauge("g").Set(-9007199254740993) // beyond 2^53: exact in int64 JSON
	r.Counter("c").Add(math.MaxUint64 / 3)
	acc := NewAccumulator()
	acc.Add(r.Snapshot())
	acc.Add(accSnap(5))

	state, sums := acc.State(), acc.HistogramSums()
	blob, err := json.Marshal(struct {
		State Snapshot
		Sums  []FloatSum
	}{state, sums})
	if err != nil {
		t.Fatal(err)
	}
	var back struct {
		State Snapshot
		Sums  []FloatSum
	}
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.State, state) {
		t.Fatalf("snapshot JSON round trip diverged:\n got %+v\nwant %+v", back.State, state)
	}
	if !reflect.DeepEqual(back.Sums, sums) {
		t.Fatal("exact sums JSON round trip diverged")
	}
	// Absorbing the round-tripped aggregate must continue the fold exactly.
	resumed := NewAccumulator()
	if err := resumed.Absorb(back.State, back.Sums); err != nil {
		t.Fatal(err)
	}
	resumed.Add(accSnap(6))
	direct := NewAccumulator()
	direct.Add(r.Snapshot())
	direct.Add(accSnap(5))
	direct.Add(accSnap(6))
	if got, want := resumed.State(), direct.State(); !reflect.DeepEqual(got, want) {
		t.Fatalf("fold resumed from JSON diverged:\n got %+v\nwant %+v", got, want)
	}
}
