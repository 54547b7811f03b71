// Package simfix exercises the determinism analyzer: wall-clock and
// global-rand escapes are findings; seeded randomness, virtual-time
// arithmetic, and suppressed lines are not.
package simfix

import (
	"crypto/ecdh"
	"crypto/ecdsa"
	"crypto/elliptic"
	"io"
	"math/rand"
	"time"

	"repro/internal/bench/twrap"
)

// Bad: every wall-clock read or wait is a finding.
func wallClock() time.Duration {
	start := time.Now()             // want `time\.Now reads the wall clock`
	time.Sleep(time.Millisecond)    // want `time\.Sleep reads the wall clock`
	<-time.After(time.Millisecond)  // want `time\.After reads the wall clock`
	t := time.NewTimer(time.Second) // want `time\.NewTimer reads the wall clock`
	t.Stop()
	_ = time.Tick            // want `time\.Tick reads the wall clock`
	return time.Since(start) // want `time\.Since reads the wall clock`
}

// Bad: the global math/rand stream is shared, unseeded state.
func globalRand() int {
	f := rand.Float64() // want `global rand\.Float64 draws from the shared random stream`
	_ = f
	return rand.Intn(10) // want `global rand\.Intn draws from the shared random stream`
}

// Bad: crypto GenerateKey perturbs how many bytes it reads from the
// source (randutil.MaybeReadByte), so a deterministic reader does not
// give deterministic keys — or deterministic later draws.
func cryptoKeygen(r io.Reader) {
	_, _ = ecdh.X25519().GenerateKey(r)          // want `ecdh\.GenerateKey consumes a scheduler-dependent number of reader bytes`
	_, _ = ecdsa.GenerateKey(elliptic.P256(), r) // want `ecdsa\.GenerateKey consumes a scheduler-dependent number of reader bytes`
}

// Good: keys built from explicitly drawn bytes are pure in the source.
func cryptoKeyFromBytes(seed [32]byte) {
	_, _ = ecdh.X25519().NewPrivateKey(seed[:])
}

// Good: explicitly seeded sources and virtual-time arithmetic.
func seeded(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	d := 3 * time.Second
	_ = d
	return r.Intn(10)
}

// Good: a justified, narrowly suppressed use.
func suppressed() time.Time {
	//lint:allow determinism -- fixture demonstrates suppression
	return time.Now()
}

// Good: suppression on the same line.
func suppressedSameLine() time.Time {
	return time.Now() //lint:allow determinism -- same-line form
}

// Bad: a suppression naming a different analyzer does not apply.
func wrongSuppression() time.Time {
	//lint:allow maporder -- names the wrong analyzer
	return time.Now() // want `time\.Now reads the wall clock`
}

// Bad: storing a tainted callable smuggles the wall clock past every
// call-site check; the summary fact travels from the exempt bench
// subtree to this reference.
var tickHook = twrap.Tick // want `reference to twrap\.Tick smuggles nondeterminism \(wallclock\) past the call-site checks: time\.Now`

// Bad: calling it is a finding too, with the chain.
func callTick() int64 {
	return twrap.Tick() // want `call to twrap\.Tick reads the wall clock \(twrap\.Tick → time\.Now\)`
}
