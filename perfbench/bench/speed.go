package main

import (
	"crypto/ecdh"
	"crypto/sha256"
	"sync"
	"time"
)

// The benchmark's machine shares its host, and its speed drifts: on the
// 2-vCPU VM the benchmark was sized on, the same rep took anywhere from
// 1.0 to 1.8 s within a few minutes, and its CPU time moved with it. A run
// therefore brackets every workload process with a fixed reference job,
// the benchmark's own code that no change to the program under test can
// move, and reports its time figures at the machine's nominal speed: the
// process's timed phase, CPU time and set-up time are divided by its
// slowdown: the mean time of the reference jobs on either side of it over
// referenceNominalS, raised to speedElasticity.

// referenceNominalS is the reference job's wall time on the sized machine
// at its usual speed, so that a slowdown of 1 reads as that machine.
const referenceNominalS = 0.08

// speedElasticity is the share of the reference job's slowdown that the
// correction applies. The reference's time is a noisy reading of the
// machine's speed, and the workloads follow it less than fully, so the
// least-noisy correction is partial. Over 40 runs of the three workloads
// at seeds 1-10, the quartile spread of the runs' median units_per_s was,
// averaged over the five sets, 0.122 uncorrected, 0.079 corrected in full
// and 0.065 at 0.75, the best of the exponents tried.
const speedElasticity = 0.75

// referenceIters is the reference job's size: each of its workers
// goroutines does this many key agreements, hashes and small-allocation
// rounds, the mix a fleet home spends most of its CPU on.
const referenceIters = 200

// referenceSink keeps each reference goroutine's result.
var referenceSink [workers]int

// reference runs the reference job and returns its wall time in seconds.
func reference() float64 {
	start := time.Now()
	var wg sync.WaitGroup
	for g := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			referenceSink[g] = referenceWork(byte(g))
		}()
	}
	wg.Wait()
	return time.Since(start).Seconds()
}

// referenceWork is one goroutine of the reference job. It returns a value
// derived from all of its work, so that none of it can be optimised away.
func referenceWork(seed byte) int {
	key := make([]byte, 32)
	key[0] = seed
	curve := ecdh.X25519()
	live := make(map[int][]byte)
	sum := 0
	for i := 0; i < referenceIters; i++ {
		key[1] = byte(i)
		priv, err := curve.NewPrivateKey(key)
		if err != nil {
			panic(err) // every 32-byte string is an X25519 key
		}
		h := sha256.Sum256(priv.PublicKey().Bytes())
		for j := 0; j < 2000; j++ {
			buf := make([]byte, 64+j%64)
			buf[0] = h[j%len(h)]
			live[(i*2000+j)%4096] = buf
			sum += int(buf[0])
		}
	}
	return sum + len(live)
}
