// Package keyhelp is the detfix laundering fixture: helpers in an
// exempt subtree (bench is outside determinism's reporting scope)
// that reach nondeterminism sources one or two layers down. Nothing is
// reported HERE — the point is that calls to these helpers from sim
// packages are reported THERE, with the full chain reconstructed from
// facts.
package keyhelp

import (
	"crypto/ecdh"
	"io"
	"time"
)

// MakeKey is the GenerateKey laundering shape: two layers of
// plausible-looking helper between the sim caller and GenerateKey's
// scheduler-dependent byte draw.
func MakeKey(r io.Reader) (*ecdh.PrivateKey, error) {
	return newKey(r)
}

func newKey(r io.Reader) (*ecdh.PrivateKey, error) {
	return ecdh.P256().GenerateKey(r)
}

// Stamp reads the wall clock.
func Stamp() int64 {
	return time.Now().UnixNano()
}

// WaitEither resolves on goroutine completion order: whichever sender
// wins the race decides the result.
func WaitEither(a, b <-chan int) int {
	select {
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}
