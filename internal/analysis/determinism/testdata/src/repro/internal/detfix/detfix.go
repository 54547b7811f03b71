// Package detfix is the laundering fixture proper: sim-scoped code calling
// the keyhelp launderers. Every tainted call site is flagged with its
// reconstructed chain; the bridge and allow escapes each appear once,
// with their callers proving the sanitizer semantics (a justified
// exception covers transitive callers instead of cascading).
package detfix

import (
	"io"

	"repro/internal/bench/keyhelp"
)

func deviceKey(r io.Reader) error {
	_, err := keyhelp.MakeKey(r) // want `call to keyhelp\.MakeKey consumes a scheduler-dependent number of reader bytes \(keyhelp\.MakeKey → keyhelp\.newKey → ecdh\.GenerateKey\)`
	return err
}

func stampNow() int64 {
	return keyhelp.Stamp() // want `call to keyhelp\.Stamp reads the wall clock \(keyhelp\.Stamp → time\.Now\)`
}

// bootStamp's initializer runs at package init, outside every function
// body, and is policed like one.
var bootStamp = keyhelp.Stamp() // want `call to keyhelp\.Stamp reads the wall clock \(keyhelp\.Stamp → time\.Now\)`

func waitFirst(a, b <-chan int) int {
	return keyhelp.WaitEither(a, b) // want `call to keyhelp\.WaitEither resolves on goroutine completion order \(keyhelp\.WaitEither → multi-case select\)`
}

// localKey launders once more inside the sim tree; determinism flags both
// the inner call and, below, the wrapper's own caller — taint propagates
// through unsanctioned intermediate hops.
func localKey(r io.Reader) error {
	_, err := keyhelp.MakeKey(r) // want `call to keyhelp\.MakeKey consumes a scheduler-dependent number of reader bytes`
	return err
}

func useLocal(r io.Reader) error {
	return localKey(r) // want `call to detfix\.localKey consumes a scheduler-dependent number of reader bytes \(detfix\.localKey → keyhelp\.MakeKey → keyhelp\.newKey → ecdh\.GenerateKey\)`
}

// syncToWall is the sanctioned sim/wall-time seam: a bridge function
// exports no taint and its body is not policed.
//
//lint:bridge determinism -- calibration seam: pairs sim ticks with wall time by charter
func syncToWall() int64 {
	return keyhelp.Stamp()
}

func afterBridge() int64 {
	return syncToWall() // clean: the bridge contains its taint
}

// sealedKey documents a justified exception; the allow suppresses the
// finding AND sanitizes sealedKey's summary, so afterAllowed stays
// clean.
func sealedKey(r io.Reader) error {
	_, err := keyhelp.MakeKey(r) //lint:allow determinism -- one-time provisioning key, outside the reproducible window
	return err
}

func afterAllowed(r io.Reader) error {
	return sealedKey(r) // clean: the justification covers callers
}
