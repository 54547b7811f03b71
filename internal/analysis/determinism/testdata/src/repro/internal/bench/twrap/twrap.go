// Package twrap wraps the wall clock behind a clean-looking signature —
// the simfix fixture's laundering helper. It lives in the exempt
// bench subtree so nothing is reported here; the taint summary computed
// for Tick is what lets simfix flag references to it.
package twrap

import "time"

// Tick reads the wall clock.
func Tick() int64 {
	return time.Now().UnixNano()
}
