// Package main exercises the determinism allowlist: cmd/* binaries
// may read real time (progress meters, ETAs) without findings.
package main

import "time"

func main() {
	start := time.Now()
	time.Sleep(time.Millisecond)
	_ = time.Since(start)
}
