// Package main exercises the determinism import scope: cmd/* binaries own
// the wall-clock side and may import networking and the serve plane.
package main

import (
	"net/http"

	_ "repro/internal/obs/serve"
)

func main() {
	_ = http.DefaultServeMux
}
