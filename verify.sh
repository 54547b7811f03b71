#!/bin/sh
# Tier-1 verification: everything here must pass on every commit.
#
#   gofmt    — every Go file outside perfbench/ (analyzer fixtures
#              included) is gofmt-clean
#   build    — the whole module compiles
#   vet      — static checks
#   lint     — phantomlint (internal/analysis): determinism and zero-tax
#              tracing invariants, machine-checked (DESIGN.md §10)
#   test     — full test suite
#   race     — the packages that spawn goroutines (the obs
#              snapshot/merge boundary, the fleet worker pool, which
#              drives experiment testbeds from concurrent workers, and
#              the experiment package's per-device pool for the tables,
#              verification and replay assessment) and the serve plane,
#              whose HTTP handlers read the fleet progress tracker while
#              the collector writes it, under the race detector
set -eu
cd "$(dirname "$0")"

echo "== gofmt"
unformatted=$(gofmt -l *.go cmd examples internal)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:"
	echo "$unformatted"
	exit 1
fi
echo "== go build"
go build ./...
echo "== go vet"
go vet ./...
echo "== phantomlint"
go run ./cmd/phantomlint ./...
echo "== go test"
go test ./...
echo "== go test -race (concurrency boundary)"
go test -race ./internal/obs/ ./internal/fleet/ ./internal/experiment/ ./internal/obs/serve/
echo "verify: OK"
