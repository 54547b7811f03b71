#!/bin/sh
# Builds phantomlab and the benchmark's own binaries from this checkout's
# source, then runs the benchmark with the given arguments:
#
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Builds, caches and run files stay under
# .bench_build/ in the checkout.
set -eu
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
# The go command's cache, module path, temp files and per-user config
# (go env, telemetry) all stay inside the checkout. The bench inherits
# them: traced runs read CPU profiles with `go tool pprof`.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
go build -o "$out/phantomlab" ./cmd/phantomlab
cd perfbench
go build -o "$out/bench" ./bench
go build -o "$out/worker" ./worker
# The probe calls deep exported APIs; if it no longer builds, only traced
# fleet runs fail.
if ! go build -o "$out/probe" ./probe; then
	rm -f "$out/probe"
	echo "run.sh: the probe does not build; traced fleet runs will fail" >&2
fi
cd "$root"
exec "$out/bench" -bin "$out" "$@"
