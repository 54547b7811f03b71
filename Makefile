GO ?= go

# Perf-regression harness knobs (see DESIGN.md §9). BENCH_OUT is where
# `bench-json` writes the canonical document; CI points it elsewhere so the
# committed trajectory file is never clobbered by a run on foreign
# hardware. BENCHTIME=1x gives a fast smoke recording.
BENCHTIME ?= 2s
BENCH_OUT ?= BENCH_hotpath.json
BENCH_PKGS = . ./internal/simtime ./internal/tcpsim
BENCH_MATCH = ^(BenchmarkTableICloudDevices|BenchmarkTableIIIPoCCases|BenchmarkSimulatedHomeHour|BenchmarkFleetCampaign|BenchmarkOfflineHoldHour|BenchmarkReplayCampaign|BenchmarkTimerChurn|BenchmarkTimerReset|BenchmarkRTORearm)$$

.PHONY: all build vet lint test race verify fuzz bench bench-json bench-check

all: verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs the phantomlint suite (internal/analysis: determinism,
# goroutineguard, maporder, timerguard, traceguard) over the whole module.
# See DESIGN.md §10 for what each analyzer enforces and the //lint:allow
# suppression policy.
lint:
	$(GO) run ./cmd/phantomlint ./...

test:
	$(GO) test ./...

# The packages with real goroutine concurrency: the obs snapshot/merge
# boundary, the fleet sharded worker pool (which drives experiment
# testbeds from concurrent workers), the experiment package's per-device
# pool (tables, verification, replay assessment), and the serve plane,
# whose HTTP handlers read the fleet progress tracker while the
# campaign's collector writes it.
race:
	$(GO) test -race ./internal/obs/ ./internal/fleet/ ./internal/experiment/ ./internal/obs/serve/

# verify is the tier-1 gate. verify.sh is its one definition (gofmt, build,
# vet, lint, test, race), so `make verify` and CI run the same checks.
verify:
	./verify.sh

# fuzz runs every fuzz target for five seconds past its seed corpus, which
# plain `go test` runs alone. It finds the targets with `go test -list`, so
# a new target runs with no list to edit. A crashing input is saved under
# its package's testdata/fuzz, where `go test` then runs it as a seed.
fuzz:
	@set -e; list=$$($(GO) test -list '^Fuzz' ./...); \
	echo "$$list" | awk '/^Fuzz/ { t[++n] = $$1 } /^ok/ { for (i = 1; i <= n; i++) print $$2, t[i]; n = 0 }' | \
	while read pkg target; do \
		echo "== $$pkg $$target"; \
		$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime 5s $$pkg; \
	done

bench:
	$(GO) test -bench=. -benchmem .

# bench-json records the tier-1 hot-path benchmarks as a byte-stable JSON
# document. The committed BENCH_hotpath.json is the perf trajectory;
# bench-check diffs a fresh recording against it. On foreign hardware
# (CI), compare with `-ci`: timing is machine-bound, allocation counts
# are not.
bench-json:
	$(GO) test -run '^$$' -bench '$(BENCH_MATCH)' -benchmem -benchtime $(BENCHTIME) $(BENCH_PKGS) \
		| $(GO) run ./cmd/benchjson -out $(BENCH_OUT)

bench-check:
	$(MAKE) bench-json BENCH_OUT=/tmp/bench-current.json
	$(GO) run ./cmd/benchjson -compare BENCH_hotpath.json -current /tmp/bench-current.json
