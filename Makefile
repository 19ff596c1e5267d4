# RangeAmp reproduction — build/test/bench entry points.

GO ?= go

.PHONY: all build vet test race bench check fuzz experiments campaign-smoke live-smoke vtime-smoke clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Full pre-merge gate: vet, build, tests, and a race pass over the
# scheduler-heavy packages, the daemons that share the process-wide
# metrics registry and tracer, the pooled wire-path substrate
# (buffer pools, recycled upstream bodies and shared resource views
# are cross-goroutine state), the vendor behaviours that fetch through
# it, the keep-alive engine (upstream conn pool + sharded cache), and
# the live telemetry plane (sampler + SSE subscribers + campaign
# workers). bench/ is its own module, so the root packages' tests
# cannot see an API change break it; it is vetted and tested here.
check:
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test ./...
	$(GO) test -race ./internal/exp ./internal/core ./internal/cluster ./internal/metrics ./internal/trace ./internal/multipart ./internal/httpwire ./internal/netsim ./internal/resource ./internal/cdn ./internal/cache ./internal/origin ./internal/vendor ./internal/obs ./internal/campaign ./internal/transport ./internal/vtime ./cmd/origind ./cmd/cdnsim ./cmd/attack ./cmd/rangeamp
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# Regenerates the paper's headline numbers as custom bench metrics,
# snapshots the full suite into BENCH_PR10.json (schema in DESIGN.md),
# prints the per-benchmark delta against the previous PR's snapshot
# (now including allocs/op columns), gates on the parallel-scheduler
# speedup (skipped automatically on runners with fewer than 8 procs,
# where it cannot manifest), and pins the allocation-free event core:
# the 1M-client vtime flood must stay within 100k allocs/op and the
# full experiment sweep within 1M (it sat at 3.8M before the typed
# event records landed).
bench:
	$(GO) test -bench=. -benchmem -count=1 ./... | $(GO) run ./cmd/benchjson -out BENCH_PR10.json -compare BENCH_PR9.json -ratio 'BenchmarkExpAll/parallel=8,BenchmarkExpAll/parallel=1,0.67' -allocs 'BenchmarkFloodVTime1M,100000;BenchmarkExpAll/parallel=1,1000000'

# The virtual-time engine's tentpole contract: a million-client and a
# ten-million-client keep-alive flood on the discrete-event engine each
# finish under 60s of wall time and a seed-repeated run is
# byte-identical (both tests rerun themselves and compare every
# quantity). The 10M tier opts in via RANGEAMP_VTIME_10M so plain
# `go test ./...` stays light.
vtime-smoke:
	$(GO) test -run TestVTimeFloodMillion -count=1 -v ./internal/core
	RANGEAMP_VTIME_10M=1 $(GO) test -run TestVTimeFlood10M -count=1 -v -timeout 10m ./internal/core

# Short fuzzing pass over the three wire parsers.
fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/ranges/
	$(GO) test -fuzz=FuzzReadRequest -fuzztime=30s ./internal/httpwire/
	$(GO) test -fuzz=FuzzDecode -fuzztime=30s ./internal/multipart/
	$(GO) test -fuzz=FuzzDecodeHeaderBlock -fuzztime=30s ./internal/h2/

# Every experiment, printed as text tables and figure series.
experiments:
	$(GO) run ./cmd/rangeamp -exp all

# The campaign runner's end-to-end contract on a tiny 8-cell sweep:
# run it, resume it (must execute zero cells), and diff it against a
# copy of itself (must report no regressions).
campaign-smoke:
	rm -rf /tmp/rangeamp-campaign-smoke
	mkdir -p /tmp/rangeamp-campaign-smoke
	$(GO) run ./cmd/rangeamp campaign -spec examples/campaign/smoke.json -out /tmp/rangeamp-campaign-smoke/run -parallel 4 | tee /tmp/rangeamp-campaign-smoke/first.log
	grep -q '8 executed, 0 skipped' /tmp/rangeamp-campaign-smoke/first.log
	$(GO) run ./cmd/rangeamp campaign -spec examples/campaign/smoke.json -out /tmp/rangeamp-campaign-smoke/run -resume | tee /tmp/rangeamp-campaign-smoke/resume.log
	grep -q '0 executed, 8 skipped' /tmp/rangeamp-campaign-smoke/resume.log
	cp -r /tmp/rangeamp-campaign-smoke/run /tmp/rangeamp-campaign-smoke/baseline
	$(GO) run ./cmd/rangeamp campaign -out /tmp/rangeamp-campaign-smoke/run -diff /tmp/rangeamp-campaign-smoke/baseline | grep 'no regressions'

# End-to-end check of the live telemetry plane over real TCP: origind +
# cdnsim + a keep-alive flood, an SSE capture of /debug/live asserting
# distinct frames with nonzero victim-segment byte rates, then a
# connection-drain check on the netsim live-conn gauge.
live-smoke:
	bash scripts/live_smoke.sh

clean:
	$(GO) clean ./...
