GO ?= go
FUZZTIME ?= 30s
BENCH_LABEL ?= local
BENCH_SCALE ?= default

.PHONY: build test lint fmt-check verify bench bench-json bench-ab bench-shards-json chaos fuzz-smoke loc clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Project-invariant static analysis: seeded RNG discipline, wall-clock bans in
# deterministic packages, lock discipline, write-path error handling,
# map-order determinism and goroutine lifecycle. Exits non-zero on any
# unsuppressed finding; see DESIGN.md for the rules and the //dcslint:ignore
# escape hatch. LINTFLAGS passes extra dcslint flags through, e.g.
#   make lint LINTFLAGS='-show-suppressed' audit the escape hatches
LINTFLAGS ?=
lint:
	$(GO) run ./cmd/dcslint $(LINTFLAGS) ./...

# Formatting gate: gofmt -l prints the files it would rewrite; any is a
# failure.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l: not formatted:"; echo "$$out"; exit 1; fi

# Full verification tier: gofmt, vet, dcslint, the race-enabled test run, and
# a shuffled-order pass. The transport and center packages spin up real TCP
# servers and concurrent ingest, so the race detector is part of the
# acceptance bar, not an optional extra; the shuffle run enforces that no test
# depends on execution order or leaked global state.
verify: fmt-check
	$(GO) vet ./...
	$(GO) run ./cmd/dcslint ./...
	$(GO) test -race ./...
	$(GO) test -shuffle=on -count=1 ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# Tracked benchmark baseline: run every entry of experiments.All through
# dcsbench and record per-experiment wall time plus the environment (GOMAXPROCS,
# goos/goarch) in BENCH_$(BENCH_LABEL).json. Timing records from different
# environments are not comparable — the environment block is there so nobody
# compares them blindly.
bench-json:
	$(GO) run ./cmd/dcsbench -exp all -scale $(BENCH_SCALE) -json -label $(BENCH_LABEL) > BENCH_$(BENCH_LABEL).json

# The system benchmark is not a dcsbench experiment: `go run ./bench` drives
# the real dcsd end to end on the workloads BENCHMARK.json declares, and
# `go run ./bench -compare parent.json change.json` is the paired A/B
# procedure (bench/README.md). Transport, overload and finalize numbers are
# its per-layer rows; dcsbench has no per-layer system experiments.
#
# bench-ab is that procedure as one command: PARENT=<rev> is exported beside
# the working tree, both sides run seeds 1..PAIRS alternating which goes first,
# and the compare table plus every run's value per row is printed. ~4.5 min a
# pair.
PAIRS ?= 10
bench-ab:
	@test -n "$(PARENT)" || { echo "usage: make bench-ab PARENT=<rev> [PAIRS=10]"; exit 2; }
	scripts/bench-ab.sh $(PARENT) $(PAIRS)

# Shard-tier scaling baseline: per-shard critical path (slowest shard, each
# measured in isolation — the wall time of a one-host-per-shard deployment)
# at 1/2/4 shards over one seeded stream, committed as BENCH_shards.json.
# Every width's merged verdicts are checked against a single un-sharded
# center inside the run, so the committed scaling is scaling of the same
# computation; the span-share column carries the hash-partition bound the
# speedups are read against. This is the one system number dcsbench still
# owns: it stays until `go run ./bench` has a sharded workload to succeed it.
bench-shards-json:
	$(GO) run ./cmd/dcsbench -exp shards -scale $(BENCH_SCALE) -json -label shards > BENCH_shards.json

# Fault-injection tier: the chaos-proxy integration tests (crash recovery
# through a corrupting link, lossy-UDP degraded-never-wrong, quorum under
# partition, eventual delivery and CRC integrity) plus the journal,
# duplicate/eviction corners, and the mid-chaos /metrics scrape (exposition
# must parse and counters stay monotone while ingest churns). The overload
# tier rides here too: budget-forced shedding, journal degraded mode and
# re-arm, segment quarantine, sender-gate quarantine, and the combined
# flood+disk-full+garbage scenario (TestChaosOverloadDegradedNeverWrong),
# with the /healthz degradation surface checked in internal/daemon. All chaos
# schedules are seeded in the tests themselves, so the run is reproducible.
# The streaming tier rides here as well: incremental-vs-batch equivalence
# under dup/late/tombstone churn at several worker counts, the sliding-window
# straddle detection, and the accumulator memory-budget ledger. The shard
# tier's chaos suite joins them: kill-one-shard Degraded-never-wrong, the
# mid-span crash journal replay on a shard journal, and the scatter/gather
# bit-identity contracts. The daemon assembly's own tier closes the list: the
# hand-fed tick policy table, journal retirement under -slide, and the
# kill -9 / replay-before-listen / drain-on-cancel run of the whole dcsd, plus
# the completion path: the hand-fed wake policy table, its equivalence to the
# tick-only policy over seeded fleets, the restart-never-re-reports cases, and
# Handle/Wake/Tick under the race detector. Group commit's contract rides last:
# the power-cut images taken at every report and after every tick, the failed
# barrier's accounting, and the never-closed-dirty segment paths.
chaos:
	$(GO) test -race -run 'Chaos|Crash|Partition|Quorum|Torn|Replay|Eviction|DupKeep|Metrics|Scrape|Degraded|Shed|Gate|Quarantin|ShortWrite|Rollback|Budget|Healthz|Overload|Incremental|Sliding|Shard|Tick|Retire|Drain|TestRun|Wake|Completion|Restart|Roster|PowerCut|Barrier|SyncFault|ClosedDirty' \
		./internal/center/... ./internal/transport/... ./internal/faultinject/... ./internal/journal/... ./internal/shard/... ./internal/daemon/...

# Short fuzz of the crash/byte-level decoders. The first three targets enter
# the one frame decoder (transport.ReadFrame) three ways: as a stream and as a
# buffer, differentially; packed in a UDP datagram; and through the journal's
# recovery scan. The fourth is the trace replay reader, the other decode
# surface. Their seeds carry the hostile lengths the hostile-frame table
# (TestGeometryOverflowRejected, TestReaderRejectsCorrupt) pins; the fuzzers
# look for the ones it does not. Native Go fuzzing only supports one target
# per invocation.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzReadFrame -fuzztime $(FUZZTIME) ./internal/transport
	$(GO) test -run '^$$' -fuzz FuzzReadDatagram -fuzztime $(FUZZTIME) ./internal/transport
	$(GO) test -run '^$$' -fuzz FuzzSegmentScan -fuzztime $(FUZZTIME) ./internal/journal
	$(GO) test -run '^$$' -fuzz FuzzTraceRead -fuzztime $(FUZZTIME) ./internal/traceio

# Lines of Go per package (non-test, test) and the totals outside and inside
# bench/: the numbers ROADMAP's "Size:" line and the CHANGES.md ledgers quote.
loc:
	@scripts/loc.sh

clean:
	$(GO) clean ./...
