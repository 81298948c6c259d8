# Tier-1 verification and developer loops. `make ci` is the gate the GitHub
# workflow runs (one source of truth — .github/workflows/ci.yml only calls
# make targets): gofmt + vet + build + race-enabled tests + a short fuzz
# smoke over every target. `make bench-gate` is the benchmark-regression
# gate against the committed BENCH_baseline.json.

GO ?= go
FUZZTIME ?= 10s
BENCHDIR ?= .bench
# Benchmarks the regression gate watches: the sweep engine pair, the online
# identification engine's observe/snapshot pairs, the serving hot path, the
# trace-codec decode pair and encoder, and the cold path before the first
# answer (generate, order jobs, merge requests — gated on B/op and allocs/op
# only), and batch identification, the step after it.
# The Large sweep variants are excluded by the $$ anchors.
BENCHPAT ?= SweepEngine$$|SweepSequential$$|CacheReplay|Server|Observe|Snapshot|DecodeText$$|DecodeBin$$|EncodeBin$$|DecodeMmap$$|DecodeKV$$|BinIterate$$|ServeTCP|GenerateWorkload$$|RequestStream$$|SortJobsByStart$$|IdentifyBatch$$
BENCH_TOLERANCE ?= 0.15
# Pinned linter versions, run via `go run` so go.mod stays dependency-free.
STATICCHECK ?= honnef.co/go/tools/cmd/staticcheck@2025.1.1
GOVULNCHECK ?= golang.org/x/vuln/cmd/govulncheck@v1.1.4

.PHONY: all build fmt-check vet test race cpu-matrix lint fuzz-smoke kill-recover chaos doc-slow bench \
	selftest sweep-smoke ci bench-json bench-gate bench-baseline e2e e2e-repeat

all: ci

build:
	$(GO) build ./...

# gofmt has no check mode: -l lists unformatted files, so fail if any.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# ReadFile's decode queue and IdentifyJobs' page-owning workers size
# themselves from GOMAXPROCS, Generate builds its file catalog on a
# goroutine beside the job draws, and a default sweep's workers (one per P)
# take grid cells in whatever order the scheduler runs them; no output may
# depend on the scheduler: the trace codec and order tests, every generator
# test (goldens included), batch identification (held to its reference at
# every worker count) and Combine, and the streamed, worker- and
# batch-invariance sweep tests at one, two and four Ps, whatever the
# runner's core count.
cpu-matrix:
	$(GO) test -cpu 1,2,4 ./internal/trace
	$(GO) test -cpu 1,2,4 ./internal/synth
	$(GO) test -cpu 1,2,4 -run 'Identify|Combine' ./internal/core
	$(GO) test -cpu 1,2,4 -run 'SweepSource|SweepWorker|SweepRelabel' ./internal/sim

# Static analysis beyond vet plus known-vulnerability scanning. Run via
# `go run pkg@version` (needs network on first use; the module cache keeps
# later runs offline) so neither tool becomes a go.mod dependency. Not part
# of `ci` so the default gate stays runnable on an air-gapped machine — the
# GitHub lint job calls this target explicitly.
lint:
	$(GO) run $(STATICCHECK) ./...
	$(GO) run $(GOVULNCHECK) ./...

# One short fuzz run per target (Go allows one -fuzz pattern per package
# invocation). Seeds alone run in `test`; this explores beyond them.
# TestFuzzSmokeListsEveryTarget fails when a Fuzz function is missing here.
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzRead -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run=^$$ -fuzz=FuzzTraceCodec -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run=^$$ -fuzz=FuzzBinRoundTrip -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run=^$$ -fuzz=FuzzMmapDecode -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run=^$$ -fuzz=FuzzRequestOrder -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run=^$$ -fuzz=FuzzEnginePrefix -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run=^$$ -fuzz=FuzzIdentify -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run=^$$ -fuzz=FuzzServerHandlers -fuzztime=$(FUZZTIME) ./internal/server
	$(GO) test -run=^$$ -fuzz=FuzzAdviseConsistency -fuzztime=$(FUZZTIME) ./internal/server
	$(GO) test -run=^$$ -fuzz=FuzzAdviseMatchesSim -fuzztime=$(FUZZTIME) ./internal/cache
	$(GO) test -run=^$$ -fuzz=FuzzCheckpoint -fuzztime=$(FUZZTIME) ./internal/durable
	$(GO) test -run=^$$ -fuzz=FuzzWAL -fuzztime=$(FUZZTIME) ./internal/durable
	$(GO) test -run=^$$ -fuzz=FuzzSiteSplit -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run=^$$ -fuzz=FuzzFedExchange -fuzztime=$(FUZZTIME) ./internal/fed
	$(GO) test -run=^$$ -fuzz=FuzzWireProto -fuzztime=$(FUZZTIME) ./internal/wire
	$(GO) test -run=^$$ -fuzz=FuzzKVTrace -fuzztime=$(FUZZTIME) ./internal/workload
	$(GO) test -run=^$$ -fuzz=FuzzZipfRank -fuzztime=$(FUZZTIME) ./internal/dist

# Crash-safety differentials: SIGKILL a race-built filecule-serve at
# randomized points and verify recovery never loses an acknowledged observe
# and always converges to the batch-identification partition — standalone
# (killrecover_test.go) and as a federated pair that must reconverge after
# a site rejoins (fedkillrecover_test.go). Behind the slow build tag.
kill-recover:
	$(GO) test -race -tags slow -run 'TestKillAndRecover|TestFedKillAndRecover' .

# Federation fault-injection differential: the seeded drop/delay/duplicate/
# corrupt/partition matrix (internal/fed/chaos_slow_test.go) must still
# converge every site to the byte-identical single-node partition, under
# the race detector.
chaos:
	$(GO) test -race -tags slow -run TestChaosMatrix ./internal/fed

# EXPERIMENTS.md's rendered blocks above scale 0.05 — Figure 10 at the
# paper's scale over five seeds, about 1 GB of memory — rerun byte for byte;
# the plain test run checks the rest (docdrift_test.go).
doc-slow:
	$(GO) test -tags slow -run TestExperimentsRenderSlow -timeout 30m .

bench:
	$(GO) test -run=^$$ -bench=. -benchmem .

# Assemble the machine-readable benchmark report (BENCH_sweep.json, generated
# and gitignored; CI uploads it): gated
# benchmarks plus the full-grid sweep at bench scale, whose miss rates are
# exact and machine-independent.
bench-json:
	mkdir -p $(BENCHDIR)
	$(GO) test -run=^$$ -bench='$(BENCHPAT)' -benchmem . | tee $(BENCHDIR)/bench.txt
	$(GO) run ./cmd/filecule-cachesim -sweep -workload dzero,seed=1,scale=0.02 -o $(BENCHDIR)/sweep.json
	$(GO) run ./cmd/filecule-benchgate -bench $(BENCHDIR)/bench.txt \
		-sweep $(BENCHDIR)/sweep.json -o BENCH_sweep.json
	@echo "bench-json: wrote BENCH_sweep.json"

# Gate the fresh report against the committed baseline (the tables in
# cmd/filecule-benchgate). It fails on:
#   - ns/op or B/op more than BENCH_TOLERANCE (15%) over the baseline. The
#     ServeTCP pair and DecodeMmap are exempt on ns/op (host noise); the
#     cold path (GenerateWorkload, RequestStream, SortJobsByStart,
#     SnapshotAfterRerequest) is held on allocs/op instead of ns/op;
#   - a baseline benchmark missing from the report;
#   - within one run: SweepEngine under 3x SweepSequential, DecodeBin under
#     2x DecodeText, DecodeMmap under 0.9x DecodeBin (measured 1.5-1.9x on a
#     2-vCPU host, one decode worker on one core), ServeTCPWire under 3x
#     ServeTCPJSON, ObserveWAL over 10x ObserveEngine;
#   - absolute bounds: ObserveEngine over 700 ns/op or allocating at all,
#     ServeTCPWire under 30 000 req/s or over 25 ms p99, BinIterate or
#     DecodeKV over 1 allocs/op;
#   - a sweep over another workload, a missing sweep cell, or any change in
#     a cell's miss counters.
bench-gate: bench-json
	$(GO) run ./cmd/filecule-benchgate -report BENCH_sweep.json \
		-baseline BENCH_baseline.json -tolerance $(BENCH_TOLERANCE)

# Refresh the committed baseline after a deliberate performance change.
bench-baseline: bench-json
	$(GO) run ./cmd/filecule-benchgate -report BENCH_sweep.json \
		-baseline BENCH_baseline.json -update

# Closed-loop verification of the serving layer: replay a synthetic trace
# from concurrent clients and cross-check the partition byte-for-byte, then
# again in the production ingest configuration (wire listener, state
# directory, a checkpoint and a restart halfway).
selftest:
	$(GO) run ./cmd/filecule-serve -selftest
	rm -rf $(BENCHDIR)/selftest-state
	$(GO) run ./cmd/filecule-serve -selftest -state-dir $(BENCHDIR)/selftest-state -wire-addr 127.0.0.1:0 -batch 8

# Cross-workload sweep smoke: the Figure-10 cache sweep must run green on
# every adapter the registry serves (DZero, XRootD-style, shaped DZero, and
# a generated KV-cache CSV), pinning the "no tool constructs a source
# outside the registry" refactor end to end. The plain cachesim run and the
# ablation (whose gdsf and lfuda cells are off the default grid) take the
# engine's other two entry points.
sweep-smoke:
	mkdir -p $(BENCHDIR)
	$(GO) run ./cmd/filecule-cachesim -sweep -workload dzero,seed=1,scale=0.002
	$(GO) run ./cmd/filecule-cachesim -workload dzero,seed=1,scale=0.002
	$(GO) run ./cmd/filecule-repro -exp ablation -workload dzero,seed=1,scale=0.002
	$(GO) run ./cmd/filecule-cachesim -sweep -workload xrootd,seed=1,scale=0.002
	$(GO) run ./cmd/filecule-cachesim -sweep -workload "dzero,seed=1,scale=0.002,shape=burst,rps-start=5,rps-target=50,slot=30s"
	$(GO) run ./cmd/filecule-gen -kv-csv 5000 -kv-keys 400 -kv-seed 1 -o $(BENCHDIR)/smoke-kv.csv
	$(GO) run ./cmd/filecule-cachesim -sweep -workload "kv-csv,path=$(BENCHDIR)/smoke-kv.csv,window=16"

# The end-to-end ledger (BENCHMARK.json, bench/README.md): one run of one
# workload printing its bounded metrics (`make e2e W=serve-mixed`; add
# `E2EFLAGS="-trace 1"` for the per-layer metrics), or K runs of every
# workload with each metric's spread beside its bound. Everything they write
# stays under .bench_build/.
W ?= ingest-durable
K ?= 10
e2e:
	bash bench/run.sh -workload $(W) $(E2EFLAGS)

e2e-repeat:
	bash bench/repeat.sh $(K) $(E2EFLAGS)

ci: fmt-check vet build race cpu-matrix fuzz-smoke sweep-smoke kill-recover chaos
	@echo "ci: all green"
