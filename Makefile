# Development targets. `make tier1` is the pre-PR check: it must pass
# before any change lands (see README.md "Testing").

GO ?= go

## BENCH_ENV is bench/run.sh's build environment: local toolchain, no
## module downloads, and the Go cache under .bench_build/.
BENCH_ENV = GOCACHE=$(CURDIR)/.bench_build/go-cache GOPATH=$(CURDIR)/.bench_build/gopath \
	XDG_CONFIG_HOME=$(CURDIR)/.bench_build/config GOTOOLCHAIN=local GOPROXY=off GOWORK=off

.PHONY: tier1 fmt vet build test race bench-test benchsmoke bench bench-record layers allocguard benchguard effectiveness-smoke cpi-smoke pagemap-smoke sample-smoke invariants chaos-smoke chaos fuzz-validate trace-demo loc

## tier1: the full pre-PR gate — gofmt, vet, build, race-enabled tests, a
## one-shot figure-campaign smoke bench, the alloc-budget guards, the
## bench/ regression gate against BENCH_bench.json, the swap-provenance
## effectiveness smoke, the cycle-attribution smoke, the address-space
## telemetry smoke, the sampled-execution accuracy/speedup gate, the
## invariant-audit gate, and a fault-injection smoke run.
tier1: fmt vet build race bench-test benchsmoke allocguard benchguard effectiveness-smoke cpi-smoke pagemap-smoke sample-smoke invariants chaos-smoke

## fmt: fail if any tracked Go file is not gofmt-formatted.
fmt:
	test -z "$$(gofmt -l $$(git ls-files '*.go'))"

## vet: go vet over the root module and over bench/, a separate module
## the root `go vet ./...` does not reach (vetted with BENCH_ENV).
vet:
	$(GO) vet ./...
	cd bench && $(BENCH_ENV) $(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## bench-test: the benchmark module's own tests (bench/ is a separate Go
## module, so `go test ./...` at the root does not reach it), built with
## BENCH_ENV.
bench-test:
	cd bench && $(BENCH_ENV) $(GO) test ./...

## benchsmoke: one iteration of the headline figure bench — catches
## campaign-path regressions without the cost of a full bench sweep.
benchsmoke:
	$(GO) test -run '^$$' -bench BenchmarkFigure14 -benchtime 1x .

## bench: the full figure + ablation bench sweep (slow).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

## bench-record: regenerate BENCH_bench.json, the committed end-to-end
## record benchguard compares against: an untraced bench/ run of every
## workload with the default 30 s window. The stamp records the host's
## nproc, GOMAXPROCS, Go version and commit.
bench-record:
	bash bench/run.sh --trace 0 --out BENCH_bench.json

## layers: regenerate BENCH_layers.txt, the committed layer record — every
## Benchmark* of the internal packages that hold them, five counts each, in
## plain `go test` output (benchstat reads it) under a header line with the
## host's nproc and Go version.
layers:
	{ echo "# host: $$(nproc) CPU(s); $$($(GO) version)"; \
		$(GO) test -run '^$$' -bench . -benchmem -count 5 ./internal/engine ./internal/memsim \
			./internal/cache ./internal/mmu ./internal/mem ./internal/hmc ./internal/core \
			./internal/pom ./internal/mempod ./internal/sim; } > BENCH_layers.txt

## allocguard: testing.AllocsPerRun proofs that (a) a run with no observer
## attached fires its swap-lifecycle event stream, and a simulator without
## a pagemap its per-page events, without allocating, and the latency
## histograms record without allocating even when on, (b) a disabled
## swap-provenance ledger is free on every hook, (c) the full demand
## path stays under its allocs-per-retired-instruction budget in steady
## state, and (d) the engine's timing wheel, memsim scheduling, PageSeer's
## correlator, Hot Page Tables and PTE-line cache, the cache miss/fill
## path, the metadata caches (pending-fetch merges included), swap-engine
## interception and swap cycles (one pooled engine record per running
## swap, its lines included), the shared open-addressed table, the shared
## in-flight fetch file (mem.Fetches, merges included) that the MSHRs,
## metadata caches and PTE-line cache use, MemPod's MEA sketch, the
## exchange core (a declined exchange, and committed pair,
## optimized-slow and restore exchanges at the page unit), a remap-table
## commit, a page walk of a mapped page and a workload name's mix-lookup
## miss allocate nothing in steady state, and (e) TestZeroAllocBuildBudget
## holds one sim.Build of GemsFDTD under its per-scheme allocation ceiling.
## Run without -race (race instrumentation allocates and would false-fail).
allocguard:
	$(GO) test -run TestZeroAlloc -count=1 ./internal/obs ./internal/obs/ledger ./internal/obs/attrib ./internal/obs/pagemap ./internal/sim ./internal/engine ./internal/memsim ./internal/core ./internal/cache ./internal/hmc ./internal/mem ./internal/mempod ./internal/workload

## benchguard: a 10 s untraced bench/ run of every workload on this tree
## (it exits 1 if any run fails), then `bench --compare` against the
## committed BENCH_bench.json, which exits 1 on any REGRESSION verdict:
## wall_s or run_mips_geomean worse by more than 24%, setup_s by more than
## 25% or peak_rss_mb by more than 20% (the end-to-end bounds in
## BENCHMARK.json). The record's 30 s window against this 10 s one makes
## --compare print a settings warning; the verdicts still apply.
benchguard:
	bash bench/run.sh --trace 0 --seconds 10 --out .bench_build/head.json
	bash bench/run.sh --compare BENCH_bench.json .bench_build/head.json

## effectiveness-smoke: run one PageSeer quick workload with the
## swap-provenance ledger armed and assert the acceptance bar: all three
## hardware trigger classes fire, accuracy/coverage stay in [0,1], and
## the conservation audit (useful + unused + open == started) holds.
effectiveness-smoke:
	$(GO) test -run TestEffectivenessSmoke -count=1 ./internal/sim

## cpi-smoke: run one PageSeer quick workload with cycle attribution armed
## and assert the acceptance bar: every trigger class the ledger
## distinguishes retires requests, at least 8 blame components carry
## cycles, no cycles retire unattributed, per-scheme blame conservation
## (component cycles == end-to-end latency, all five schemes), the
## mutation audit catches a mis-stamped stage, and an attribution-off run
## stays byte-identical.
cpi-smoke:
	$(GO) test -run 'TestCPISmoke|TestCPIConservation|TestCPIMutationFailsAudit' -count=1 ./internal/sim

## pagemap-smoke: run the quick GemsFDTD workload with the address-space
## telemetry table armed and assert the acceptance bar: demand heat in all
## four service sources, a coherent hot-set profile, swap churn and NVM
## wear recorded, flap detection firing on the scheme that thrashes (PoM),
## per-scheme conservation audits green (trigger mix, read/write law,
## residency ground truth — all five schemes), the mutation audit catching
## a phantom hook, the sampled-mode functional feed, and a pagemap-off run
## staying byte-identical.
pagemap-smoke:
	$(GO) test -run 'TestPageMapSmoke|TestPageMapFlapDetection|TestPageMapConservation|TestPageMapMutationFailsAudit|TestPageMapSampled' -count=1 ./internal/sim

## sample-smoke: the sampled-execution acceptance gate — on the quick
## GemsFDTD run the committed geometry (16 windows of 1000 instructions,
## 1000-instruction warm-ups) must reproduce the detailed reference's IPC
## within 2% and swap count within 5%, hold every conservation audit
## inside the windows, and (with the env var set, which this target does)
## finish at least 5x faster wall-clock. Run without -race: the speedup
## bar is a timing assertion.
sample-smoke:
	PAGESEER_SAMPLE_SPEEDUP=1 $(GO) test -run TestSampleSmoke -count=1 ./internal/sim

## invariants: the quick campaign's workloads with end-of-run audits and
## the liveness watchdog armed, asserting Results stay byte-identical to
## audits-off (the audit observes, never perturbs).
invariants:
	PAGESEER_INVARIANTS_FULL=1 $(GO) test -run TestAuditPassesAndMatchesBaseline -count=1 ./internal/sim

## chaos-smoke: one deterministic fault-injection run with audits on —
## the cheap always-on slice of the chaos matrix.
chaos-smoke:
	$(GO) test -run 'TestChaosSmoke|TestChaosDeterministic' -count=1 ./internal/sim

## chaos: the full fault matrix (every injectable fault x scheme x seed,
## audits on) under the race detector.
chaos:
	PAGESEER_CHAOS=1 $(GO) test -race -run 'TestChaosMatrix|TestChaosSmoke' -count=1 ./internal/sim

## fuzz-validate: fuzz Config.Validate — it must never panic and never
## disagree with Build.
fuzz-validate:
	$(GO) test -run '^$$' -fuzz FuzzConfigValidate -fuzztime 20s ./internal/sim

## loc: the non-test and test Go line counts of the tracked files outside
## bench/ (the benchmark's own module), the figures a simplification
## reports before and after.
loc:
	@echo "non-test: $$(git ls-files '*.go' ':!bench/' ':!*_test.go' | xargs cat | wc -l)"
	@echo "test:     $$(git ls-files '*_test.go' ':!bench/' | xargs cat | wc -l)"

## trace-demo: produce a sample Perfetto trace + epoch timeline from a
## quick run (open trace-demo.json at https://ui.perfetto.dev).
trace-demo:
	$(GO) run ./cmd/pageseer-sim -workload lbm -scheme pageseer \
		-trace trace-demo.json -timeline timeline-demo.csv
