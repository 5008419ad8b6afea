GO ?= go

.PHONY: build test loc race fuzz bench bench-kernels bench-smoke bench-check bench-baseline bench-e2e bench-e2e-test bench-golden dist-smoke serve-smoke fault-smoke tune-smoke chaos-smoke lint vet fmt check examples

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Size of the product: non-test Go and assembly lines outside benchmark/
# (ROADMAP aim 2 wants this number going down), then the internal/sem
# share of it in Go and in assembly. Informational — printed by CI,
# gated by nothing.
loc:
	@find . -path ./benchmark -prune -o -type f \( -name '*.go' -o -name '*.s' \) ! -name '*_test.go' -print0 \
		| xargs -0 cat | wc -l | xargs echo "loc: non-test Go+asm lines outside benchmark/:"
	@find internal/sem -name '*.go' ! -name '*_test.go' -print0 \
		| xargs -0 cat | wc -l | xargs echo "loc: internal/sem non-test .go lines:"
	@find internal/sem -name '*.s' -print0 \
		| xargs -0 cat | wc -l | xargs echo "loc: internal/sem assembly .s lines:"

# Race-detector job over the engines with internal concurrency: the
# shared-memory engine, the LTS scheme that drives it, the distributed
# backend (whose coordinator multiplexes rank connections on goroutines
# and whose ranks run reader goroutines per peer) and decomp.Memo, the
# single-flight cache the service's concurrent jobs share; the service
# itself, and the facade's artifact-cache tests, where concurrent jobs
# place points on and step one shared cached operator; -short
# shrinks the equivalence matrices to their corners so this stays
# CI-friendly. The owner-computes pins of internal/dist (owner_test.go:
# poisoned runs, set invariants, the halo buffers' hand-off between reader
# and stepper) and the poisoned reconfiguration ladder skip nothing under
# -short. The engine's SPMD cycle tests (up to 8 workers) run a second
# time on one CPU, where a barrier that only spun would never let the
# workers it waits for run.
race:
	$(GO) test -race -short ./internal/parallel ./internal/lts ./internal/dist ./internal/decomp ./internal/serve
	GOMAXPROCS=1 $(GO) test -race -short -run 'Team|Close|StressInterleaved|Determinism' ./internal/parallel
	$(GO) test -race -short -run 'ArtifactCache' ./wave

# Short native-fuzz leg over the untrusted decoders (three of
# internal/dist — the state frame of the snapshot files, the peer-link
# halo frame and the cycle-done frame — the checkpoint container of
# internal/ckpt, the service's POST /jobs body and the run configuration
# of internal/simio, one after the other: go test takes one -fuzz target
# per run); the committed corpora under testdata/fuzz run as ordinary
# tests in `make test` already.
FUZZTIME ?= 20s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzStateFrame -fuzztime $(FUZZTIME) ./internal/dist
	$(GO) test -run '^$$' -fuzz FuzzHaloFrame -fuzztime $(FUZZTIME) ./internal/dist
	$(GO) test -run '^$$' -fuzz FuzzCycleDone -fuzztime $(FUZZTIME) ./internal/dist
	$(GO) test -run '^$$' -fuzz FuzzDecode -fuzztime $(FUZZTIME) ./internal/ckpt
	$(GO) test -run '^$$' -fuzz FuzzJobRequest -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzParseConfig -fuzztime $(FUZZTIME) ./internal/simio

# The end-to-end benchmark lives in its own nested module (benchmark/,
# see BENCHMARK.json), which `go test ./...` does not reach:
# bench-e2e-test vets and tests the harness itself (~10 s), bench-e2e
# runs every workload once at reduced length with the correctness gate.
bench-e2e-test:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

bench-e2e:
	bash benchmark/run.sh -quick

# The committed trench-mesh goldens (benchmark/golden.json, pinned for
# seed 1 at full size, which -quick skips): every workload once, untraced,
# 3 s each. With --workload the harness exits 1 on a failed check.
BENCH_WORKLOADS = seq-lts-acoustic seq-global-elastic shm2-lts-elastic dist2-lts-elastic serve-warm serve-cold
bench-golden:
	@for w in $(BENCH_WORKLOADS); do \
		bash benchmark/run.sh --workload $$w --seed 1 --seconds 3 --trace 0 || exit 1; \
	done

# Quick-config benchmarks, including BenchmarkParallelSpeedup, plus the
# kernel trajectory file: BENCH_kernels.json records ns/elem and allocs/op
# of every operator's batched stiffness kernel so perf regressions are
# visible across PRs (compare against the committed copy, or `git diff BENCH_kernels.json`).
bench: bench-kernels
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# Per-operator stiffness-kernel benchmarks (ns/elem): the batched sweep
# over element-list sizes (whole blocks and padded tails) and the
# per-SIMD-tier table, written as JSON.
bench-kernels:
	$(GO) run ./cmd/kernelbench -out BENCH_kernels.json

# Tiny-N kernel smoke: asserts the batched path runs and stays
# allocation-free (structural checks only — no timing thresholds), so CI
# catches kernel regressions without benchmark flakiness.
bench-smoke:
	$(GO) run ./cmd/kernelbench -smoke -out /dev/null

# Benchmark-regression gate: measure a fresh BENCH_kernels.json and
# compare ns/elem row by row against the committed bench_baseline.json,
# normalised by the median fresh/baseline ratio so a uniformly slower CI
# runner does not trip the gate while a regressed kernel does. Rows for
# SIMD tiers this machine cannot run are skipped with a log line; a row
# missing from either file, or a baseline row naming a tier this build
# does not know, fails the gate. The tolerance is 15% (BENCH_TOL to override): any row beyond 2x the
# tolerance fails, as does a systemic cluster of >15% rows; isolated
# scheduler blips between the two are tolerated (see cmd/benchcheck).
# Each row is the fastest of 5 repeats: at kernelbench's default 3 the
# gate tripped A/A on a 2-vCPU VM in 2 of 3 runs.
BENCH_TOL ?= 0.15
bench-check:
	$(GO) run ./cmd/kernelbench -repeat 5 -out BENCH_kernels.json
	$(GO) run ./cmd/benchcheck -baseline bench_baseline.json -fresh BENCH_kernels.json -tol $(BENCH_TOL)

# Refresh the committed benchmark baseline (run on a quiet machine, then
# commit bench_baseline.json together with the change that moved it).
bench-baseline:
	$(GO) run ./cmd/kernelbench -repeat 5 -out bench_baseline.json

# Distributed smoke: a small trench run on 1, 2 and 4 local rank
# processes with the decomposition width pinned to 4 parts. The
# decomposition — not the process count — fixes the floating-point
# assembly order, so all three receiver CSVs must be byte-identical. With
# 1 and 2 ranks a rank owns several parts, and each rank advances only the
# nodes its own parts touch, so this is the gate on that split — run, like
# the fault smokes, at scale 0.015 x 40 cycles with -require-nonzero: at
# 0.004 x 6 the three CSVs were five zero rows and one sample of 1e-37.
dist-smoke:
	@rm -rf .dist-smoke && mkdir -p .dist-smoke
	$(GO) build -o .dist-smoke/distrun ./cmd/distrun
	./.dist-smoke/distrun -ranks 1 -parts 4 -scale 0.015 -cycles 40 -require-nonzero -out .dist-smoke/r1.csv
	./.dist-smoke/distrun -ranks 2 -parts 4 -scale 0.015 -cycles 40 -require-nonzero -out .dist-smoke/r2.csv
	./.dist-smoke/distrun -ranks 4 -parts 4 -scale 0.015 -cycles 40 -require-nonzero -out .dist-smoke/r4.csv
	cmp .dist-smoke/r1.csv .dist-smoke/r2.csv
	cmp .dist-smoke/r1.csv .dist-smoke/r4.csv
	@rm -rf .dist-smoke
	@echo "dist-smoke: 1-, 2- and 4-rank receiver CSVs byte-identical at nonzero amplitude"

# Service smoke: wavedload starts an in-process waved service, runs the
# acceptance smoke over real HTTP (cold vs cache-hit runs byte-identical,
# cache hits recorded, cancellation works), then a small load run whose
# throughput / latency / cache-hit-rate report lands in BENCH_serve.json
# (structural health numbers, no thresholds — compare across PRs).
serve-smoke:
	$(GO) run ./cmd/wavedload -smoke
	$(GO) run ./cmd/wavedload -jobs 24 -clients 4 -out BENCH_serve.json

# Fault-tolerance smoke, both recovery paths end to end:
#  1. distributed: a rank process SIGKILLs itself mid-run (GOLTS_FAULT),
#     the coordinator respawns and restores it, and the recovered
#     seismogram CSV must be byte-identical to a fault-free run;
#  2. service: wavedload interrupts a spooled waved job mid-run, restarts
#     the service on the same spool, and the replayed job must resume
#     from its checkpoint with a byte-identical row stream.
# Both legs run at scale 0.015 x 40 cycles and assert nonzero receiver
# samples (-require-nonzero / the wavedload guard): at smaller scales
# every sample is exactly zero and the byte-comparisons pass vacuously —
# that blindness is how the stale-replica checkpoint bug slipped through.
# Recovery-latency numbers land in BENCH_fault.json (the distrun report
# is embedded), alongside BENCH_serve.json in the CI artifacts. The
# distrun legs keep their temporary files — the run's snapshot store — in
# .fault-smoke/tmp, and the rmdir after each leg fails unless the run
# left it empty: no orphan directory, SIGKILLed rank or not.
fault-smoke: export TMPDIR = $(CURDIR)/.fault-smoke/tmp
fault-smoke:
	@rm -rf .fault-smoke && mkdir -p .fault-smoke/tmp
	$(GO) build -o .fault-smoke/distrun ./cmd/distrun
	./.fault-smoke/distrun -ranks 2 -parts 4 -scale 0.015 -cycles 40 -require-nonzero \
		-out .fault-smoke/ref.csv
	rmdir .fault-smoke/tmp && mkdir .fault-smoke/tmp
	GOLTS_FAULT=kill:rank=1,cycle=20,substep=2 ./.fault-smoke/distrun \
		-ranks 2 -parts 4 -scale 0.015 -cycles 40 -recover-every 4 -max-recoveries 2 \
		-expect-recovery -require-nonzero \
		-report .fault-smoke/dist.json -out .fault-smoke/recovered.csv
	rmdir .fault-smoke/tmp && mkdir .fault-smoke/tmp
	cmp .fault-smoke/ref.csv .fault-smoke/recovered.csv
	$(GO) run ./cmd/wavedload -restart-smoke -scale 0.015 -dist-report .fault-smoke/dist.json -out BENCH_fault.json
	@rm -rf .fault-smoke
	@echo "fault-smoke: rank-kill recovery and waved restart both byte-identical at nonzero amplitude"

# Degraded-mode & wire-fault smoke — the failure taxonomy end to end,
# every leg at scale 0.015 x 40 cycles with -require-nonzero so the
# byte-comparisons cannot pass vacuously on all-zero samples:
#  1. corrupt: a rank flips a bit in one outbound frame; the CRC check
#     must reject it and recovery must restore the run byte-identically;
#  2. droplink: a rank drops its coordinator connection mid-cycle; the
#     typed link failure must recover byte-identically;
#  3. degraded: a rank is SIGKILLed in generation 0 and again during the
#     recovery replay (gen=1 plan), exhausting -max-recoveries 1; the
#     coordinator must retire it (-expect-degraded), redistribute its
#     parts onto the survivor and finish byte-identically, with the
#     counters written to BENCH_chaos.json;
#  4. service: wavedload -degraded-smoke drives the same permanent-loss
#     path through waved's job API (degraded_ranks in the job JSON,
#     byte-identical rows), reported in BENCH_degraded.json.
# As in fault-smoke, every leg must leave its TMPDIR (.chaos-smoke/tmp,
# home of the run's snapshot store) empty, the degraded one included.
chaos-smoke: export TMPDIR = $(CURDIR)/.chaos-smoke/tmp
chaos-smoke:
	@rm -rf .chaos-smoke && mkdir -p .chaos-smoke/tmp
	$(GO) build -o .chaos-smoke/distrun ./cmd/distrun
	./.chaos-smoke/distrun -ranks 2 -parts 4 -scale 0.015 -cycles 40 -require-nonzero \
		-out .chaos-smoke/ref.csv
	rmdir .chaos-smoke/tmp && mkdir .chaos-smoke/tmp
	GOLTS_FAULT=corrupt:rank=1,cycle=12,substep=1 ./.chaos-smoke/distrun \
		-ranks 2 -parts 4 -scale 0.015 -cycles 40 -recover-every 4 \
		-expect-recovery -require-nonzero -out .chaos-smoke/corrupt.csv
	rmdir .chaos-smoke/tmp && mkdir .chaos-smoke/tmp
	cmp .chaos-smoke/ref.csv .chaos-smoke/corrupt.csv
	GOLTS_FAULT=droplink:rank=1,cycle=18,substep=1 ./.chaos-smoke/distrun \
		-ranks 2 -parts 4 -scale 0.015 -cycles 40 -recover-every 4 \
		-expect-recovery -require-nonzero -out .chaos-smoke/droplink.csv
	rmdir .chaos-smoke/tmp && mkdir .chaos-smoke/tmp
	cmp .chaos-smoke/ref.csv .chaos-smoke/droplink.csv
	GOLTS_FAULT='kill:rank=1,cycle=20,substep=1;kill:rank=1,cycle=1,substep=1,gen=1' \
		./.chaos-smoke/distrun -ranks 2 -parts 4 -scale 0.015 -cycles 40 \
		-recover-every 4 -max-recoveries 1 -min-ranks 1 \
		-expect-degraded -require-nonzero \
		-report BENCH_chaos.json -out .chaos-smoke/degraded.csv
	rmdir .chaos-smoke/tmp && mkdir .chaos-smoke/tmp
	cmp .chaos-smoke/ref.csv .chaos-smoke/degraded.csv
	$(GO) run ./cmd/wavedload -degraded-smoke -scale 0.015 -out BENCH_degraded.json
	@rm -rf .chaos-smoke
	@echo "chaos-smoke: corrupt, droplink and permanent-loss runs all byte-identical at nonzero amplitude"

# Auto-tune & load-balance smoke, both halves of internal/tune:
#  1. calibration: a tiny distributed run probes its deployment-shape
#     grid (1 rank and 2 ranks at 4 parts) under -auto-tune and writes
#     the table of measured shapes to BENCH_tune.json; distrun exits
#     nonzero unless at least two shapes were measured;
#  2. rebalancing: a run started on a maximally skewed part placement
#     (rank 0 carries 3 of 4 parts) must trigger at least one automatic
#     mid-run rebalance (-expect-rebalance) and still produce a receiver
#     CSV byte-identical to the balanced run — at scale 0.015 x 40
#     cycles with -require-nonzero, so the comparison cannot pass
#     vacuously on all-zero samples.
tune-smoke:
	@rm -rf .tune-smoke && mkdir -p .tune-smoke
	$(GO) build -o .tune-smoke/distrun ./cmd/distrun
	./.tune-smoke/distrun -ranks 2 -parts 4 -scale 0.004 -cycles 6 \
		-auto-tune 30s -tune-report BENCH_tune.json -out .tune-smoke/tuned.csv
	./.tune-smoke/distrun -ranks 2 -parts 4 -scale 0.015 -cycles 40 -require-nonzero \
		-out .tune-smoke/ref.csv
	./.tune-smoke/distrun -ranks 2 -parts 4 -scale 0.015 -cycles 40 \
		-part-rank 0,0,0,1 -auto-rebalance -rebalance-threshold 1.2 \
		-rebalance-window 2 -rebalance-cooldown 3 \
		-expect-rebalance -require-nonzero -level-times \
		-out .tune-smoke/rebalanced.csv
	cmp .tune-smoke/ref.csv .tune-smoke/rebalanced.csv
	@rm -rf .tune-smoke
	@echo "tune-smoke: calibration measured >=2 shapes; skewed run rebalanced and stayed byte-identical"

# Static analysis beyond go vet. CI installs staticcheck; locally the
# target runs it when present and skips (loudly) when not, so `make
# check` mirrors CI wherever the tool is installed.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# Smoke-run every example at tiny scales, so facade changes cannot
# silently break them (they are not covered by `go test`).
examples:
	$(GO) run ./examples/quickstart -scale 0.001 -cycles 5
	$(GO) run ./examples/trench_seismology -scale 0.001 -cycles 5
	$(GO) run ./examples/partition_compare -scale 0.02
	$(GO) run ./examples/cluster_scaling -scale 0.02 -nodes 2,4

vet:
	$(GO) vet ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

check: fmt vet lint build test bench-e2e-test bench-golden race examples dist-smoke serve-smoke fault-smoke tune-smoke chaos-smoke
