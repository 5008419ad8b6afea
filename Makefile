GO ?= go

.PHONY: build test loc reach race fuzz bench-kernels bench-smoke bench-check bench-baseline bench-e2e bench-e2e-test bench-golden dist-smoke fault-smoke tune-smoke chaos-smoke lint vet fmt check examples

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Size of the product: non-test Go and assembly lines outside benchmark/
# and tools/ (ROADMAP aim 2 wants this number going down), then the
# internal/sem share of it in Go and in assembly, then the non-test lines
# of the packages that have a ROADMAP line budget, and last, on a line of
# its own, the non-test lines of the repo's tools (tools/, not product).
# Informational — printed by CI, gated by nothing.
LOC_PACKAGES = wave internal/dist internal/lts internal/partition

loc:
	@find . \( -path ./benchmark -o -path ./tools \) -prune -o -type f \( -name '*.go' -o -name '*.s' \) ! -name '*_test.go' -print0 \
		| xargs -0 cat | wc -l | xargs echo "loc: non-test Go+asm lines outside benchmark/ and tools/:"
	@find internal/sem -name '*.go' ! -name '*_test.go' -print0 \
		| xargs -0 cat | wc -l | xargs echo "loc: internal/sem non-test .go lines:"
	@find internal/sem -name '*.s' -print0 \
		| xargs -0 cat | wc -l | xargs echo "loc: internal/sem assembly .s lines:"
	@for p in $(LOC_PACKAGES); do \
		find $$p -maxdepth 1 -name '*.go' ! -name '*_test.go' -print0 \
			| xargs -0 cat | wc -l | xargs echo "loc: $$p non-test .go lines:"; \
	done
	@find tools -name '*.go' ! -name '*_test.go' -print0 \
		| xargs -0 cat | wc -l | xargs echo "loc: tools/ non-test .go lines (not product):"

# Reachability gate over the product (tools/reach, its own module outside
# ./..., as benchmark/ is). It builds every main package, the benchmark
# harness and a generated root over wave's exported API without inlining,
# diffs their linked symbols against every non-test func declaration, and
# prints what no binary links. It fails on an unlinked function that
# tools/reach/allow.txt does not name with a reason, and on an allow-list
# entry whose function is gone or linked again. The tool's own tests
# (symbol parsing, and a function planted by a build overlay that the
# gate must name) run first.
reach:
	cd tools/reach && $(GO) vet ./... && $(GO) test ./... && $(GO) run .

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
# -short. The engine's SPMD cycle tests and its spill test (up to 8
# workers) run a second time on one CPU, where a barrier that only spun
# would never let the workers it waits for run.
race:
	$(GO) test -race -short ./internal/parallel ./internal/lts ./internal/dist ./internal/decomp ./internal/serve
	GOMAXPROCS=1 $(GO) test -race -short -run 'Team|Close|StressInterleaved|Determinism|Spill' ./internal/parallel
	$(GO) test -race -short -run 'ArtifactCache' ./wave

# Short native-fuzz leg over the untrusted decoders (four of
# internal/dist — the state frame (internal/ckpt's one state format)
# overlaid onto a rank's or a whole field's arrays, a rank's restore from
# a msgRestore descriptor, the peer-link halo frame and the cycle-done
# frame — the checkpoint container of internal/ckpt with its meta section
# and the state frames of its state section, the service's POST /jobs
# body and the run configuration of internal/simio, one after the other:
# go test takes one -fuzz target per run); the committed corpora under
# testdata/fuzz run as ordinary tests in `make test` already.
FUZZTIME ?= 20s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzStateFrame -fuzztime $(FUZZTIME) ./internal/dist
	$(GO) test -run '^$$' -fuzz FuzzRestoreDescriptor -fuzztime $(FUZZTIME) ./internal/dist
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

# Per-operator stiffness-kernel benchmarks (ns/elem): the batched sweep
# over element-list sizes (whole blocks and padded tails) and the
# per-SIMD-tier table, written as JSON. BENCH_kernels.json records ns/elem
# and allocs/op of every operator's batched stiffness kernel so perf
# regressions are visible across PRs (compare against the committed copy,
# or `git diff BENCH_kernels.json`).
bench-kernels:
	$(GO) run ./cmd/kernelbench -out BENCH_kernels.json

# Tiny-N kernel smoke: asserts the batched path runs and stays
# allocation-free (structural checks only — no timing thresholds), so CI
# catches kernel regressions without benchmark flakiness.
bench-smoke:
	$(GO) run ./cmd/kernelbench -smoke -out /dev/null

# Benchmark-regression gate: kernelbench measures a fresh
# BENCH_kernels.json and, with -baseline, compares ns/elem row by row
# against the committed bench_baseline.json, normalised by the median
# fresh/baseline ratio so a uniformly slower CI runner does not trip the
# gate while a regressed kernel does. Rows for SIMD tiers this machine
# cannot run are skipped with a log line; a row missing from either
# file, or a baseline row naming a tier this build does not know, fails
# the gate. The tolerance is 15% (BENCH_TOL to override): any row beyond
# 2x the tolerance fails, as does a systemic cluster of >15% rows;
# isolated scheduler blips between the two are tolerated (see
# cmd/kernelbench/check.go). Each row is the fastest of 5 repeats: at
# kernelbench's default 3 the gate tripped A/A on a 2-vCPU VM in 2 of 3
# runs.
BENCH_TOL ?= 0.15
bench-check:
	$(GO) run ./cmd/kernelbench -repeat 5 -out BENCH_kernels.json -baseline bench_baseline.json -tol $(BENCH_TOL)

# Refresh the committed benchmark baseline (run on a quiet machine, then
# commit bench_baseline.json together with the change that moved it).
bench-baseline:
	$(GO) run ./cmd/kernelbench -repeat 5 -out bench_baseline.json

# Distributed smoke: a small trench run (wavesim -ranks) on 1, 2 and 4
# local rank processes with the decomposition width pinned to 4 parts. The
# decomposition — not the process count — fixes the floating-point
# assembly order, so all three receiver CSVs must be byte-identical. With
# 1 and 2 ranks a rank owns several parts, and each rank advances only the
# nodes its own parts touch, so this is the gate on that split — run, like
# the fault smokes, at scale 0.015 x 40 cycles with -require-nonzero: at
# 0.004 x 6 the three CSVs were five zero rows and one sample of 1e-37.
# The shared-memory engine with 4 workers must write the same bytes too,
# so an assembly-order change that moved all three rank counts together
# fails here as well. Two elastic legs (2 ranks x 2 parts, LTS and global
# Newmark) cover the 3-component compact numbering and the Newmark path of
# a rank against the 2-worker shared-memory engine.
dist-smoke:
	@rm -rf .dist-smoke && mkdir -p .dist-smoke
	$(GO) build -o .dist-smoke/wavesim ./cmd/wavesim
	./.dist-smoke/wavesim -ranks 1 -parts 4 -scale 0.015 -cycles 40 -require-nonzero -out .dist-smoke/r1.csv
	./.dist-smoke/wavesim -ranks 2 -parts 4 -scale 0.015 -cycles 40 -require-nonzero -out .dist-smoke/r2.csv
	./.dist-smoke/wavesim -ranks 4 -parts 4 -scale 0.015 -cycles 40 -require-nonzero -out .dist-smoke/r4.csv
	./.dist-smoke/wavesim -workers 4 -scale 0.015 -cycles 40 -out .dist-smoke/shm4.csv
	cmp .dist-smoke/r1.csv .dist-smoke/r2.csv
	cmp .dist-smoke/r1.csv .dist-smoke/r4.csv
	cmp .dist-smoke/r1.csv .dist-smoke/shm4.csv
	for lts in true false; do \
		./.dist-smoke/wavesim -physics elastic -ranks 2 -parts 2 -scale 0.015 -cycles 40 -lts=$$lts -require-nonzero -out .dist-smoke/el-$$lts.csv && \
		./.dist-smoke/wavesim -physics elastic -workers 2 -scale 0.015 -cycles 40 -lts=$$lts -out .dist-smoke/el-shm-$$lts.csv && \
		cmp .dist-smoke/el-$$lts.csv .dist-smoke/el-shm-$$lts.csv || exit 1; \
	done
	@rm -rf .dist-smoke
	@echo "dist-smoke: 1-, 2- and 4-rank and 4-worker shared-memory receiver CSVs byte-identical at nonzero amplitude, elastic LTS and global Newmark too"

# Fault-tolerance smoke: a rank process SIGKILLs itself mid-run
# (GOLTS_FAULT), the coordinator respawns and restores it, and the
# recovered seismogram CSV must be byte-identical to a fault-free run.
# Both runs are at scale 0.015 x 40 cycles with -require-nonzero: at
# smaller scales every sample is exactly zero and the byte-comparison
# passes vacuously — that blindness is how the stale-replica checkpoint
# bug slipped through. The recovered run's -report (its stats, with the
# recovery counts and wall time) lands in BENCH_fault.json, a CI
# artifact. The service's restart path (a spooled job interrupted,
# replayed and resumed byte-identically) is TestResumeByteIdentical in
# internal/serve. Each run keeps its temporary files — the run's
# snapshot store — in .fault-smoke/tmp, and the rmdir after each fails
# unless the run left it empty: no orphan directory, SIGKILLed rank or
# not.
fault-smoke: export TMPDIR = $(CURDIR)/.fault-smoke/tmp
fault-smoke:
	@rm -rf .fault-smoke && mkdir -p .fault-smoke/tmp
	$(GO) build -o .fault-smoke/wavesim ./cmd/wavesim
	./.fault-smoke/wavesim -ranks 2 -parts 4 -scale 0.015 -cycles 40 -require-nonzero \
		-out .fault-smoke/ref.csv
	rmdir .fault-smoke/tmp && mkdir .fault-smoke/tmp
	GOLTS_FAULT=kill:rank=1,cycle=20,substep=2 ./.fault-smoke/wavesim \
		-ranks 2 -parts 4 -scale 0.015 -cycles 40 -recover-every 4 -max-recoveries 2 \
		-expect-recovery -require-nonzero \
		-report BENCH_fault.json -out .fault-smoke/recovered.csv
	rmdir .fault-smoke/tmp && mkdir .fault-smoke/tmp
	cmp .fault-smoke/ref.csv .fault-smoke/recovered.csv
	@rm -rf .fault-smoke
	@echo "fault-smoke: rank-kill recovery byte-identical at nonzero amplitude"

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
#     -report written to BENCH_chaos.json.
# The same permanent loss inside the service (degraded_ranks in the job
# JSON and /stats, byte-identical rows) is TestDegradedDistributedJob in
# internal/serve.
# As in fault-smoke, every leg must leave its TMPDIR (.chaos-smoke/tmp,
# home of the run's snapshot store) empty, the degraded one included.
chaos-smoke: export TMPDIR = $(CURDIR)/.chaos-smoke/tmp
chaos-smoke:
	@rm -rf .chaos-smoke && mkdir -p .chaos-smoke/tmp
	$(GO) build -o .chaos-smoke/wavesim ./cmd/wavesim
	./.chaos-smoke/wavesim -ranks 2 -parts 4 -scale 0.015 -cycles 40 -require-nonzero \
		-out .chaos-smoke/ref.csv
	rmdir .chaos-smoke/tmp && mkdir .chaos-smoke/tmp
	GOLTS_FAULT=corrupt:rank=1,cycle=12,substep=1 ./.chaos-smoke/wavesim \
		-ranks 2 -parts 4 -scale 0.015 -cycles 40 -recover-every 4 \
		-expect-recovery -require-nonzero -out .chaos-smoke/corrupt.csv
	rmdir .chaos-smoke/tmp && mkdir .chaos-smoke/tmp
	cmp .chaos-smoke/ref.csv .chaos-smoke/corrupt.csv
	GOLTS_FAULT=droplink:rank=1,cycle=18,substep=1 ./.chaos-smoke/wavesim \
		-ranks 2 -parts 4 -scale 0.015 -cycles 40 -recover-every 4 \
		-expect-recovery -require-nonzero -out .chaos-smoke/droplink.csv
	rmdir .chaos-smoke/tmp && mkdir .chaos-smoke/tmp
	cmp .chaos-smoke/ref.csv .chaos-smoke/droplink.csv
	GOLTS_FAULT='kill:rank=1,cycle=20,substep=1;kill:rank=1,cycle=1,substep=1,gen=1' \
		./.chaos-smoke/wavesim -ranks 2 -parts 4 -scale 0.015 -cycles 40 \
		-recover-every 4 -max-recoveries 1 -min-ranks 1 \
		-expect-degraded -require-nonzero \
		-report BENCH_chaos.json -out .chaos-smoke/degraded.csv
	rmdir .chaos-smoke/tmp && mkdir .chaos-smoke/tmp
	cmp .chaos-smoke/ref.csv .chaos-smoke/degraded.csv
	@rm -rf .chaos-smoke
	@echo "chaos-smoke: corrupt, droplink and permanent-loss runs all byte-identical at nonzero amplitude"

# Auto-tune & placement smoke:
#  1. calibration: a tiny distributed run probes its deployment-shape
#     grid (1 rank and 2 ranks at 4 parts) under -auto-tune and writes
#     the table of measured shapes to BENCH_tune.json; wavesim exits
#     nonzero unless at least two shapes were measured;
#  2. placement: a run on a maximally skewed explicit part placement
#     (rank 0 carries 3 of 4 parts) must produce a receiver CSV
#     byte-identical to the balanced run — at scale 0.015 x 40 cycles
#     with -require-nonzero, so the comparison cannot pass vacuously on
#     all-zero samples.
tune-smoke:
	@rm -rf .tune-smoke && mkdir -p .tune-smoke
	$(GO) build -o .tune-smoke/wavesim ./cmd/wavesim
	./.tune-smoke/wavesim -ranks 2 -parts 4 -scale 0.004 -cycles 6 \
		-auto-tune 30s -tune-report BENCH_tune.json -out .tune-smoke/tuned.csv
	./.tune-smoke/wavesim -ranks 2 -parts 4 -scale 0.015 -cycles 40 -require-nonzero \
		-out .tune-smoke/ref.csv
	./.tune-smoke/wavesim -ranks 2 -parts 4 -scale 0.015 -cycles 40 \
		-part-rank 0,0,0,1 -require-nonzero -out .tune-smoke/skewed.csv
	cmp .tune-smoke/ref.csv .tune-smoke/skewed.csv
	@rm -rf .tune-smoke
	@echo "tune-smoke: calibration measured >=2 shapes; skewed placement stayed byte-identical"

# Static analysis beyond go vet. CI installs staticcheck; locally the
# target runs it when present and skips (loudly) when not, so `make
# check` mirrors CI wherever the tool is installed.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# Smoke-run every example, and the two front ends of the paper's mesh
# and partition results (meshgen: Figs. 4-5; partbench: Figs. 6-8), at
# tiny scales, so facade changes cannot silently break them (they are not
# covered by `go test`). Both front ends also write their VTK file, which
# must be non-empty.
examples:
	$(GO) run ./examples/quickstart -scale 0.001 -cycles 5
	$(GO) run ./examples/trench_seismology -scale 0.001 -cycles 5
	$(GO) run ./examples/partition_compare -scale 0.02
	@rm -rf .examples-smoke && mkdir -p .examples-smoke
	$(GO) run ./cmd/meshgen -mesh trench -scale 0.02 -vtk .examples-smoke/levels.vtk
	$(GO) run ./cmd/partbench -mesh trench -scale 0.02 -k 4 -vtk .examples-smoke/parts.vtk
	test -s .examples-smoke/levels.vtk && test -s .examples-smoke/parts.vtk
	@rm -rf .examples-smoke

vet:
	$(GO) vet ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

check: fmt vet lint build test reach bench-e2e-test bench-golden race examples dist-smoke fault-smoke tune-smoke chaos-smoke
