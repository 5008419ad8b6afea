// Command distrun launches a distributed wave simulation: a coordinator
// that spawns N rank processes of this same binary, each owning a slice
// of the owner-computes decomposition and exchanging halo node
// contributions over loopback sockets at every substep. It is the CLI
// face of wave.WithBackend(wave.Distributed{...}) and the measurement
// tool behind the README's distributed scaling table.
//
// Usage:
//
//	distrun [-ranks 2] [-parts 0] [-mesh trench] [-scale 0.02]
//	        [-physics acoustic|elastic] [-lts] [-cycles 20]
//	        [-degree 4] [-cfl 0.4] [-partitioner scotch-p] [-seed 1]
//	        [-out seismograms.csv]
//	        [-recover-every N] [-max-recoveries 3]
//	        [-min-ranks 0] [-expect-degraded] [-expect-recovery]
//	        [-report report.json]
//	        [-level-times] [-part-rank 0,0,0,1] [-auto-rebalance]
//	        [-rebalance-threshold 1.5] [-rebalance-window 3]
//	        [-rebalance-cooldown 10] [-expect-rebalance]
//	        [-auto-tune 30s] [-tune-report BENCH_tune.json]
//
// -parts fixes the owner-computes decomposition width independently of
// the process count (0 means parts = ranks). Because the decomposition —
// not the process count — pins the floating-point assembly order,
// distrun runs with the same -parts produce byte-identical seismogram
// files for any -ranks, which is what `make dist-smoke` asserts.
//
// -recover-every N snapshots the distributed state every N cycles — each
// rank writes its share to a run-private directory (under TMPDIR if set,
// else /dev/shm, else the system temp directory; removed on every exit
// short of SIGKILLing distrun itself) — and turns on rank-failure
// recovery: a rank that dies or stalls mid-run is respawned, every rank
// restores the last complete snapshot and the lost cycles are replayed,
// bitwise. Fault injection comes from the
// GOLTS_FAULT environment variable (kill|stall|delay:rank=R,cycle=C
// [,substep=S][,ms=D]), which the coordinator forwards to every rank —
// `make fault-smoke` kills a rank this way and asserts the recovered
// seismograms match a fault-free run byte for byte. -expect-recovery
// exits 1 when the run finishes without recovering anything (the
// injected fault never fired). The fault grammar also carries the
// network verbs droplink, stall-link, corrupt and partition, plus
// ';'-separated multi-plans and gen=G addressing for faults during
// recovery itself.
//
// -min-ranks N enables degraded mode: a rank that exhausts
// -max-recoveries is retired for good, its parts are redistributed onto
// the survivors, and the run continues with fewer ranks (never below N).
// The decomposition width is pinned by -parts, so the degraded
// seismograms stay byte-identical — `make chaos-smoke` asserts exactly
// that. -expect-degraded exits 1 unless at least one rank was retired.
//
// -report writes the run report as JSON: what the coordinator did to
// keep the run alive (recoveries and retired ranks with the wall time
// of each, rebalances, link retries, corrupt frames rejected) and what
// that readiness cost (snapshots committed, their wall time and bytes), the
// run's wall time, the host's CPU count and the injected fault. `make
// fault-smoke` and `make chaos-smoke` publish it as BENCH_fault.json's
// "dist" section and BENCH_chaos.json.
//
// -level-times turns on the timing telemetry and prints the per-rank,
// per-level stiffness-kernel table after the run, followed by each rank's
// pointwise stepping time and the size of its share of the nodes (active,
// far-coarse, footprint); both are embedded in the -report JSON. -part-rank places each part on an explicit rank
// (any placement is bitwise-identical; only wall time changes), and
// -auto-rebalance lets the coordinator remap parts onto ranks mid-run
// when the measured per-rank busy times stay imbalanced — `make
// tune-smoke` starts from a skewed placement and asserts the run
// rebalances and still matches the balanced run byte for byte.
// -auto-tune calibrates the deployment shape with short probe runs
// before the real one; -tune-report writes the table of measured
// shapes as BENCH_tune.json.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"golts/internal/tune"
	"golts/wave"
)

func main() {
	// The coordinator re-executes this binary for every rank; RankMain
	// routes those children into the rank runtime before flag parsing.
	wave.RankMain()
	os.Exit(run())
}

// run is main with an exit status in place of os.Exit, so that every way
// out past wave.New closes the simulation: that flushes the sink, shuts
// the ranks down and removes the run's snapshot directory. An interrupt
// or SIGTERM cancels the run and leaves the same way.
func run() int {
	ranks := flag.Int("ranks", 2, "rank processes to spawn")
	parts := flag.Int("parts", 0, "decomposition width (0 = ranks); pins the result bits")
	name := flag.String("mesh", "trench", "benchmark mesh")
	scale := flag.Float64("scale", 0.02, "mesh scale")
	physics := flag.String("physics", "acoustic", "acoustic or elastic")
	useLTS := flag.Bool("lts", true, "use LTS-Newmark (false = global Newmark)")
	cycles := flag.Int("cycles", 20, "coarse cycles to simulate")
	degree := flag.Int("degree", 4, "SEM polynomial degree")
	cfl := flag.Float64("cfl", 0.4, "Courant number")
	partMethod := flag.String("partitioner", string(wave.ScotchP), "element partitioner")
	seed := flag.Int64("seed", 1, "partitioner seed")
	outPath := flag.String("out", "", "seismogram output file (.csv or .json)")
	recoverEvery := flag.Int("recover-every", 0, "checkpoint every N cycles and recover failed ranks (0: off)")
	maxRecoveries := flag.Int("max-recoveries", 0, "rank recoveries before giving up (0: default 3)")
	minRanks := flag.Int("min-ranks", 0, "degraded mode: survive permanent rank loss down to this many ranks (0: off)")
	expectDegraded := flag.Bool("expect-degraded", false, "exit 1 unless at least one rank was permanently retired")
	expectRecovery := flag.Bool("expect-recovery", false, "exit 1 unless at least one rank recovery happened")
	requireNonzero := flag.Bool("require-nonzero", false, "exit 1 unless a receiver saw the wave: several nonzero samples and a peak above the floor (guards byte-comparisons against vacuous traces)")
	report := flag.String("report", "", "write the run report (recovery, rebalance, degraded and link counters, wall time) as JSON to this path")
	levelTimes := flag.Bool("level-times", false, "enable timing telemetry and print the per-rank, per-level kernel table")
	partRank := flag.String("part-rank", "", "explicit part placement as comma-separated rank ids, one per part (empty: contiguous blocks)")
	autoRebalance := flag.Bool("auto-rebalance", false, "remap parts onto ranks mid-run when per-rank busy times stay imbalanced")
	rebThreshold := flag.Float64("rebalance-threshold", 0, "max/mean busy ratio that arms a rebalance (0: default 1.5)")
	rebWindow := flag.Int("rebalance-window", 0, "consecutive imbalanced cycles before rebalancing (0: default 3)")
	rebCooldown := flag.Int("rebalance-cooldown", 0, "quiet cycles after a rebalance (0: default 10)")
	expectRebalance := flag.Bool("expect-rebalance", false, "exit 1 unless at least one automatic rebalance happened")
	autoTune := flag.Duration("auto-tune", 0, "calibrate the deployment shape with probe runs under this wall budget (0: off)")
	tuneReport := flag.String("tune-report", "", "write the calibration's table of measured shapes as JSON to this path")
	flag.Parse()

	scheme := wave.WithLTS()
	if !*useLTS {
		scheme = wave.WithGlobalNewmark()
	}
	ckptEvery := -1 // Distributed semantics: negative disables
	switch {
	case *recoverEvery > 0:
		ckptEvery = *recoverEvery
	case *minRanks > 0:
		ckptEvery = 0 // degraded mode needs checkpoints; take the default interval
	}
	placement, err := parsePartRank(*partRank)
	if err != nil {
		fmt.Fprintln(os.Stderr, "distrun:", err)
		return 2
	}
	opts := []wave.Option{
		wave.WithMesh(*name, *scale),
		wave.WithPhysics(wave.Physics(*physics)),
		wave.WithDegree(*degree),
		wave.WithCFL(*cfl),
		wave.WithCycles(*cycles),
		scheme,
		wave.WithPartitioner(wave.Partitioner(*partMethod)),
		wave.WithSeed(*seed),
		wave.WithBackend(wave.Distributed{
			Ranks: *ranks, Parts: *parts,
			CheckpointEvery: ckptEvery, MaxRecoveries: *maxRecoveries,
			MinRanks:           *minRanks,
			Telemetry:          *levelTimes,
			PartRank:           placement,
			AutoRebalance:      *autoRebalance,
			RebalanceThreshold: *rebThreshold, RebalanceWindow: *rebWindow,
			RebalanceCooldown: *rebCooldown,
		}),
	}
	if *outPath != "" {
		opts = append(opts, wave.WithSink(wave.FileSink(*outPath)))
	}
	if *autoTune > 0 {
		opts = append(opts, wave.WithAutoTune(*autoTune))
	}

	// Reject impossible flags (ranks > parts, nonpositive cycles, a typo'd
	// physics) as a usage error before any mesh or operator work — the
	// typed *OptionError names the offending option.
	if err := wave.Validate(opts...); err != nil {
		fmt.Fprintln(os.Stderr, "distrun:", err)
		flag.Usage()
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	t0 := time.Now()
	sim, err := wave.New(opts...)
	if err != nil {
		return fail(err)
	}
	defer sim.Close()
	st := sim.Stats()
	fmt.Printf("mesh %s: %d elements, %d DOF, %d levels; %d ranks x %d parts, startup %.2fs\n",
		st.Mesh, st.Elements, st.DOF, st.Levels, st.Ranks, st.Parts, time.Since(t0).Seconds())

	t0 = time.Now()
	if err := sim.Run(ctx, 0); err != nil {
		return fail(err)
	}
	wall := time.Since(t0).Seconds()
	st = sim.Stats()
	perCycle := wall / float64(st.Cycles)
	if st.LTS {
		fmt.Printf("LTS-Newmark: %d cycles in %.2fs (%.1f ms/cycle); work saving %.2fx (%.0f%% of Eq. 9)\n",
			st.Cycles, wall, 1e3*perCycle, st.EffectiveSpeedup, 100*st.Efficiency)
	} else {
		fmt.Printf("global Newmark: %d cycles (%d steps) in %.2fs (%.1f ms/cycle)\n",
			st.Cycles, st.Cycles*int64(st.PMax), wall, 1e3*perCycle)
	}
	if st.Engine != nil {
		fmt.Printf("halo exchange: %d applies/rank, %d messages, %d node-values over the wire\n",
			st.Engine.Applies, st.Engine.Messages, st.Engine.Volume)
	}
	if *recoverEvery > 0 || *minRanks > 0 {
		fmt.Printf("fault tolerance: %d rank recoveries (%d ms recovering), %d corrupt frames rejected, %d link retries; %d snapshots (%d ms, %.1f MB written)\n",
			st.Recoveries, st.RecoveryMillis, st.CorruptFrames, st.LinkRetries,
			st.Snapshots, st.SnapshotMillis, float64(st.SnapshotBytes)/1e6)
	}
	if *minRanks > 0 {
		fmt.Printf("degraded mode: %d ranks permanently retired (%d ms shrinking), %d of %d ranks finished the run\n",
			st.DegradedRanks, st.DegradedMillis, st.Ranks-st.DegradedRanks, st.Ranks)
	}
	if *autoTune > 0 {
		fmt.Printf("auto-tune: selected ranks=%d\n", st.TunedRanks)
	}
	if *autoRebalance {
		fmt.Printf("load balancing: %d automatic rebalances (%d ms rebalancing)\n",
			st.Rebalances, st.RebalanceMillis)
	}
	if *levelTimes {
		printLevelTimes(st)
	}

	seis := sim.Seismograms()
	peakMax, nonzeroMax := 0.0, 0
	for i := range seis.Traces {
		tr := &seis.Traces[i]
		peak, pt := tr.Peak(seis.Times)
		peakMax = max(peakMax, peak)
		nonzero := 0
		for _, v := range tr.Values {
			if v != 0 {
				nonzero++
			}
		}
		nonzeroMax = max(nonzeroMax, nonzero)
		fmt.Printf("receiver %-6s |u|max = %.3e  peak t = %.3f\n", tr.Name, peak, pt)
	}
	if *requireNonzero && (peakMax < nonzeroFloor || nonzeroMax < 2) {
		fmt.Fprintf(os.Stderr, "distrun: -require-nonzero set but no receiver saw the wave: largest |u|max %.3e (floor %.0e), at most %d nonzero samples in a trace (need 2); raise -scale or -cycles\n",
			peakMax, nonzeroFloor, nonzeroMax)
		return 1
	}
	// Close flushes the sink and shuts the ranks down; report only after
	// both happened cleanly.
	if err := sim.Close(); err != nil {
		return fail(err)
	}
	if *outPath != "" {
		fmt.Printf("seismograms written to %s\n", *outPath)
	}
	if *report != "" {
		rep := struct {
			Ranks         int                 `json:"ranks"`
			Parts         int                 `json:"parts"`
			Cycles        int64               `json:"cycles"`
			Recoveries    int                 `json:"recoveries"`
			RecoveryMS    int64               `json:"recovery_ms"`
			Rebalances    int                 `json:"rebalances"`
			Snapshots     int                 `json:"snapshots"`
			SnapshotMS    int64               `json:"snapshot_ms"`
			SnapshotBytes int64               `json:"snapshot_bytes"`
			DegradedRanks int                 `json:"degraded_ranks"`
			DegradedMS    int64               `json:"degraded_ms"`
			LinkRetries   int64               `json:"link_retries"`
			CorruptFrames int64               `json:"corrupt_frames"`
			WallS         float64             `json:"wall_seconds"`
			NumCPU        int                 `json:"num_cpu"`
			GoMaxProcs    int                 `json:"gomaxprocs"`
			Fault         string              `json:"fault,omitempty"`
			LevelTimes    []wave.LevelStats   `json:"level_times,omitempty"`
			RankStepping  []wave.RankStepping `json:"rank_stepping,omitempty"`
		}{st.Ranks, st.Parts, st.Cycles, st.Recoveries, st.RecoveryMillis,
			st.Rebalances, st.Snapshots, st.SnapshotMillis, st.SnapshotBytes,
			st.DegradedRanks, st.DegradedMillis,
			st.LinkRetries, st.CorruptFrames,
			wall, runtime.NumCPU(), runtime.GOMAXPROCS(0),
			os.Getenv("GOLTS_FAULT"), st.LevelTimes, st.RankStepping}
		if err := writeJSON(*report, rep); err != nil {
			return fail(err)
		}
		fmt.Printf("run report written to %s\n", *report)
	}
	if *tuneReport != "" {
		rep := struct {
			Benchmark  string     `json:"benchmark"`
			Mesh       string     `json:"mesh"`
			Scale      float64    `json:"scale"`
			Ranks      int        `json:"ranks"`
			Parts      int        `json:"parts"`
			NumCPU     int        `json:"num_cpu"`
			GoMaxProcs int        `json:"gomaxprocs"`
			Plan       *tune.Plan `json:"plan"`
		}{"tune", *name, *scale, st.Ranks, st.Parts,
			runtime.NumCPU(), runtime.GOMAXPROCS(0), sim.TunePlan()}
		if rep.Plan == nil {
			fmt.Fprintln(os.Stderr, "distrun: -tune-report set without -auto-tune (no plan to report)")
			return 2
		}
		measured := 0
		for _, m := range rep.Plan.Measurements {
			if m.Err == "" && m.CycleNanos > 0 {
				measured++
			}
		}
		if measured < 2 {
			fmt.Fprintf(os.Stderr, "distrun: calibration measured %d shapes, want >= 2\n", measured)
			return 1
		}
		if err := writeJSON(*tuneReport, rep); err != nil {
			return fail(err)
		}
		fmt.Printf("calibration report written to %s\n", *tuneReport)
	}
	if *expectRecovery && st.Recoveries == 0 {
		fmt.Fprintln(os.Stderr, "distrun: -expect-recovery set but the run recovered nothing (fault never fired?)")
		return 1
	}
	if *expectDegraded && st.DegradedRanks == 0 {
		fmt.Fprintln(os.Stderr, "distrun: -expect-degraded set but no rank was retired (fault never exhausted the budget?)")
		return 1
	}
	if *expectRebalance && st.Rebalances == 0 {
		fmt.Fprintln(os.Stderr, "distrun: -expect-rebalance set but the run never rebalanced (placement already balanced?)")
		return 1
	}
	return 0
}

// nonzeroFloor is the smallest receiver peak -require-nonzero takes for a
// wave that arrived, per unit of source gain (the facade's sources are
// unit forces). `!= 0` is not that test: the first sample to leave zero is
// the far tail of the wavelet's onset pushed through a dozen stiffness
// applications — 1e-37 at the size `make dist-smoke` used to run, one such
// sample after five exact zeros — and traces like that compare equal
// however wrong the field behind them is. The smoke targets' 0.015 x 40
// runs peak near 4e-19 with 35 nonzero samples.
const nonzeroFloor = 1e-24

// parsePartRank parses "0,0,1,1" into a placement slice (nil for "").
func parsePartRank(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	fields := strings.Split(s, ",")
	out := make([]int, len(fields))
	for i, f := range fields {
		r, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("-part-rank entry %d: %v", i, err)
		}
		out[i] = r
	}
	return out, nil
}

// printLevelTimes renders the telemetry table, one column per rank: a row
// per LTS level with the milliseconds of cumulative stiffness-application
// time, then the stepper's own pointwise milliseconds and the node counts
// of the rank's share they were spent on.
func printLevelTimes(st wave.Stats) {
	if len(st.LevelTimes) == 0 {
		fmt.Println("level times: no telemetry recorded")
		return
	}
	fmt.Print("level times (ms/rank):\n        ")
	for r := range st.LevelTimes[0].RankNanos {
		fmt.Printf("  rank%-2d", r)
	}
	fmt.Println()
	for _, lt := range st.LevelTimes {
		fmt.Printf("level %-2d", lt.Level)
		for _, n := range lt.RankNanos {
			fmt.Printf(" %7.1f", float64(n)/1e6)
		}
		fmt.Println()
	}
	if len(st.RankStepping) == 0 {
		return
	}
	fmt.Print("pointws ")
	for _, r := range st.RankStepping {
		fmt.Printf(" %7.1f", float64(r.PointwiseNanos)/1e6)
	}
	fmt.Println()
	for i, name := range []string{"active  ", "far     ", "footprnt"} {
		fmt.Print(name)
		for _, r := range st.RankStepping {
			fmt.Printf(" %7d", [3]int{r.ActiveNodes, r.FarNodes, r.FootprintNodes}[i])
		}
		fmt.Println()
	}
}

// writeJSON writes v to path as indented JSON with a trailing newline.
func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// fail reports err and returns the exit status that goes with it.
func fail(err error) int {
	fmt.Fprintln(os.Stderr, "distrun:", err)
	return 1
}
