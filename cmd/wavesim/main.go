// Command wavesim runs a 3-D wave simulation on a benchmark mesh, with or
// without LTS, in this process or on spawned rank processes, and writes
// receiver seismograms. It is a thin client of the public golts/wave
// facade: every flag is one facade option.
//
// Usage:
//
//	wavesim [-config run.json] [-out seismograms.csv]
//	wavesim [-mesh trench] [-scale 0.02] [-physics acoustic|elastic]
//	        [-lts] [-cycles 20] [-degree 4] [-cfl 0.4]
//	        [-workers 0] [-partitioner scotch-p] [-seed 1]
//	        [-ranks 0] [-parts 0] [-part-rank 0,0,0,1]
//	        [-recover-every N] [-max-recoveries 3]
//	        [-min-ranks 0] [-expect-degraded] [-expect-recovery]
//	        [-level-times] [-auto-tune 30s] [-tune-report BENCH_tune.json]
//	        [-require-nonzero] [-report report.json]
//	        [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// -workers N runs the stiffness applications on N persistent rank workers
// (the shared-memory parallel engine); 0 means one per GOMAXPROCS slot, 1
// disables the engine. Results are bitwise reproducible for a fixed
// (workers, partitioner, seed); the GOMAXPROCS default therefore varies
// in the last FP digits across hosts with different core counts — pin
// -workers for cross-host reproducibility. A JSON config (see
// internal/simio.Config) overrides the physics flags and may place
// sources, receivers and a sponge layer explicitly. The -out format is
// selected by file extension: ".json" writes JSON, anything else CSV.
//
// -ranks N runs the distributed backend instead: a coordinator that
// spawns N rank processes of this same binary, each owning a slice of
// the owner-computes decomposition and exchanging halo node
// contributions over loopback sockets at every substep. -parts fixes the
// decomposition width independently of the process count (0 means parts
// = ranks). Because the decomposition — not the process count — pins the
// floating-point assembly order, runs with the same -parts produce
// byte-identical seismogram files for any -ranks, and the same bytes as
// -workers equal to -parts; `make dist-smoke` asserts both. -parts,
// -part-rank, -recover-every, -max-recoveries and -min-ranks need -ranks.
//
// -recover-every N snapshots the distributed state every N cycles — each
// rank writes its share to a run-private directory (under TMPDIR if set,
// else /dev/shm, else the system temp directory; removed on every exit
// short of SIGKILLing wavesim itself) — and turns on rank-failure
// recovery: a rank that dies or stalls mid-run is respawned, every rank
// restores the last complete snapshot and the lost cycles are replayed,
// bitwise. Fault injection comes from the GOLTS_FAULT environment
// variable (kind:rank=R,cycle=C[,substep=S][,ms=D][,gen=G], several
// joined by ';'; the kinds and grammar are internal/dist.ParseFaultPlans'),
// which the coordinator forwards to every rank. -expect-recovery exits 1 when the run finishes
// without recovering anything (the injected fault never fired).
//
// -min-ranks N enables degraded mode: a rank that exhausts
// -max-recoveries is retired for good, its parts are redistributed onto
// the survivors in contiguous blocks, and the run continues with fewer
// ranks (never below N). -parts still pins the bits, so the degraded
// seismograms stay byte-identical. -expect-degraded exits 1 unless at
// least one rank was retired.
//
// -report writes the run's wave.Stats as JSON — the keys of the "stats"
// object of waved's GET /jobs/{id} — next to the run's wall time
// (wall_seconds), the host's CPU count (num_cpu, gomaxprocs) and the
// injected fault (fault). `make fault-smoke` and `make chaos-smoke`
// publish it as BENCH_fault.json and BENCH_chaos.json.
//
// -level-times turns on the timing telemetry and prints the per-level
// stiffness-kernel table after the run, one column per rank (one column
// for the local backend); for rank processes it adds each one's peak
// resident set (VmHWM, MB), pointwise stepping time and share of the
// nodes (active, far-coarse, footprint). -part-rank places each part on
// an explicit rank (any placement is bitwise-identical; only wall time
// changes). -auto-tune calibrates the deployment shape — workers, or
// ranks at fixed parts — with short probe runs before the real one;
// -tune-report writes the table of measured shapes as BENCH_tune.json.
//
// -require-nonzero exits 1 unless a receiver saw the wave, so that a
// byte-comparison of the output cannot pass on all-zero traces.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"golts/internal/simio"
	"golts/internal/tune"
	"golts/wave"
)

func main() {
	// The distributed backend re-executes this binary for every rank;
	// RankMain routes those children into the rank runtime before flag
	// parsing.
	wave.RankMain()
	os.Exit(run())
}

// run is main with an exit status in place of os.Exit, so that every way
// out past the build closes the simulation — that flushes the sink, shuts
// the ranks down and removes the run's snapshot directory — and writes
// the requested profiles. An interrupt or SIGTERM cancels the run and
// leaves the same way.
func run() (code int) {
	cfgPath := flag.String("config", "", "JSON run configuration (overrides the physics flags)")
	outPath := flag.String("out", "", "seismogram output file (.csv or .json)")
	name := flag.String("mesh", "trench", "benchmark mesh")
	scale := flag.Float64("scale", 0.02, "mesh scale")
	physics := flag.String("physics", "acoustic", "acoustic or elastic")
	useLTS := flag.Bool("lts", true, "use LTS-Newmark (false = global Newmark)")
	cycles := flag.Int("cycles", 20, "coarse cycles to simulate")
	degree := flag.Int("degree", 4, "SEM polynomial degree")
	cfl := flag.Float64("cfl", 0.4, "Courant number")
	workers := flag.Int("workers", 0, "parallel rank workers (0 = GOMAXPROCS, 1 = sequential)")
	partMethod := flag.String("partitioner", string(wave.ScotchP), "element partitioner")
	seed := flag.Int64("seed", 1, "partitioner seed")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	ranks := flag.Int("ranks", 0, "rank processes to spawn (0 = run in this process)")
	parts := flag.Int("parts", 0, "decomposition width of the rank processes (0 = ranks); pins the result bits")
	partRank := flag.String("part-rank", "", "explicit part placement as comma-separated rank ids, one per part (empty: contiguous blocks)")
	recoverEvery := flag.Int("recover-every", 0, "checkpoint every N cycles and recover failed ranks (0: off)")
	maxRecoveries := flag.Int("max-recoveries", 0, "rank recoveries before giving up (0: default 3)")
	minRanks := flag.Int("min-ranks", 0, "degraded mode: survive permanent rank loss down to this many ranks (0: off)")
	expectDegraded := flag.Bool("expect-degraded", false, "exit 1 unless at least one rank was permanently retired")
	expectRecovery := flag.Bool("expect-recovery", false, "exit 1 unless at least one rank recovery happened")
	levelTimes := flag.Bool("level-times", false, "enable timing telemetry and print the per-rank, per-level kernel table")
	autoTune := flag.Duration("auto-tune", 0, "calibrate the deployment shape with probe runs under this wall budget (0: off)")
	tuneReport := flag.String("tune-report", "", "write the calibration's table of measured shapes as JSON to this path")
	requireNonzero := flag.Bool("require-nonzero", false, "exit 1 unless a receiver saw the wave: several nonzero samples and a peak above the floor (guards byte-comparisons against vacuous traces)")
	report := flag.String("report", "", "write the run's stats, wall time and host as JSON to this path")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			return fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				code = fail(err)
			}
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err == nil {
				runtime.GC() // materialise up-to-date allocation stats
				err = pprof.WriteHeapProfile(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				code = fail(err)
			}
		}()
	}

	// Execution options the config file does not carry.
	exec := []wave.Option{
		wave.WithPartitioner(wave.Partitioner(*partMethod)),
		wave.WithSeed(*seed),
	}
	if *ranks == 0 {
		var distOnly []string
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "parts", "part-rank", "recover-every", "max-recoveries", "min-ranks":
				distOnly = append(distOnly, "-"+f.Name)
			}
		})
		if len(distOnly) > 0 {
			return usage(fmt.Errorf("%s: only with -ranks N > 0", strings.Join(distOnly, ", ")))
		}
		exec = append(exec, wave.WithWorkers(*workers))
		if *levelTimes {
			exec = append(exec, wave.WithTelemetry())
		}
	} else {
		placement, err := parsePartRank(*partRank)
		if err != nil {
			return usage(err)
		}
		ckptEvery := -1 // Distributed semantics: negative disables
		switch {
		case *recoverEvery > 0:
			ckptEvery = *recoverEvery
		case *minRanks > 0:
			ckptEvery = 0 // degraded mode needs checkpoints; take the default interval
		}
		// The workers default (0, one per GOMAXPROCS slot) does not apply
		// to rank processes; an explicit -workers still reaches the
		// facade, which rejects a count above 1.
		if *workers != 0 {
			exec = append(exec, wave.WithWorkers(*workers))
		}
		exec = append(exec, wave.WithBackend(wave.Distributed{
			Ranks: *ranks, Parts: *parts,
			CheckpointEvery: ckptEvery, MaxRecoveries: *maxRecoveries,
			MinRanks:  *minRanks,
			Telemetry: *levelTimes,
			PartRank:  placement,
		}))
	}
	if *autoTune > 0 {
		exec = append(exec, wave.WithAutoTune(*autoTune))
	}
	if *outPath != "" {
		exec = append(exec, wave.WithSink(wave.FileSink(*outPath)))
	}
	opts := exec
	if *cfgPath == "" {
		scheme := wave.WithLTS()
		if !*useLTS {
			scheme = wave.WithGlobalNewmark()
		}
		opts = append([]wave.Option{
			wave.WithMesh(*name, *scale),
			wave.WithPhysics(wave.Physics(*physics)),
			wave.WithDegree(*degree),
			wave.WithCFL(*cfl),
			wave.WithCycles(*cycles),
			scheme,
		}, exec...)
	}
	// Reject impossible flags (ranks > parts, nonpositive cycles, a typo'd
	// physics) as a usage error before any mesh or operator work — the
	// typed *OptionError names the offending option.
	if err := wave.Validate(opts...); err != nil {
		return usage(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	t0 := time.Now()
	var sim *wave.Simulation
	var err error
	if *cfgPath != "" {
		sim, err = wave.FromConfigFile(*cfgPath, exec...)
	} else {
		sim, err = wave.New(opts...)
	}
	if err != nil {
		return fail(err)
	}
	defer sim.Close()

	st := sim.Stats()
	shape := fmt.Sprintf("%d workers", st.Workers)
	if st.Ranks > 0 {
		shape = fmt.Sprintf("%d ranks x %d parts", st.Ranks, st.Parts)
	}
	fmt.Printf("mesh %s: %d elements, %d DOF, %d levels, model speedup %.2fx; %s, startup %.2fs\n",
		st.Mesh, st.Elements, st.DOF, st.Levels, st.TheoreticalSpeedup, shape, time.Since(t0).Seconds())

	t0 = time.Now()
	if err := sim.Run(ctx, 0); err != nil {
		return fail(err)
	}
	wall := time.Since(t0).Seconds()
	st = sim.Stats()
	perCycle := wall / float64(st.Cycles)
	if st.LTS {
		fmt.Printf("LTS-Newmark: %d cycles in %.2fs (%.1f ms/cycle); work saving %.2fx (%.0f%% of Eq. 9 model)\n",
			st.Cycles, wall, 1e3*perCycle, st.EffectiveSpeedup, 100*st.Efficiency)
	} else {
		fmt.Printf("global Newmark: %d cycles (%d steps) in %.2fs (%.1f ms/cycle)\n",
			st.Cycles, st.Cycles*int64(st.PMax), wall, 1e3*perCycle)
	}
	if st.Engine != nil {
		fmt.Printf("%s engine: %d applies, %d messages, %d node-values exchanged\n",
			st.Backend, st.Engine.Applies, st.Engine.Messages, st.Engine.Volume)
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
		fmt.Printf("auto-tune: selected %s\n", shape)
	}
	if *levelTimes {
		printLevelTimes(st)
	}

	seis := sim.Seismograms()
	peakMax := 0.0
	for i := range seis.Traces {
		tr := &seis.Traces[i]
		peak, pt := tr.Peak(seis.Times)
		peakMax = max(peakMax, peak)
		fmt.Printf("receiver %-6s |u|max = %.3e  peak t = %.3f\n", tr.Name, peak, pt)
	}
	if *requireNonzero && !seis.SawWave() {
		fmt.Fprintf(os.Stderr, "wavesim: -require-nonzero set but no receiver saw the wave: largest |u|max %.3e, and no trace reaches %.0e over 2 nonzero samples; raise -scale or -cycles\n",
			peakMax, simio.WaveFloor)
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
			wave.Stats
			WallSeconds float64 `json:"wall_seconds"`
			NumCPU      int     `json:"num_cpu"`
			GoMaxProcs  int     `json:"gomaxprocs"`
			Fault       string  `json:"fault,omitempty"`
		}{st, wall, runtime.NumCPU(), runtime.GOMAXPROCS(0), os.Getenv("GOLTS_FAULT")}
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
		}{"tune", st.Mesh, *scale, st.Ranks, st.Parts,
			runtime.NumCPU(), runtime.GOMAXPROCS(0), sim.TunePlan()}
		if rep.Plan == nil {
			return usage(fmt.Errorf("-tune-report set without -auto-tune (no plan to report)"))
		}
		measured := 0
		for _, m := range rep.Plan.Measurements {
			if m.Err == "" && m.CycleNanos > 0 {
				measured++
			}
		}
		if measured < 2 {
			fmt.Fprintf(os.Stderr, "wavesim: calibration measured %d shapes, want >= 2\n", measured)
			return 1
		}
		if err := writeJSON(*tuneReport, rep); err != nil {
			return fail(err)
		}
		fmt.Printf("calibration report written to %s\n", *tuneReport)
	}
	if *expectRecovery && st.Recoveries == 0 {
		fmt.Fprintln(os.Stderr, "wavesim: -expect-recovery set but the run recovered nothing (fault never fired?)")
		return 1
	}
	if *expectDegraded && st.DegradedRanks == 0 {
		fmt.Fprintln(os.Stderr, "wavesim: -expect-degraded set but no rank was retired (fault never exhausted the budget?)")
		return 1
	}
	return 0
}

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
// time, then, for rank processes, each one's peak resident set in MB, the
// stepper's own pointwise milliseconds and the node counts of the rank's
// share they were spent on.
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
	if len(st.RankPeakRSS) > 0 {
		fmt.Print("peak MB ")
		for _, b := range st.RankPeakRSS {
			fmt.Printf(" %7.1f", float64(b)/(1<<20))
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

// usage reports a flag error with the usage text and returns exit status 2.
func usage(err error) int {
	fmt.Fprintln(os.Stderr, "wavesim:", err)
	flag.Usage()
	return 2
}

// fail reports err and returns the exit status that goes with it.
func fail(err error) int {
	fmt.Fprintln(os.Stderr, "wavesim:", err)
	return 1
}
