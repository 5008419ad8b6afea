// Command wavesim runs a 3-D wave simulation on a benchmark mesh, with or
// without LTS, and writes receiver seismograms. It is a thin client of
// the public golts/wave facade.
//
// Usage:
//
//	wavesim [-config run.json] [-out seismograms.csv]
//	wavesim [-mesh trench] [-scale 0.02] [-physics acoustic|elastic]
//	        [-lts] [-cycles 20] [-degree 4] [-cfl 0.4]
//	        [-workers 0] [-partitioner scotch-p]
//	        [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// -workers N runs the stiffness applications on N persistent rank workers
// (the shared-memory parallel engine); 0 means one per GOMAXPROCS slot, 1
// disables the engine. Results are bitwise reproducible for a fixed
// (workers, partitioner, seed); the GOMAXPROCS default therefore varies
// in the last FP digits across hosts with different core counts — pin
// -workers for cross-host reproducibility. A JSON config (see
// internal/simio.Config) overrides the other flags and may place sources,
// receivers and a sponge layer explicitly. The -out format is selected by
// file extension: ".json" writes JSON, anything else CSV.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"golts/wave"
)

func main() { os.Exit(run()) }

// run is main with an exit status in place of os.Exit, so that every way
// out past the build closes the simulation, flushes its sink and writes
// the requested profiles.
func run() (code int) {
	cfgPath := flag.String("config", "", "JSON run configuration (overrides other flags)")
	outPath := flag.String("out", "", "seismogram output file (.csv or .json)")
	name := flag.String("mesh", "trench", "benchmark mesh")
	scale := flag.Float64("scale", 0.02, "mesh scale")
	physics := flag.String("physics", "acoustic", "acoustic or elastic")
	useLTS := flag.Bool("lts", true, "use LTS-Newmark (false = global Newmark)")
	cycles := flag.Int("cycles", 20, "coarse steps to simulate")
	degree := flag.Int("degree", 4, "SEM polynomial degree")
	cfl := flag.Float64("cfl", 0.4, "Courant number")
	workers := flag.Int("workers", 0, "parallel rank workers (0 = GOMAXPROCS, 1 = sequential)")
	partMethod := flag.String("partitioner", string(wave.ScotchP), "element partitioner for -workers > 1")
	seed := flag.Int64("seed", 1, "partitioner seed")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
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
		wave.WithWorkers(*workers),
		wave.WithPartitioner(wave.Partitioner(*partMethod)),
		wave.WithSeed(*seed),
	}
	if *outPath != "" {
		exec = append(exec, wave.WithSink(wave.FileSink(*outPath)))
	}

	var sim *wave.Simulation
	var err error
	if *cfgPath != "" {
		sim, err = wave.FromConfigFile(*cfgPath, exec...)
	} else {
		scheme := wave.WithLTS()
		if !*useLTS {
			scheme = wave.WithGlobalNewmark()
		}
		sim, err = wave.New(append([]wave.Option{
			wave.WithMesh(*name, *scale),
			wave.WithPhysics(wave.Physics(*physics)),
			wave.WithDegree(*degree),
			wave.WithCFL(*cfl),
			wave.WithCycles(*cycles),
			scheme,
		}, exec...)...)
	}
	if err != nil {
		return fail(err)
	}
	defer sim.Close()

	st := sim.Stats()
	fmt.Printf("mesh %s: %d elements, %d DOF, %d levels, model speedup %.2fx, %d workers\n",
		st.Mesh, st.Elements, st.DOF, st.Levels, st.TheoreticalSpeedup, st.Workers)

	t0 := time.Now()
	if err := sim.Run(context.Background(), 0); err != nil {
		return fail(err)
	}
	st = sim.Stats()
	if st.LTS {
		fmt.Printf("LTS-Newmark: %d cycles in %.2fs; work saving %.2fx (%.0f%% of Eq. 9 model)\n",
			st.Cycles, time.Since(t0).Seconds(), st.EffectiveSpeedup, 100*st.Efficiency)
	} else {
		fmt.Printf("global Newmark: %d steps in %.2fs\n",
			st.Cycles*int64(st.PMax), time.Since(t0).Seconds())
	}
	if st.Engine != nil {
		fmt.Printf("parallel engine: %d applies, %d messages, %d node-values exchanged\n",
			st.Engine.Applies, st.Engine.Messages, st.Engine.Volume)
	}

	seis := sim.Seismograms()
	for i := range seis.Traces {
		tr := &seis.Traces[i]
		peak, pt := tr.Peak(seis.Times)
		fmt.Printf("receiver %-6s |u|max = %.3e  peak t = %.3f\n", tr.Name, peak, pt)
	}
	// Close flushes the sink; report only after the data is on disk.
	if err := sim.Close(); err != nil {
		return fail(err)
	}
	if *outPath != "" {
		fmt.Printf("seismograms written to %s\n", *outPath)
	}
	return 0
}

// fail reports err and returns the exit status that goes with it.
func fail(err error) int {
	fmt.Fprintln(os.Stderr, "wavesim:", err)
	return 1
}
