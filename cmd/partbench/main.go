// Command partbench compares the four LTS-aware partitioning strategies
// (§III-B) on a benchmark mesh: load imbalance (total and per level),
// weighted graph cut and exact MPI volume per LTS cycle.
//
// Usage:
//
//	partbench -mesh trench [-scale f] [-k 16] [-imbalance 0.05] [-seed n]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"golts/internal/mesh"
	"golts/internal/partition"
)

func main() {
	name := flag.String("mesh", "trench", "benchmark mesh")
	scale := flag.Float64("scale", 0.3, "mesh scale")
	k := flag.Int("k", 16, "number of parts")
	imb := flag.Float64("imbalance", 0.05, "balance tolerance (PaToH final_imbal analogue)")
	seed := flag.Int64("seed", 20150525, "random seed")
	cfl := flag.Float64("cfl", 0.4, "Courant number")
	vtk := flag.String("vtk", "", "write mesh with per-method partition ids as legacy VTK (paper Fig. 6)")
	all := flag.Bool("all", false, "include the paper-discussed variants (scotch-pm, coarse-only)")
	flag.Parse()

	gen, ok := mesh.Generators[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "partbench: unknown mesh %q\n", *name)
		os.Exit(2)
	}
	m := gen(*scale)
	lv := mesh.AssignLevels(m, *cfl, 0)
	fmt.Printf("mesh %s: %d elements, %d levels, %.2fx model speedup, K=%d\n\n",
		m.Name, m.NumElements(), lv.NumLevels, lv.TheoreticalSpeedup(), *k)
	methods := partition.Methods
	if *all {
		methods = partition.AllMethods
	}
	cellData := map[string][]float64{}
	fmt.Printf("%-12s %9s %9s %12s %12s %9s %10s\n",
		"method", "total-imb", "max-lvl", "graph-cut", "mpi-volume", "time", "per-level")
	for _, method := range methods {
		t0 := time.Now()
		res, err := partition.PartitionMesh(m, lv, partition.Options{
			K: *k, Method: method, Imbalance: *imb, Seed: *seed,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "partbench: %s: %v\n", method, err)
			os.Exit(1)
		}
		el := time.Since(t0)
		mt := partition.Evaluate(m, lv, res.Part, *k)
		per := make([]string, len(mt.PerLevelImbalance))
		for i, v := range mt.PerLevelImbalance {
			per[i] = fmt.Sprintf("%.0f", v)
		}
		fmt.Printf("%-12s %8.1f%% %8.1f%% %12.3e %12.3e %8.1fs [%s]\n",
			method, mt.TotalImbalance, mt.MaxLevelImbalance,
			float64(mt.GraphCut), float64(mt.CommVolume), el.Seconds(),
			strings.Join(per, " "))
		data := make([]float64, len(res.Part))
		for e, p := range res.Part {
			data[e] = float64(p)
		}
		cellData["part_"+string(method)] = data
	}
	if *vtk != "" {
		levels := make([]float64, m.NumElements())
		for e := range levels {
			levels[e] = float64(lv.Lvl[e])
		}
		cellData["plevel"] = levels
		// The file counts as written only once it is closed without error.
		f, err := os.Create(*vtk)
		if err == nil {
			err = mesh.WriteVTK(f, m, cellData)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "partbench:", err)
			os.Exit(1)
		}
		fmt.Printf("VTK written to %s\n", *vtk)
	}
}
