// Command meshgen generates one of the benchmark meshes and prints its LTS
// structure: element counts per p-level, theoretical speedup (Eq. 9) and
// CFL statistics.
//
// Usage:
//
//	meshgen -mesh trench|trench-big|embedding|crust [-scale f] [-cfl c] [-smooth]
package main

import (
	"flag"
	"fmt"
	"os"

	"golts/internal/mesh"
)

func main() {
	name := flag.String("mesh", "trench", "benchmark mesh name")
	scale := flag.Float64("scale", 0.3, "mesh scale (1.0 ~ 1/10 of the paper)")
	cfl := flag.Float64("cfl", 0.4, "Courant number")
	smooth := flag.Bool("smooth", false, "limit level jumps between neighbours to 1")
	vtk := flag.String("vtk", "", "write the mesh with p-levels as legacy VTK (paper Fig. 4)")
	flag.Parse()

	gen, ok := mesh.Generators[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "meshgen: unknown mesh %q (have: trench, trench-big, embedding, crust)\n", *name)
		os.Exit(2)
	}
	m := gen(*scale)
	lv := mesh.AssignLevels(m, *cfl, 0)
	if *smooth {
		promoted := lv.Smooth(m, 1)
		fmt.Printf("smoothing promoted %d elements\n", promoted)
	}
	if err := lv.Validate(m); err != nil {
		fmt.Fprintf(os.Stderr, "meshgen: invalid levels: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("mesh %s at scale %g\n", m.Name, *scale)
	fmt.Printf("  dimensions: %d x %d x %d = %d elements\n", m.NX, m.NY, m.NZ, m.NumElements())
	fmt.Printf("  DOF (degree-4 GLL nodes): %d\n", m.NumGLLNodes(4))
	fmt.Printf("  global CFL step (non-LTS): %.4g\n", m.GlobalDt(*cfl))
	fmt.Printf("  LTS coarse step: %.4g  (%d levels)\n", lv.CoarseDt, lv.NumLevels)
	fmt.Printf("  theoretical LTS speedup (Eq. 9): %.2fx\n", lv.TheoreticalSpeedup())
	fmt.Println("  level   p    #elements  fraction")
	for k := 0; k < lv.NumLevels; k++ {
		fmt.Printf("  %5d  %3d  %10d  %7.3f%%\n",
			k+1, lv.P[k], lv.Count[k], 100*float64(lv.Count[k])/float64(m.NumElements()))
	}
	if *vtk != "" {
		levels := make([]float64, m.NumElements())
		for e := range levels {
			levels[e] = float64(lv.Lvl[e])
		}
		// The file counts as written only once it is closed without error.
		f, err := os.Create(*vtk)
		if err == nil {
			err = mesh.WriteVTK(f, m, map[string][]float64{"plevel": levels})
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "meshgen:", err)
			os.Exit(1)
		}
		fmt.Printf("VTK written to %s\n", *vtk)
	}
}
