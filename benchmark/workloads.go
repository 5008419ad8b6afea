package main

import (
	"encoding/json"
	"fmt"

	"golts/wave"
)

// All workloads run the trench mesh at degree 4, CFL 0.4, partitioned
// with scotch-p: the paper's configuration.
const (
	meshName = "trench"
	degree   = 4
	cfl      = 0.4

	// warmCycles are stepped before timing starts and count as set-up:
	// they absorb the lazy batch-plan builds of the first Step and are one
	// full default snapshot interval of the distributed backend.
	warmCycles = 4
	// blockCycles is the granularity of the timed loop: a multiple of the
	// distributed backend's default snapshot interval (4), so every block
	// pays exactly one snapshot and the mean per cycle is comparable
	// between rounds of different length.
	blockCycles = 4
	// checkCycles is the seismogram prefix the correctness digests cover.
	// It is fixed, so the digest does not depend on how many cycles fit
	// into the timed window on a given machine.
	checkCycles = 12

	// serveWarmJobs are submitted before timing starts; on serve-warm they
	// are the first job of each of the four configurations.
	serveWarmJobs = 4
	serveClients  = 2
)

// workload is one named set of inputs. Solver workloads step a
// wave.Simulation; serve workloads drive an in-process job service.
type workload struct {
	Name string
	// Why is the one line BENCHMARK.json carries for the workload.
	Why string

	Serve bool
	// Solver workloads.
	Physics wave.Physics
	LTS     bool
	Scale   float64
	Workers int
	Ranks   int // > 0: wave.Distributed{Ranks, Parts: Ranks}
	// Serve workloads: jobs cycle through JobScales, or (Cold) jitter
	// JobScales[0] so that every job is a distinct configuration.
	Cold      bool
	JobScales []float64
	JobCycles int
}

var workloads = []workload{
	{
		Name: "seq-lts-acoustic", Physics: wave.Acoustic, LTS: true, Scale: 0.02, Workers: 1,
		Why: "single-threaded baseline; kernel under half the cycle, so internal/lts pointwise work dominates and a kernel-only gain is diluted",
	},
	{
		Name: "seq-global-elastic", Physics: wave.Elastic, LTS: false, Scale: 0.005, Workers: 1,
		Why: "kernel-dominated global Newmark, one all-elements batch plan; bypasses internal/lts, so LTS bookkeeping changes must not move it",
	},
	{
		Name: "shm2-lts-elastic", Physics: wave.Elastic, LTS: true, Scale: 0.005, Workers: 2,
		Why: "internal/parallel dispatch, per-rank sub-plans and node-sharded merge; same kernels through small per-rank batches",
	},
	{
		Name: "dist2-lts-elastic", Physics: wave.Elastic, LTS: true, Scale: 0.005, Workers: 1, Ranks: 2,
		Why: "shm2's configuration on 2 rank processes with default recovery: halo exchange, coordinator control, every-4th-cycle snapshot",
	},
	{
		Name: "serve-warm", Serve: true, JobScales: []float64{0.0046, 0.0050, 0.0054, 0.0058}, JobCycles: 10,
		Why: "closed loop, 2 clients, jobs cycle 4 configurations: service overhead + run + row streaming with builds served from the artifact cache",
	},
	{
		Name: "serve-cold", Serve: true, Cold: true, JobScales: []float64{0.0050}, JobCycles: 10,
		Why: "closed loop, 2 clients, every job a distinct configuration: mesh + levels + operator + batch-plan build dominates; bypasses the cache",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// quickened shrinks a workload to the tiny size `-quick` and the tests
// run; timings at that size mean nothing.
func (w workload) quickened() workload {
	if w.Serve {
		w.JobCycles = 4
		w.JobScales = append([]float64(nil), w.JobScales...)
		for i := range w.JobScales {
			w.JobScales[i] /= 10
		}
	} else {
		w.Scale = 0.0005
	}
	return w
}

// sourceSpots are the four fixed source positions the seed chooses from,
// all in the refined strip along the mesh's x centre: dx is the offset
// from the centre in coarse element sizes, fy the fraction of the y
// extent.
var sourceSpots = [4]struct{ dx, fy float64 }{
	{-0.3, 0.30}, {0.2, 0.45}, {-0.1, 0.55}, {0.4, 0.70},
}

func spotOf(seed int64) int { return int(((seed-1)%4 + 4) % 4) }

// placement is the generated physical input of one simulation: the
// program receives only this (and the partitioner seed).
type placement struct {
	Source    wave.Source
	Receivers []wave.Receiver
}

// place derives source and receivers from the seed for the trench mesh
// at the given scale. Receivers sit within two coarse elements of the
// source, so every trace is nonzero inside the checkCycles prefix and no
// byte comparison can pass vacuously.
func place(scale float64, physics wave.Physics, seed int64) (placement, error) {
	plan, err := wave.Describe(wave.WithMesh(meshName, scale), wave.WithDegree(degree), wave.WithCFL(cfl))
	if err != nil {
		return placement{}, err
	}
	sp := sourceSpots[spotOf(seed)]
	x := (plan.X0+plan.X1)/2 + sp.dx
	y := plan.Y0 + sp.fy*(plan.Y1-plan.Y0)
	z := (plan.Z0 + plan.Z1) / 2
	srcComp, comps := 0, [3]int{0, 0, 0}
	if physics == wave.Elastic {
		srcComp, comps = 2, [3]int{0, 1, 2}
	}
	return placement{
		Source: wave.Source{X: x, Y: y, Z: z, Comp: srcComp, F0: 1 / (40 * plan.CoarseDt), T0: 2 * plan.CoarseDt},
		Receivers: []wave.Receiver{
			{Name: "r0", X: x + 0.4, Y: y, Z: z, Comp: comps[0]},
			{Name: "r1", X: x, Y: y + 1.3, Z: z, Comp: comps[1]},
			{Name: "r2", X: x - 1.6, Y: y, Z: z + 0.9, Comp: comps[2]},
		},
	}, nil
}

// options are the facade options of a solver workload for one seed. The
// seed is also the partitioner seed.
func (w workload) options(pl placement, seed int64) []wave.Option {
	opts := []wave.Option{
		wave.WithMesh(meshName, w.Scale),
		wave.WithPhysics(w.Physics),
		wave.WithDegree(degree),
		wave.WithCFL(cfl),
		wave.WithPartitioner(wave.ScotchP),
		wave.WithSeed(seed),
		wave.WithWorkers(w.Workers),
		wave.WithSource(pl.Source),
	}
	if w.LTS {
		opts = append(opts, wave.WithLTS())
	} else {
		opts = append(opts, wave.WithGlobalNewmark())
	}
	if w.Ranks > 0 {
		opts = append(opts, wave.WithBackend(wave.Distributed{Ranks: w.Ranks, Parts: w.Ranks}))
	}
	for _, r := range pl.Receivers {
		opts = append(opts, wave.WithReceiver(r))
	}
	return opts
}

// splitmix64 hashes (seed, i) to 64 well-mixed bits, so job i of a
// workload is a pure function of the seed with no generator state.
func splitmix64(seed int64, i int) uint64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// serveGen generates the job sequence of a serve workload. Job i is a
// pure function of (workload, seed, i): serve-warm walks the four
// configurations in a seed-chosen order that repeats every four jobs, so
// the warm-up jobs 0..3 touch each once; serve-cold jitters the scale per
// job so that no two jobs share an artifact-cache key while the generated
// mesh, and so the work, stays the same.
type serveGen struct {
	w      workload
	seed   int64
	places []placement // source and receivers per entry of w.JobScales
	perm   [4]int      // serve-warm configuration order
}

func newServeGen(w workload, seed int64) (*serveGen, error) {
	g := &serveGen{w: w, seed: seed, perm: [4]int{0, 1, 2, 3}}
	for _, sc := range w.JobScales {
		pl, err := place(sc, wave.Acoustic, seed)
		if err != nil {
			return nil, err
		}
		g.places = append(g.places, pl)
	}
	for k := 3; k > 0; k-- {
		j := int(splitmix64(seed, -1-k) % uint64(k+1))
		g.perm[k], g.perm[j] = g.perm[j], g.perm[k]
	}
	return g, nil
}

// job returns job i's configuration key (equal keys must stream
// byte-identical rows) and its POST /jobs body.
func (g *serveGen) job(i int) (key string, body []byte) {
	c, scale := 0, g.w.JobScales[0]
	if g.w.Cold {
		scale *= 1 + 2e-5*float64(i+1) + 2e-6*float64(splitmix64(g.seed, i)%10)
		key = fmt.Sprintf("job%d", i)
	} else {
		c = g.perm[i%4]
		scale = g.w.JobScales[c]
		key = fmt.Sprintf("cfg%d", c)
	}
	pl := g.places[c]
	rcvs := make([]map[string]any, len(pl.Receivers))
	for k, r := range pl.Receivers {
		rcvs[k] = map[string]any{"name": r.Name, "x": r.X, "y": r.Y, "z": r.Z, "comp": 0}
	}
	body, err := json.Marshal(map[string]any{
		"mesh": meshName, "scale": scale, "physics": "acoustic", "degree": degree, "cfl": cfl,
		"lts": true, "cycles": g.w.JobCycles, "workers": 1, "partitioner": "scotch-p", "seed": g.seed,
		"source": map[string]any{"x": pl.Source.X, "y": pl.Source.Y, "z": pl.Source.Z, "comp": 0,
			"f0": pl.Source.F0, "t0": pl.Source.T0},
		"receivers": rcvs,
	})
	if err != nil {
		panic(err) // a map of numbers and strings always marshals
	}
	return key, body
}
