package wave_test

import (
	"bytes"
	"context"
	"math"
	"testing"

	"golts/internal/lts"
	"golts/internal/mesh"
	"golts/internal/newmark"
	"golts/internal/parallel"
	"golts/internal/partition"
	"golts/internal/sem"
	"golts/internal/simio"
	"golts/wave"
)

// legacyOperator abstracts the two physics choices for the transcribed
// driver, as in the pre-facade cmd/wavesim.
type legacyOperator interface {
	sem.BatchKernel
	NodeCoords(n int32) (x, y, z float64)
}

// legacyRun is a line-for-line transcription of the pre-facade
// cmd/wavesim driver (PR 2 state): the golden reference the facade must
// reproduce bitwise for a fixed (workers, partitioner, seed).
func legacyRun(t *testing.T, cfg *simio.Config, workers int, method partition.Method, seed int64) *simio.SeismogramSet {
	t.Helper()
	gen, ok := mesh.Generators[cfg.Mesh]
	if !ok {
		t.Fatalf("unknown mesh %q", cfg.Mesh)
	}
	m := gen(cfg.Scale)
	lv := mesh.AssignLevels(m, cfg.CFL/float64(cfg.Degree*cfg.Degree), 0)

	var op legacyOperator
	switch cfg.Physics {
	case "acoustic":
		a, err := sem.NewAcoustic3D(m, cfg.Degree, false)
		if err != nil {
			t.Fatal(err)
		}
		op = a
	case "elastic":
		e, err := sem.NewElastic3D(m, cfg.Degree, false, 0)
		if err != nil {
			t.Fatal(err)
		}
		op = e
	}
	nc := op.Comps()

	var step sem.BatchKernel = op
	if workers <= 0 {
		workers = parallel.DefaultWorkers()
	}
	if workers > 1 {
		part, err := partition.Assign(m, lv, workers, method, seed)
		if err != nil {
			t.Fatal(err)
		}
		pop, err := parallel.NewOperator(op, part, workers)
		if err != nil {
			t.Fatal(err)
		}
		defer pop.Close()
		step = pop
	}

	x0, x1, y0, y1, z0, z1 := m.Extent()
	if cfg.Source.F0 == 0 {
		dur := float64(cfg.Cycles) * lv.CoarseDt
		cfg.Source = simio.SourceSpec{
			X: (x0 + x1) / 2, Y: (y0 + y1) / 2, Z: z0 + (z1-z0)/4,
			Comp: min(cfg.Source.Comp, nc-1), F0: 8 / dur, T0: dur / 5,
		}
	}
	if len(cfg.Receivers) == 0 {
		cfg.Receivers = []simio.ReceiverSpec{{
			Name: "st0", X: (x0+x1)/2 + (x1-x0)/12, Y: (y0 + y1) / 2, Z: z0,
			Comp: min(cfg.Source.Comp, nc-1),
		}}
	}
	srcNode := legacyNearest(op, cfg.Source.X, cfg.Source.Y, cfg.Source.Z)
	src := sem.Source{
		Dof: int(srcNode)*nc + min(cfg.Source.Comp, nc-1),
		W:   sem.Ricker{F0: cfg.Source.F0, T0: cfg.Source.T0},
	}
	var recs []*sem.Receiver
	for _, r := range cfg.Receivers {
		n := legacyNearest(op, r.X, r.Y, r.Z)
		recs = append(recs, &sem.Receiver{Dof: int(n)*nc + min(r.Comp, nc-1)})
	}
	var sigma []float64
	if cfg.Sponge.Strength > 0 {
		sigma = sem.SpongeProfile(op.NumNodes(), op.NodeCoords,
			x0, x1, y0, y1, z0, z1, cfg.Sponge.Faces, cfg.Sponge.Width, cfg.Sponge.Strength)
	}

	if cfg.LTS {
		s, err := lts.FromMeshLevels(step, lv, true)
		if err != nil {
			t.Fatal(err)
		}
		s.SetSources([]sem.Source{src})
		s.Sigma = sigma
		for i := 0; i < cfg.Cycles; i++ {
			s.Step()
			for _, r := range recs {
				r.Record(s.Time(), s.U)
			}
		}
	} else {
		g := newmark.New(step, lv.CoarseDt/float64(lv.PMax()))
		g.Sources = []sem.Source{src}
		g.Sigma = sigma
		for i := 0; i < cfg.Cycles; i++ {
			g.Run(lv.PMax())
			for _, r := range recs {
				r.Record(g.Time(), g.U)
			}
		}
	}

	var set simio.SeismogramSet
	for i, r := range recs {
		spec := cfg.Receivers[i]
		if err := set.AddTrace(spec.Name, spec.X, spec.Y, spec.Z, r.Times, r.Values); err != nil {
			t.Fatal(err)
		}
	}
	return &set
}

func legacyNearest(op legacyOperator, x, y, z float64) int32 {
	best, bd := int32(0), math.Inf(1)
	for n := 0; n < op.NumNodes(); n++ {
		nx, ny, nz := op.NodeCoords(int32(n))
		d := (nx-x)*(nx-x) + (ny-y)*(ny-y) + (nz-z)*(nz-z)
		if d < bd {
			best, bd = int32(n), d
		}
	}
	return best
}

// goldenCase is one cell of the equivalence matrix.
type goldenCase struct {
	name    string
	cfg     simio.Config
	workers int
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{
			name: "acoustic-lts-1w",
			cfg: simio.Config{
				Mesh: "trench", Scale: 0.0005, Physics: "acoustic",
				Degree: 4, CFL: 0.4, LTS: true, Cycles: 3,
				// Receiver next to the source so the short run records a
				// nonzero signal.
				Source:    simio.SourceSpec{X: 0.5, Y: 0.5, Z: 0.5, F0: 10, T0: 0.05},
				Receivers: []simio.ReceiverSpec{{Name: "near", X: 0.5, Y: 0.5, Z: 0.5}},
			},
			workers: 1,
		},
		{
			name: "acoustic-global-4w",
			cfg: simio.Config{
				Mesh: "trench", Scale: 0.0005, Physics: "acoustic",
				Degree: 4, CFL: 0.4, LTS: false, Cycles: 2,
			},
			workers: 4,
		},
		{
			name: "elastic-lts-4w",
			cfg: simio.Config{
				Mesh: "trench", Scale: 0.0005, Physics: "elastic",
				Degree: 3, CFL: 0.4, LTS: true, Cycles: 3,
				Source: simio.SourceSpec{X: 0.5, Y: 0.5, Z: 0.3, Comp: 2, F0: 12, T0: 0.08},
				Receivers: []simio.ReceiverSpec{
					{Name: "a", X: 0.4, Y: 0.5, Z: 0, Comp: 2},
					{Name: "b", X: 0.6, Y: 0.5, Z: 0, Comp: 0},
				},
				Sponge: simio.SpongeSpec{
					Width: 0.3, Strength: 30,
					Faces: [6]bool{true, true, true, true, false, true},
				},
			},
			workers: 4,
		},
		{
			name: "elastic-global-1w",
			cfg: simio.Config{
				Mesh: "trench", Scale: 0.0005, Physics: "elastic",
				Degree: 3, CFL: 0.4, LTS: false, Cycles: 2,
			},
			workers: 1,
		},
		{
			// A component-only source (F0 == 0): the default placement and
			// wavelet apply but the force and default receiver act on the
			// requested component, as in the legacy driver.
			name: "elastic-lts-default-source-comp",
			cfg: simio.Config{
				Mesh: "trench", Scale: 0.0005, Physics: "elastic",
				// 6 cycles so the default receiver (which follows the
				// source's z component) sees a nonzero front.
				Degree: 3, CFL: 0.4, LTS: true, Cycles: 6,
				Source: simio.SourceSpec{Comp: 2},
			},
			workers: 1,
		},
	}
}

// facadeOptions translates a golden case into wave options, mirroring
// what cmd/wavesim does.
func facadeOptions(c goldenCase) []wave.Option {
	cfg := c.cfg
	opts := []wave.Option{
		wave.WithMesh(cfg.Mesh, cfg.Scale),
		wave.WithPhysics(wave.Physics(cfg.Physics)),
		wave.WithDegree(cfg.Degree),
		wave.WithCFL(cfg.CFL),
		wave.WithCycles(cfg.Cycles),
		wave.WithWorkers(c.workers),
		wave.WithPartitioner(wave.ScotchP),
		wave.WithSeed(7),
	}
	if cfg.LTS {
		opts = append(opts, wave.WithLTS())
	} else {
		opts = append(opts, wave.WithGlobalNewmark())
	}
	if cfg.Source.F0 != 0 {
		opts = append(opts, wave.WithSource(wave.Source{
			X: cfg.Source.X, Y: cfg.Source.Y, Z: cfg.Source.Z,
			Comp: cfg.Source.Comp, F0: cfg.Source.F0, T0: cfg.Source.T0,
		}))
	} else if cfg.Source.Comp != 0 {
		opts = append(opts, wave.WithSourceComponent(cfg.Source.Comp))
	}
	for _, r := range cfg.Receivers {
		opts = append(opts, wave.WithReceiver(wave.Receiver{
			Name: r.Name, X: r.X, Y: r.Y, Z: r.Z, Comp: r.Comp,
		}))
	}
	if cfg.Sponge.Strength > 0 {
		opts = append(opts, wave.WithSponge(wave.Sponge{
			Width: cfg.Sponge.Width, Strength: cfg.Sponge.Strength, Faces: cfg.Sponge.Faces,
		}))
	}
	return opts
}

// TestGoldenEquivalence pins wave.Simulation seismograms bitwise to the
// pre-refactor cmd/wavesim path across acoustic/elastic, LTS/global and
// 1/4 workers, including the streamed CSV and batch JSON encodings.
func TestGoldenEquivalence(t *testing.T) {
	for _, c := range goldenCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			cfgCopy := c.cfg // legacyRun mutates the config (source defaulting)
			want := legacyRun(t, &cfgCopy, c.workers, partition.ScotchP, 7)

			var csvBuf, jsonBuf bytes.Buffer
			sim, err := wave.New(append(facadeOptions(c),
				wave.WithSink(wave.CSVSink(&csvBuf)),
				wave.WithSink(wave.JSONSink(&jsonBuf)),
			)...)
			if err != nil {
				t.Fatal(err)
			}
			defer sim.Close()
			if err := sim.Run(context.Background(), 0); err != nil {
				t.Fatal(err)
			}

			got := sim.Seismograms()
			if len(got.Times) != len(want.Times) {
				t.Fatalf("got %d samples, want %d", len(got.Times), len(want.Times))
			}
			for i := range want.Times {
				if got.Times[i] != want.Times[i] {
					t.Fatalf("time[%d] = %v, want %v (bitwise)", i, got.Times[i], want.Times[i])
				}
			}
			if len(got.Traces) != len(want.Traces) {
				t.Fatalf("got %d traces, want %d", len(got.Traces), len(want.Traces))
			}
			nonzero := false
			for ti := range want.Traces {
				w, g := want.Traces[ti], got.Traces[ti]
				if g.Name != w.Name || g.X != w.X || g.Y != w.Y || g.Z != w.Z {
					t.Fatalf("trace %d metadata mismatch: got %+v, want %+v", ti, g, w)
				}
				for i := range w.Values {
					if g.Values[i] != w.Values[i] {
						t.Fatalf("trace %q sample %d = %v, want %v (bitwise)",
							w.Name, i, g.Values[i], w.Values[i])
					}
					if w.Values[i] != 0 {
						nonzero = true
					}
				}
			}
			if !nonzero {
				t.Error("golden run recorded only zeros; the comparison is vacuous")
			}

			// The streamed CSV and accumulated JSON sinks must match the
			// legacy batch writers byte for byte.
			if err := sim.Close(); err != nil {
				t.Fatal(err)
			}
			var wantCSV, wantJSON bytes.Buffer
			if err := want.WriteCSV(&wantCSV); err != nil {
				t.Fatal(err)
			}
			if err := want.WriteJSON(&wantJSON); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(csvBuf.Bytes(), wantCSV.Bytes()) {
				t.Error("streamed CSV differs from legacy WriteCSV output")
			}
			if !bytes.Equal(jsonBuf.Bytes(), wantJSON.Bytes()) {
				t.Error("JSON sink output differs from legacy WriteJSON output")
			}
		})
	}
}
