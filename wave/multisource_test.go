package wave_test

import (
	"context"
	"errors"
	"testing"

	"golts/internal/lts"
	"golts/internal/mesh"
	"golts/internal/sem"
	"golts/wave"
)

// TestMultiSourceMatchesDirect checks the accumulating WithSource against
// a directly built LTS scheme carrying the same two point sources: the
// facade must inject both, each at its node's level, bitwise.
func TestMultiSourceMatchesDirect(t *testing.T) {
	const scale, cycles = 0.0005, 3
	srcs := []wave.Source{
		{X: 0.5, Y: 0.5, Z: 0.5, F0: 10, T0: 0.05},
		{X: 0.3, Y: 0.6, Z: 0.4, F0: 14, T0: 0.03},
	}
	sim, err := wave.New(
		wave.WithMesh("trench", scale), wave.WithPhysics(wave.Acoustic),
		wave.WithLTS(), wave.WithCycles(cycles),
		wave.WithSource(srcs[0]), wave.WithSource(srcs[1]),
		wave.WithReceiver(wave.Receiver{Name: "near", X: 0.5, Y: 0.5, Z: 0.5}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if got := sim.Sources(); len(got) != 2 || got[0] != srcs[0] || got[1] != srcs[1] {
		t.Fatalf("Sources() = %+v, want the two configured sources", got)
	}
	if err := sim.Run(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	facade := sim.Seismograms()

	m := mesh.Generators["trench"](scale)
	lv := mesh.AssignLevels(m, 0.4/16, 0)
	op, err := sem.NewAcoustic3D(m, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	var semSrcs []sem.Source
	for _, s := range srcs {
		n := legacyNearest(op, s.X, s.Y, s.Z)
		semSrcs = append(semSrcs, sem.Source{Dof: int(n), W: sem.Ricker{F0: s.F0, T0: s.T0}})
	}
	sch, err := lts.FromMeshLevels(op, lv, true)
	if err != nil {
		t.Fatal(err)
	}
	sch.SetSources(semSrcs)
	rec := &sem.Receiver{Dof: int(legacyNearest(op, 0.5, 0.5, 0.5))}
	for i := 0; i < cycles; i++ {
		sch.Step()
		rec.Record(sch.Time(), sch.U)
	}
	want := rec.Values
	got := facade.Traces[0].Values
	if len(got) != len(want) {
		t.Fatalf("trace length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d: facade %v != direct %v", i, got[i], want[i])
		}
	}
	if !facade.SawWave() {
		t.Fatal("no trace reaches simio.WaveFloor over two nonzero samples; the comparison is vacuous")
	}
}

// TestWithSourceComponentValidation checks per-source eager and build
// validation of the accumulating option.
func TestWithSourceComponentValidation(t *testing.T) {
	_, err := wave.New(
		wave.WithSource(wave.Source{X: 0, Y: 0, Z: 0, F0: 5}),
		wave.WithSource(wave.Source{X: 1, Y: 1, Z: 1, F0: 5, Comp: 7}),
	)
	if !errors.Is(err, wave.ErrComponentRange) {
		t.Fatalf("bad second source error = %v, want ErrComponentRange", err)
	}
	_, err = wave.New(
		wave.WithPhysics(wave.Acoustic),
		wave.WithSource(wave.Source{X: 0, Y: 0, Z: 0, F0: 5}),
		wave.WithSource(wave.Source{X: 1, Y: 1, Z: 1, F0: 5, Comp: 2}),
	)
	if !errors.Is(err, wave.ErrComponentRange) {
		t.Fatalf("acoustic comp-2 source error = %v, want ErrComponentRange", err)
	}
}
