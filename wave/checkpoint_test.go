package wave_test

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"testing"

	"golts/wave"
)

// ckptOpts is the shared tiny configuration of the checkpoint tests:
// explicit source and receivers so every build resolves identical dofs.
func ckptOpts(physics wave.Physics, lts bool, cycles int, extra ...wave.Option) []wave.Option {
	comp := 0
	if physics == wave.Elastic {
		comp = 1
	}
	opts := []wave.Option{
		wave.WithMesh("trench", 0.0005),
		wave.WithPhysics(physics),
		wave.WithCycles(cycles),
		wave.WithSource(wave.Source{X: 0.5, Y: 0.5, Z: 0.3, Comp: comp, F0: 10, T0: 0.05}),
		wave.WithReceiver(wave.Receiver{Name: "surf", X: 0.55, Y: 0.5, Z: 0, Comp: comp}),
		wave.WithReceiver(wave.Receiver{Name: "deep", X: 0.4, Y: 0.45, Z: 0.6, Comp: 0}),
	}
	if lts {
		opts = append(opts, wave.WithLTS())
	} else {
		opts = append(opts, wave.WithGlobalNewmark())
	}
	return append(opts, extra...)
}

// requireTail checks that got — the seismograms of a run resumed after
// cycle k — continues want bitwise from cycle k+1 on.
func requireTail(t *testing.T, want, got *wave.Seismograms, k int) {
	t.Helper()
	if len(got.Times) != len(want.Times)-k {
		t.Fatalf("resumed run recorded %d cycles, want %d", len(got.Times), len(want.Times)-k)
	}
	for i := range got.Times {
		if math.Float64bits(got.Times[i]) != math.Float64bits(want.Times[k+i]) {
			t.Fatalf("time %d: %v != %v", i, got.Times[i], want.Times[k+i])
		}
	}
	for ti, tr := range want.Traces {
		for i := range got.Traces[ti].Values {
			if math.Float64bits(got.Traces[ti].Values[i]) != math.Float64bits(tr.Values[k+i]) {
				t.Fatalf("trace %q sample %d: %v (%#x) != %v (%#x)", tr.Name, i,
					got.Traces[ti].Values[i], math.Float64bits(got.Traces[ti].Values[i]),
					tr.Values[k+i], math.Float64bits(tr.Values[k+i]))
			}
		}
	}
}

// runFull runs a configuration to completion and returns its
// seismograms.
func runFull(t *testing.T, opts ...wave.Option) *wave.Seismograms {
	t.Helper()
	sim, err := wave.New(opts...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer sim.Close()
	if err := sim.Run(context.Background(), 0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return sim.Seismograms()
}

// TestResumeNonzeroAmplitude re-runs the resume property at a scale and
// length where the receiver samples are provably nonzero (the guard
// fails otherwise). The tiny fixtures above sample amplitudes that are
// exactly 0.0 for most of the run, so they cannot distinguish a correct
// resume from one that resets the wavefield — this one can.
func TestResumeNonzeroAmplitude(t *testing.T) {
	if testing.Short() {
		t.Skip("long nonzero-amplitude run skipped in -short")
	}
	seq := []wave.Option{
		wave.WithMesh("trench", 0.015),
		wave.WithCycles(40),
		wave.WithLTS(),
	}
	// Width 4 on both backends: a local checkpoint is one full frame, a
	// distributed one a footprint frame per rank.
	local := append(seq[:3:3], wave.WithWorkers(4))
	dist := append(seq[:3:3], wave.WithBackend(wave.Distributed{Ranks: 2, Parts: 4}))
	ref := map[int]*wave.Seismograms{1: runFull(t, seq...), 4: runFull(t, local...)}
	for _, want := range ref {
		if !want.SawWave() {
			t.Fatal("vacuous reference: no trace reaches simio.WaveFloor over two nonzero samples")
		}
	}

	const k = 20
	for _, c := range []struct {
		name     string
		width    int
		from, to []wave.Option
	}{
		{"sequential", 1, seq, seq},
		{"local to dist", 4, local, dist},
		{"dist to local", 4, dist, local},
		{"dist to dist", 4, dist, dist},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "nonzero.ckpt")
			part, err := wave.New(c.from...)
			if err != nil {
				t.Fatal(err)
			}
			defer part.Close()
			if err := part.Run(context.Background(), k); err != nil {
				t.Fatal(err)
			}
			if err := part.Checkpoint(path); err != nil {
				t.Fatal(err)
			}
			part.Close()

			res, err := wave.Resume(path, c.to...)
			if err != nil {
				t.Fatal(err)
			}
			defer res.Close()
			if err := res.Run(context.Background(), 0); err != nil {
				t.Fatal(err)
			}
			requireTail(t, ref[c.width], res.Seismograms(), k)
		})
	}
}

// TestCheckpointRoundTrip is the round-trip property: for every cycle k
// — including 0 (before any stepping) and the final cycle — a run
// checkpointed at k and resumed continues bitwise identically to the
// uninterrupted run, for both schemes and both sequential and parallel
// execution.
func TestCheckpointRoundTrip(t *testing.T) {
	const total = 6
	ks := []int{0, 1, 3, total}
	cases := []struct {
		name    string
		physics wave.Physics
		lts     bool
		workers int
	}{
		{"lts-seq", wave.Acoustic, true, 1},
		{"lts-par", wave.Acoustic, true, 2},
		{"newmark-seq", wave.Acoustic, false, 1},
		{"newmark-par", wave.Acoustic, false, 2},
		{"elastic-lts-par", wave.Elastic, true, 2},
	}
	if testing.Short() {
		cases = cases[1:2]
		ks = []int{0, 3}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			opts := ckptOpts(c.physics, c.lts, total, wave.WithWorkers(c.workers))
			want := runFull(t, opts...)
			for _, k := range ks {
				path := filepath.Join(t.TempDir(), "run.ckpt")
				sim, err := wave.New(opts...)
				if err != nil {
					t.Fatalf("k=%d: New: %v", k, err)
				}
				// Run(ctx, 0) means "the configured default", so the k=0
				// checkpoint is taken before any stepping at all.
				if k > 0 {
					if err := sim.Run(context.Background(), k); err != nil {
						t.Fatalf("k=%d: Run: %v", k, err)
					}
				}
				if err := sim.Checkpoint(path); err != nil {
					t.Fatalf("k=%d: Checkpoint: %v", k, err)
				}
				sim.Close()

				rs, err := wave.Resume(path, opts...)
				if err != nil {
					t.Fatalf("k=%d: Resume: %v", k, err)
				}
				if got, wantT := rs.Time(), want.Times; k > 0 && math.Float64bits(got) != math.Float64bits(wantT[k-1]) {
					t.Fatalf("k=%d: resumed Time() = %v, want %v", k, got, wantT[k-1])
				}
				if err := rs.Run(context.Background(), 0); err != nil {
					t.Fatalf("k=%d: resumed Run: %v", k, err)
				}
				requireTail(t, want, rs.Seismograms(), k)
				rs.Close()
			}
		})
	}
}

// TestWithCheckpointEveryResume: the periodic checkpoint a Run writes is
// itself restartable, and Run(ctx, 0) on the resumed simulation steps
// exactly the remaining cycles.
func TestWithCheckpointEveryResume(t *testing.T) {
	const total = 6
	path := filepath.Join(t.TempDir(), "run.ckpt")
	base := ckptOpts(wave.Acoustic, true, total)
	want := runFull(t, base...)

	opts := append(append([]wave.Option(nil), base...), wave.WithCheckpointEvery(path, 2))
	sim, err := wave.New(opts...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Interrupt after 3 cycles; the newest on-disk checkpoint is cycle 2.
	if err := sim.Run(context.Background(), 3); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n := sim.Stats().Checkpoints; n != 1 {
		t.Fatalf("Checkpoints = %d, want 1", n)
	}
	sim.Close()

	rs, err := wave.Resume(path, opts...)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	defer rs.Close()
	if err := rs.Run(context.Background(), 0); err != nil {
		t.Fatalf("resumed Run: %v", err)
	}
	requireTail(t, want, rs.Seismograms(), 2)
	// Cycles 4 and 6 crossed the interval again on the resumed run.
	if n := rs.Stats().Checkpoints; n != 2 {
		t.Errorf("resumed Checkpoints = %d, want 2", n)
	}
}

// TestCheckpointCrossBackend: the checkpoint key pins the decomposition
// width, not the execution engine, so a local workers=4 checkpoint (one
// full frame) seeds a Distributed{Parts: 4} run and a distributed one (a
// footprint frame per rank) seeds a local run — and either continuation
// is still bitwise.
func TestCheckpointCrossBackend(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns rank processes")
	}
	const total, k = 5, 2
	local := ckptOpts(wave.Acoustic, true, total, wave.WithWorkers(4))
	dist := ckptOpts(wave.Acoustic, true, total,
		wave.WithBackend(wave.Distributed{Ranks: 2, Parts: 4}))
	want := runFull(t, local...)
	for _, c := range []struct {
		name     string
		from, to []wave.Option
	}{{"local to dist", local, dist}, {"dist to local", dist, local}} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.ckpt")
			sim, err := wave.New(c.from...)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			if err := sim.Run(context.Background(), k); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if err := sim.Checkpoint(path); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
			sim.Close()

			rs, err := wave.Resume(path, c.to...)
			if err != nil {
				t.Fatalf("Resume: %v", err)
			}
			defer rs.Close()
			if err := rs.Run(context.Background(), 0); err != nil {
				t.Fatalf("resumed Run: %v", err)
			}
			requireTail(t, want, rs.Seismograms(), k)
		})
	}
}

// TestResumeMismatch: checkpoints refuse to seed a run whose
// result-determining configuration differs.
func TestResumeMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	opts := ckptOpts(wave.Acoustic, true, 3)
	sim, err := wave.New(opts...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := sim.Checkpoint(path); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	sim.Close()

	for _, c := range []struct {
		name  string
		other []wave.Option
	}{
		{"scale", ckptOpts(wave.Acoustic, true, 3, wave.WithMesh("trench", 0.0006))},
		{"scheme", ckptOpts(wave.Acoustic, false, 3)},
		{"width", ckptOpts(wave.Acoustic, true, 3, wave.WithWorkers(2))},
		{"seed", ckptOpts(wave.Acoustic, true, 3, wave.WithSeed(7), wave.WithWorkers(2))},
	} {
		t.Run(c.name, func(t *testing.T) {
			rs, err := wave.Resume(path, c.other...)
			if err == nil {
				rs.Close()
				t.Fatal("mismatched Resume accepted")
			}
			if !errors.Is(err, wave.ErrCheckpointMismatch) {
				t.Fatalf("error %v does not wrap ErrCheckpointMismatch", err)
			}
		})
	}

	if _, err := wave.Resume(filepath.Join(t.TempDir(), "missing.ckpt"), opts...); err == nil {
		t.Fatal("Resume of a missing file succeeded")
	}
}

// TestWithCheckpointEveryValidation: malformed checkpoint requests are
// rejected eagerly with the documented sentinel.
func TestWithCheckpointEveryValidation(t *testing.T) {
	for _, c := range []struct {
		name string
		opt  wave.Option
	}{
		{"empty-path", wave.WithCheckpointEvery("", 2)},
		{"zero-interval", wave.WithCheckpointEvery("x.ckpt", 0)},
		{"negative-interval", wave.WithCheckpointEvery("x.ckpt", -3)},
	} {
		t.Run(c.name, func(t *testing.T) {
			err := wave.Validate(c.opt)
			if err == nil {
				t.Fatal("accepted")
			}
			if !errors.Is(err, wave.ErrCheckpointSpec) {
				t.Fatalf("error %v does not wrap ErrCheckpointSpec", err)
			}
			var oe *wave.OptionError
			if !errors.As(err, &oe) || oe.Option != "WithCheckpointEvery" {
				t.Fatalf("error %v is not an *OptionError for WithCheckpointEvery", err)
			}
		})
	}
}
