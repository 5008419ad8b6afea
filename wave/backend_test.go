package wave_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"testing"

	"golts/internal/leakgate"
	"golts/wave"
)

// TestMain is the distributed backend's cooperative re-exec hook: when a
// test spawns rank processes, the children re-run this binary and
// RankMain routes them into the rank runtime instead of the test suite.
// The suite runs under the package-exit leak gate.
func TestMain(m *testing.M) {
	wave.RankMain()
	os.Exit(leakgate.Run(m))
}

// TestWithBackendValidation: every rejection path of WithBackend (and
// its build-time conflicts) yields a typed *OptionError wrapping the
// documented sentinel.
func TestWithBackendValidation(t *testing.T) {
	cases := []struct {
		name     string
		opts     []wave.Option
		sentinel error
	}{
		{"nil-backend", []wave.Option{wave.WithBackend(nil)}, wave.ErrBackendSpec},
		{"zero-ranks", []wave.Option{wave.WithBackend(wave.Distributed{})}, wave.ErrRanksRange},
		{"negative-ranks", []wave.Option{wave.WithBackend(wave.Distributed{Ranks: -2})}, wave.ErrRanksRange},
		{"parts-below-ranks", []wave.Option{wave.WithBackend(wave.Distributed{Ranks: 4, Parts: 2})}, wave.ErrPartsRange},
		{"negative-parts", []wave.Option{wave.WithBackend(wave.Distributed{Ranks: 2, Parts: -4})}, wave.ErrPartsRange},
		{"min-ranks-above-ranks", []wave.Option{wave.WithBackend(wave.Distributed{Ranks: 2, MinRanks: 3})}, wave.ErrRanksRange},
		{"degraded-mode-without-checkpoints", []wave.Option{
			wave.WithBackend(wave.Distributed{Ranks: 2, MinRanks: 1, CheckpointEvery: -1}),
		}, wave.ErrCheckpointSpec},
		{"distributed-plus-workers", []wave.Option{
			wave.WithBackend(wave.Distributed{Ranks: 2}),
			wave.WithWorkers(4),
		}, wave.ErrBackendConflict},
		{"distributed-plus-auto-workers", []wave.Option{
			wave.WithBackend(wave.Distributed{Ranks: 2}),
			wave.WithWorkers(0),
		}, wave.ErrBackendConflict},
		{"workers-then-distributed", []wave.Option{
			wave.WithWorkers(2),
			wave.WithBackend(wave.Distributed{Ranks: 2}),
		}, wave.ErrBackendConflict},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sim, err := wave.New(tinyOpts(c.opts...)...)
			if err == nil {
				sim.Close()
				t.Fatalf("configuration accepted")
			}
			var oe *wave.OptionError
			if !errors.As(err, &oe) {
				t.Fatalf("error %v is not an *OptionError", err)
			}
			if oe.Option != "WithBackend" {
				t.Errorf("Option = %q, want WithBackend", oe.Option)
			}
			if !errors.Is(err, c.sentinel) {
				t.Errorf("error %v does not wrap %v", err, c.sentinel)
			}
		})
	}
}

// TestWithBackendLocal: the explicit Local backend is the default
// configuration and composes with workers.
func TestWithBackendLocal(t *testing.T) {
	sim, err := wave.New(tinyOpts(wave.WithBackend(wave.Local), wave.WithWorkers(2))...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer sim.Close()
	if got := sim.Stats().Backend; got != "local" {
		t.Errorf("Backend = %q, want local", got)
	}
}

// distOpts is the shared configuration of the facade-level equivalence
// tests: a tiny trench run with an explicit source and receivers so both
// backends resolve identical dofs.
func distOpts(physics wave.Physics, lts bool, extra ...wave.Option) []wave.Option {
	comp := 0
	if physics == wave.Elastic {
		comp = 1
	}
	opts := []wave.Option{
		wave.WithMesh("trench", 0.0005),
		wave.WithPhysics(physics),
		wave.WithCycles(3),
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

// runToCSV builds, runs and closes a simulation, returning its
// seismograms and the raw bytes its CSV sink streamed.
func runToCSV(t *testing.T, opts ...wave.Option) (*wave.Seismograms, []byte) {
	t.Helper()
	var buf bytes.Buffer
	sim, err := wave.New(append(opts, wave.WithSink(wave.CSVSink(&buf)))...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer sim.Close()
	if err := sim.Run(context.Background(), 0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	sg := sim.Seismograms()
	if err := sim.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return sg, buf.Bytes()
}

// TestDistributedMatchesSharedMemory is the facade half of the
// acceptance bar: a Distributed{Ranks: N} run produces bitwise-identical
// seismograms — and byte-identical streamed CSV — to the local backend
// with WithWorkers(N), for both physics and both schemes.
func TestDistributedMatchesSharedMemory(t *testing.T) {
	cases := []struct {
		name    string
		physics wave.Physics
		lts     bool
		ranks   int
	}{
		{"acoustic-lts-2", wave.Acoustic, true, 2},
		{"elastic-global-2", wave.Elastic, false, 2},
	}
	if !testing.Short() {
		cases = append(cases,
			struct {
				name    string
				physics wave.Physics
				lts     bool
				ranks   int
			}{"acoustic-global-4", wave.Acoustic, false, 4},
		)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, wantCSV := runToCSV(t, distOpts(c.physics, c.lts, wave.WithWorkers(c.ranks))...)
			if !want.SawWave() {
				t.Fatal("reference is vacuous: no trace clears the amplitude floor")
			}
			got, gotCSV := runToCSV(t, distOpts(c.physics, c.lts,
				wave.WithBackend(wave.Distributed{Ranks: c.ranks}))...)
			if len(got.Traces) != len(want.Traces) {
				t.Fatalf("trace count %d != %d", len(got.Traces), len(want.Traces))
			}
			for i := range want.Times {
				if math.Float64bits(want.Times[i]) != math.Float64bits(got.Times[i]) {
					t.Fatalf("time %d: %v != %v", i, got.Times[i], want.Times[i])
				}
			}
			for ti, tr := range want.Traces {
				for i := range tr.Values {
					if math.Float64bits(tr.Values[i]) != math.Float64bits(got.Traces[ti].Values[i]) {
						t.Fatalf("trace %q sample %d: %v != %v",
							tr.Name, i, got.Traces[ti].Values[i], tr.Values[i])
					}
				}
			}
			if !bytes.Equal(wantCSV, gotCSV) {
				t.Fatalf("CSV streams differ:\nlocal:\n%s\ndistributed:\n%s", wantCSV, gotCSV)
			}
		})
	}
}

// TestDistributedStats: the facade surfaces the distributed backend's
// identity and real communication counters, and Cycles counts coarse
// cycles on both schemes.
func TestDistributedStats(t *testing.T) {
	for _, lts := range []bool{true, false} {
		t.Run(fmt.Sprintf("lts=%v", lts), func(t *testing.T) {
			sim, err := wave.New(distOpts(wave.Acoustic, lts,
				wave.WithBackend(wave.Distributed{Ranks: 2, Parts: 4}))...)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer sim.Close()
			if err := sim.Run(context.Background(), 2); err != nil {
				t.Fatalf("Run: %v", err)
			}
			st := sim.Stats()
			if st.Backend != "distributed" {
				t.Errorf("Backend = %q", st.Backend)
			}
			if st.Ranks != 2 || st.Parts != 4 {
				t.Errorf("Ranks, Parts = %d, %d; want 2, 4", st.Ranks, st.Parts)
			}
			if st.Cycles != 2 {
				t.Errorf("Cycles = %d, want 2", st.Cycles)
			}
			if st.ElemApplies == 0 {
				t.Error("ElemApplies = 0")
			}
			if st.Engine == nil || st.Engine.Messages == 0 {
				t.Errorf("Engine = %+v; want real halo messages", st.Engine)
			}
			if st.LTS && st.EffectiveSpeedup <= 0 {
				t.Errorf("EffectiveSpeedup = %v", st.EffectiveSpeedup)
			}
		})
	}
}

// TestDistributedHaloClosureRegression pins the halo-closure fix at the
// configuration that exposed it: a mid-size trench run with the default
// surface receiver, where the per-level touched-set halos (instead of
// the receiver's global element-node footprint) leaked ulp-level drift
// into the wavefront by cycle 10. Bitwise equality across rank counts
// at fixed decomposition is the contract that caught it.
func TestDistributedHaloClosureRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("mid-size mesh; covered by the full run")
	}
	opts := func(ranks int) []wave.Option {
		return []wave.Option{
			wave.WithMesh("trench", 0.01),
			wave.WithCycles(10),
			wave.WithBackend(wave.Distributed{Ranks: ranks, Parts: 4}),
		}
	}
	want, _ := runToCSV(t, opts(1)...)
	got, _ := runToCSV(t, opts(2)...)
	for ti, tr := range want.Traces {
		for i := range tr.Values {
			if math.Float64bits(tr.Values[i]) != math.Float64bits(got.Traces[ti].Values[i]) {
				t.Fatalf("trace %d sample %d: %v (%#x) != %v (%#x)", ti, i,
					got.Traces[ti].Values[i], math.Float64bits(got.Traces[ti].Values[i]),
					tr.Values[i], math.Float64bits(tr.Values[i]))
			}
		}
	}
}

// TestDistributedPartsPinBits: with the decomposition width fixed, the
// facade's distributed seismograms are independent of the rank count.
func TestDistributedPartsPinBits(t *testing.T) {
	want, wantCSV := runToCSV(t, distOpts(wave.Acoustic, true,
		wave.WithBackend(wave.Distributed{Ranks: 1, Parts: 3}))...)
	if !want.SawWave() {
		t.Fatal("reference is vacuous: no trace clears the amplitude floor")
	}
	got, gotCSV := runToCSV(t, distOpts(wave.Acoustic, true,
		wave.WithBackend(wave.Distributed{Ranks: 3, Parts: 3}))...)
	for ti, tr := range want.Traces {
		for i := range tr.Values {
			if math.Float64bits(tr.Values[i]) != math.Float64bits(got.Traces[ti].Values[i]) {
				t.Fatalf("trace %d sample %d: %v != %v", ti, i, got.Traces[ti].Values[i], tr.Values[i])
			}
		}
	}
	if !bytes.Equal(wantCSV, gotCSV) {
		t.Fatal("CSV streams differ across rank counts")
	}
}
