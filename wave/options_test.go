package wave_test

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"golts/wave"
)

// tinyOpts is a fast valid base configuration for behaviour tests.
func tinyOpts(extra ...wave.Option) []wave.Option {
	return append([]wave.Option{
		wave.WithMesh("trench", 0.0005),
		wave.WithCycles(2),
	}, extra...)
}

// TestOptionValidation: every option rejects bad arguments eagerly with a
// typed *OptionError wrapping the documented sentinel.
func TestOptionValidation(t *testing.T) {
	cases := []struct {
		name     string
		opt      wave.Option
		sentinel error
	}{
		{"WithMesh-unknown", wave.WithMesh("moon", 1), wave.ErrUnknownMesh},
		{"WithMesh-scale", wave.WithMesh("trench", 0), wave.ErrScaleRange},
		{"WithMesh-negative-scale", wave.WithMesh("trench", -2), wave.ErrScaleRange},
		{"WithPhysics", wave.WithPhysics("quantum"), wave.ErrUnknownPhysics},
		{"WithDegree-low", wave.WithDegree(0), wave.ErrDegreeRange},
		{"WithDegree-high", wave.WithDegree(13), wave.ErrDegreeRange},
		{"WithCFL", wave.WithCFL(0), wave.ErrCFLRange},
		{"WithCycles", wave.WithCycles(0), wave.ErrCyclesRange},
		{"WithWorkers", wave.WithWorkers(-1), wave.ErrWorkersRange},
		{"WithPartitioner", wave.WithPartitioner("zoltan"), wave.ErrUnknownPartitioner},
		{"WithSource-f0", wave.WithSource(wave.Source{F0: 0}), wave.ErrSourceSpec},
		{"WithSource-comp", wave.WithSource(wave.Source{F0: 1, Comp: 3}), wave.ErrComponentRange},
		{"WithSourceComponent", wave.WithSourceComponent(4), wave.ErrComponentRange},
		{"WithSink-nil", wave.WithSink(nil), wave.ErrNilArgument},
		{"WithProbe-nil", wave.WithProbe(nil), wave.ErrNilArgument},
		{"WithReceiver-comp", wave.WithReceiver(wave.Receiver{Comp: -1}), wave.ErrComponentRange},
		// Non-finite positions and wavelet parameters compare false against
		// every distance and used to place the point on node 0.
		{"WithSource-nan-x", wave.WithSource(wave.Source{X: math.NaN(), F0: 1}), wave.ErrSourceSpec},
		{"WithSource-inf-z", wave.WithSource(wave.Source{Z: math.Inf(-1), F0: 1}), wave.ErrSourceSpec},
		{"WithSource-nan-f0", wave.WithSource(wave.Source{F0: math.NaN()}), wave.ErrSourceSpec},
		{"WithSource-inf-f0", wave.WithSource(wave.Source{F0: math.Inf(1)}), wave.ErrSourceSpec},
		{"WithSource-nan-t0", wave.WithSource(wave.Source{F0: 1, T0: math.NaN()}), wave.ErrSourceSpec},
		{"WithReceiver-nan-y", wave.WithReceiver(wave.Receiver{Y: math.NaN()}), wave.ErrReceiverSpec},
		{"WithReceiver-inf-x", wave.WithReceiver(wave.Receiver{X: math.Inf(1)}), wave.ErrReceiverSpec},
		{"WithSponge-strength", wave.WithSponge(wave.Sponge{Strength: -1}), wave.ErrSpongeSpec},
		{"WithSponge-width", wave.WithSponge(wave.Sponge{Strength: 1, Width: 0}), wave.ErrSpongeSpec},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := wave.New(c.opt)
			if err == nil {
				t.Fatal("bad option accepted")
			}
			if !errors.Is(err, c.sentinel) {
				t.Errorf("error %v does not wrap %v", err, c.sentinel)
			}
			var oe *wave.OptionError
			if !errors.As(err, &oe) {
				t.Errorf("error %T is not an *OptionError", err)
			} else if oe.Option == "" {
				t.Error("OptionError.Option is empty")
			}
		})
	}
}

// TestCrossFieldComponentValidation: components are validated against the
// physics at build time — the eager replacement for the legacy driver's
// silent min(comp, nc-1) clamp.
func TestCrossFieldComponentValidation(t *testing.T) {
	_, err := wave.New(tinyOpts(
		wave.WithPhysics(wave.Acoustic),
		wave.WithSource(wave.Source{X: 0.5, Y: 0.5, Z: 0.5, Comp: 2, F0: 10}),
	)...)
	if !errors.Is(err, wave.ErrComponentRange) {
		t.Errorf("acoustic source comp 2: got %v, want ErrComponentRange", err)
	}
	_, err = wave.New(tinyOpts(
		wave.WithPhysics(wave.Acoustic),
		wave.WithReceiver(wave.Receiver{X: 0.5, Y: 0.5, Z: 0, Comp: 1}),
	)...)
	if !errors.Is(err, wave.ErrComponentRange) {
		t.Errorf("acoustic receiver comp 1: got %v, want ErrComponentRange", err)
	}
	_, err = wave.New(tinyOpts(
		wave.WithPhysics(wave.Acoustic),
		wave.WithSourceComponent(2),
	)...)
	if !errors.Is(err, wave.ErrComponentRange) {
		t.Errorf("acoustic default-source comp 2: got %v, want ErrComponentRange", err)
	}
	// The same components are fine for elastic.
	sim, err := wave.New(tinyOpts(
		wave.WithPhysics(wave.Elastic),
		wave.WithSource(wave.Source{X: 0.5, Y: 0.5, Z: 0.5, Comp: 2, F0: 10}),
		wave.WithReceiver(wave.Receiver{X: 0.5, Y: 0.5, Z: 0, Comp: 1}),
	)...)
	if err != nil {
		t.Fatalf("elastic comps rejected: %v", err)
	}
	sim.Close()
}

// TestRunLifecycle: context cancellation, per-cycle probes, the
// configured-default cycle count, and use-after-Close.
func TestRunLifecycle(t *testing.T) {
	sim, err := wave.New(tinyOpts(wave.WithCycles(3))...)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()

	// A cancelled context stops before the first cycle.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := sim.Run(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled Run: got %v, want context.Canceled", err)
	}
	if got := len(sim.Seismograms().Times); got != 0 {
		t.Errorf("cancelled Run recorded %d samples", got)
	}

	// Negative cycle counts are rejected.
	if err := sim.Run(context.Background(), -1); !errors.Is(err, wave.ErrCyclesRange) {
		t.Errorf("Run(-1): got %v, want ErrCyclesRange", err)
	}

	// cycles == 0 runs the configured default; probes fire per cycle.
	var seen []int
	err = sim.Run(context.Background(), 0, func(f wave.Frame) error {
		seen = append(seen, f.Cycle)
		if len(f.Samples) != len(sim.Receivers()) {
			t.Errorf("frame has %d samples for %d receivers", len(f.Samples), len(sim.Receivers()))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 || seen[0] != 1 || seen[2] != 3 {
		t.Errorf("probe cycles = %v, want [1 2 3]", seen)
	}

	// A probe error aborts the run.
	boom := errors.New("boom")
	err = sim.Run(context.Background(), 2, func(wave.Frame) error { return boom })
	if !errors.Is(err, boom) {
		t.Errorf("probe error: got %v, want boom", err)
	}

	// Closed simulations refuse to run.
	if err := sim.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(context.Background(), 1); !errors.Is(err, wave.ErrClosed) {
		t.Errorf("Run after Close: got %v, want ErrClosed", err)
	}
	if err := sim.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestSnapshotEvery fires only on multiples of n.
func TestSnapshotEvery(t *testing.T) {
	sim, err := wave.New(tinyOpts(wave.WithCycles(5))...)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	var seen []int
	probe := wave.SnapshotEvery(2, func(f wave.Frame) error {
		seen = append(seen, f.Cycle)
		return nil
	})
	if err := sim.Run(context.Background(), 0, probe); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || seen[0] != 2 || seen[1] != 4 {
		t.Errorf("snapshot cycles = %v, want [2 4]", seen)
	}
}

// TestFileSinkExtension: the output format follows the file extension —
// ".json" is JSON, anything else CSV.
func TestFileSinkExtension(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "out.json")
	csvPath := filepath.Join(dir, "out.csv")
	sim, err := wave.New(tinyOpts(
		wave.WithSink(wave.FileSink(jsonPath)),
		wave.WithSink(wave.FileSink(csvPath)),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if err := sim.Close(); err != nil {
		t.Fatal(err)
	}
	js, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(js), "{") {
		t.Errorf(".json output does not look like JSON: %q", js[:min(len(js), 20)])
	}
	cs, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(cs), "time,") {
		t.Errorf(".csv output does not look like CSV: %q", cs[:min(len(cs), 20)])
	}
}

// TestPartitionMesh validates its inputs and balances the trench across
// parts.
func TestPartitionMesh(t *testing.T) {
	if _, err := wave.PartitionMesh("moon", 1, wave.PartitionOptions{Parts: 2}); !errors.Is(err, wave.ErrUnknownMesh) {
		t.Errorf("unknown mesh: got %v", err)
	}
	if _, err := wave.PartitionMesh("trench", 0.01, wave.PartitionOptions{Parts: 0}); !errors.Is(err, wave.ErrPartsRange) {
		t.Errorf("zero parts: got %v", err)
	}
	if _, err := wave.PartitionMesh("trench", 0.01, wave.PartitionOptions{Parts: 2, Method: "zoltan"}); !errors.Is(err, wave.ErrUnknownPartitioner) {
		t.Errorf("unknown method: got %v", err)
	}
	if _, err := wave.PartitionMesh("trench", 0.01, wave.PartitionOptions{Parts: 2, Degree: 40}); !errors.Is(err, wave.ErrDegreeRange) {
		t.Errorf("bad degree: got %v", err)
	}
	rep, err := wave.PartitionMesh("trench", 0.01, wave.PartitionOptions{Parts: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Method != wave.ScotchP {
		t.Errorf("default method = %q, want scotch-p", rep.Method)
	}
	if len(rep.Loads) != 4 || rep.TotalImbalance > 50 {
		t.Errorf("suspicious report: loads %v, imbalance %.1f%%", rep.Loads, rep.TotalImbalance)
	}
	counts := make(map[int32]int)
	for _, p := range rep.Part {
		counts[p]++
	}
	if len(counts) != 4 {
		t.Errorf("partition uses %d of 4 parts", len(counts))
	}
}

// TestDescribe reports mesh metadata without building operators.
func TestDescribe(t *testing.T) {
	p, err := wave.Describe(wave.WithMesh("trench", 0.0005))
	if err != nil {
		t.Fatal(err)
	}
	if p.Elements <= 0 || p.Levels < 2 || p.CoarseDt <= 0 || p.X1 <= p.X0 {
		t.Errorf("implausible plan: %+v", p)
	}
	if _, err := wave.Describe(wave.WithMesh("moon", 1)); !errors.Is(err, wave.ErrUnknownMesh) {
		t.Errorf("unknown mesh: got %v", err)
	}
}

// TestStepperInterface drives the simulation manually through the unified
// Stepper.
func TestStepperInterface(t *testing.T) {
	for _, scheme := range []wave.Option{wave.WithLTS(), wave.WithGlobalNewmark()} {
		sim, err := wave.New(tinyOpts(scheme)...)
		if err != nil {
			t.Fatal(err)
		}
		st := sim.Stepper()
		t0 := st.Time()
		if err := st.Step(); err != nil {
			t.Fatal(err)
		}
		if st.Time() <= t0 {
			t.Error("Step did not advance time")
		}
		if len(st.State()) != sim.Stats().DOF {
			t.Errorf("State length %d, want %d", len(st.State()), sim.Stats().DOF)
		}
		sim.Close()
	}
}
