package wave_test

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"golts/wave"
)

// TestWithTelemetryLocal: telemetry fills the per-level table and the
// per-worker busy counters on the local backend, and stays empty when
// off.
func TestWithTelemetryLocal(t *testing.T) {
	sim, err := wave.New(
		wave.WithMesh("trench", 0.02),
		wave.WithWorkers(2),
		wave.WithCycles(2),
		wave.WithTelemetry(),
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer sim.Close()
	if err := sim.Run(context.Background(), 0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := sim.Stats()
	if len(st.LevelTimes) != st.Levels {
		t.Fatalf("LevelTimes has %d rows for %d levels", len(st.LevelTimes), st.Levels)
	}
	var total int64
	for _, lt := range st.LevelTimes {
		if len(lt.RankNanos) != 1 {
			t.Fatalf("local level row has %d columns", len(lt.RankNanos))
		}
		total += lt.RankNanos[0]
	}
	if total <= 0 {
		t.Errorf("level telemetry sums to %d, want > 0", total)
	}
	if len(st.WorkerBusyNanos) != 2 {
		t.Fatalf("WorkerBusyNanos has %d entries for 2 workers", len(st.WorkerBusyNanos))
	}
	for w, n := range st.WorkerBusyNanos {
		if n <= 0 {
			t.Errorf("worker %d busy %d, want > 0", w, n)
		}
	}

	off, err := wave.New(wave.WithMesh("trench", 0.02), wave.WithCycles(1))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer off.Close()
	if err := off.Run(context.Background(), 0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st := off.Stats(); len(st.LevelTimes) != 0 || len(st.WorkerBusyNanos) != 0 {
		t.Error("telemetry reported with it disabled")
	}
}

// TestWithAutoTune: calibration probes the local grid, selects a valid
// shape, publishes the table of measured shapes, and caches the plan
// in the artifact cache so a second build of the same configuration
// skips the probes.
func TestWithAutoTune(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration probes skipped in -short")
	}
	cache := wave.NewArtifactCache(0)
	opts := []wave.Option{
		wave.WithMesh("trench", 0.02),
		wave.WithCycles(2),
		wave.WithArtifactCache(cache),
		wave.WithAutoTune(30 * time.Second),
	}
	sim, err := wave.New(opts...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer sim.Close()
	plan := sim.TunePlan()
	if plan == nil {
		t.Fatalf("invalid plan: %+v", plan)
	}
	st := sim.Stats()
	if st.TunedWorkers != plan.Best.Workers || st.TunedWorkers < 1 {
		t.Errorf("TunedWorkers = %d, plan best %d", st.TunedWorkers, plan.Best.Workers)
	}
	if st.Workers != plan.Best.Workers {
		t.Errorf("plan not applied: workers %d, best %d", st.Workers, plan.Best.Workers)
	}
	// The table must cover at least two measured shapes for the choice to
	// mean anything (the local grid is one shape per power-of-two worker
	// count, so a 1-CPU host has only one to offer).
	measured := 0
	for _, m := range plan.Measurements {
		if m.Err == "" && m.CycleNanos > 0 {
			measured++
		}
	}
	if want := min(2, runtime.GOMAXPROCS(0)); measured < want {
		t.Errorf("only %d shapes measured, want >= %d:\n%+v", measured, want, plan.Measurements)
	}

	// Same configuration, same cache: the plan is reused, not re-probed.
	sim2, err := wave.New(opts...)
	if err != nil {
		t.Fatalf("second New: %v", err)
	}
	defer sim2.Close()
	if sim2.TunePlan() != plan {
		t.Error("second build did not reuse the cached plan")
	}

	if _, err := wave.New(wave.WithAutoTune(0)); !errors.Is(err, wave.ErrTuneSpec) {
		t.Errorf("WithAutoTune(0) error = %v, want ErrTuneSpec", err)
	}
}

// TestPlacementBitwiseNonzeroAmplitude pins placement invariance at the
// facade: a distributed run on a maximally skewed explicit part→rank
// placement streams receiver CSV byte-identical to the default block
// placement of the same decomposition — at an amplitude where the wave
// has reached the receivers, so a placement that perturbed the field
// could not hide in a sea of zeros.
func TestPlacementBitwiseNonzeroAmplitude(t *testing.T) {
	if testing.Short() {
		t.Skip("long nonzero-amplitude run skipped in -short")
	}
	opts := []wave.Option{
		wave.WithMesh("trench", 0.015),
		wave.WithCycles(40),
		wave.WithLTS(),
	}
	run := func(be wave.Distributed) ([]byte, *wave.Seismograms) {
		var buf bytes.Buffer
		sim, err := wave.New(append(opts, wave.WithBackend(be), wave.WithSink(wave.CSVSink(&buf)))...)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		defer sim.Close()
		if err := sim.Run(context.Background(), 0); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return buf.Bytes(), sim.Seismograms()
	}

	refCSV, refSeis := run(wave.Distributed{Ranks: 2, Parts: 4})
	if !refSeis.SawWave() {
		t.Fatal("vacuous reference: no trace reaches simio.WaveFloor over two nonzero samples")
	}
	csv, _ := run(wave.Distributed{
		Ranks: 2, Parts: 4,
		PartRank: []int{0, 0, 0, 1}, // rank 0 carries 3 of 4 parts
	})
	if !bytes.Equal(csv, refCSV) {
		t.Fatalf("skewed-placement CSV differs from the block placement:\nref:\n%s\ngot:\n%s", refCSV, csv)
	}
}
