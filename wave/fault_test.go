package wave_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"golts/wave"
)

// runFaultCSV builds and runs a distributed simulation to completion,
// returning its streamed CSV bytes and its Stats.
func runFaultCSV(t *testing.T, opts ...wave.Option) ([]byte, wave.Stats) {
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
	st := sim.Stats()
	if err := sim.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes(), st
}

// TestSpawnedKillAtEachSubstep is the end-to-end fault matrix: a spawned
// rank process SIGKILLs itself mid-run — before stepping (substep 0) and
// at the first stiffness application of each LTS level boundary
// (substeps 1..3) — and the recovered run's streamed CSV is byte-equal
// to the fault-free reference, for both physics and both rank counts.
// The fault plan reaches the rank processes through the GOLTS_FAULT
// environment variable, exactly as `make fault-smoke` injects it.
func TestSpawnedKillAtEachSubstep(t *testing.T) {
	const parts, cycles = 4, 5
	type combo struct {
		physics wave.Physics
		ranks   int
		substep int
	}
	var cases []combo
	if testing.Short() {
		cases = []combo{{wave.Acoustic, 2, 1}}
	} else {
		for _, p := range []wave.Physics{wave.Acoustic, wave.Elastic} {
			for _, r := range []int{2, 4} {
				for s := 0; s <= 3; s++ {
					cases = append(cases, combo{p, r, s})
				}
			}
		}
	}
	// References once per physics, computed with the local engine at the
	// same decomposition width — and before the fault plan enters the
	// environment.
	refs := map[wave.Physics][]byte{}
	for _, p := range []wave.Physics{wave.Acoustic, wave.Elastic} {
		csv, _ := runFaultCSV(t, ckptOpts(p, true, cycles, wave.WithWorkers(parts))...)
		refs[p] = csv
	}
	for _, c := range cases {
		name := fmt.Sprintf("%s-r%d-s%d", c.physics, c.ranks, c.substep)
		t.Run(name, func(t *testing.T) {
			t.Setenv("GOLTS_FAULT", fmt.Sprintf("kill:rank=1,cycle=3,substep=%d", c.substep))
			csv, st := runFaultCSV(t, ckptOpts(c.physics, true, cycles,
				wave.WithBackend(wave.Distributed{
					Ranks: c.ranks, Parts: parts,
					CheckpointEvery: 1, MaxRecoveries: 2,
				}))...)
			if st.Recoveries < 1 {
				t.Fatalf("no recovery recorded (fault did not fire?); stats: %+v", st)
			}
			if st.RecoveryMillis < 0 {
				t.Fatalf("negative recovery wall time")
			}
			// Start, one per cycle, and the one the recovery ends with.
			if st.Snapshots != cycles+2 || st.SnapshotBytes <= 0 || st.SnapshotMillis < 0 {
				t.Errorf("Snapshots = %d (%d bytes, %d ms), want %d with bytes",
					st.Snapshots, st.SnapshotBytes, st.SnapshotMillis, cycles+2)
			}
			if !bytes.Equal(csv, refs[c.physics]) {
				t.Fatalf("recovered CSV differs from fault-free reference:\nref:\n%s\ngot:\n%s",
					refs[c.physics], csv)
			}
		})
	}
}

// TestSpawnedMultiKillSameCycle: a correlated failure — two spawned rank
// processes SIGKILL themselves in the same cycle — recovers byte-equal
// to the fault-free reference. One relaunch replaces the whole
// generation, so the double loss costs a single recovery.
func TestSpawnedMultiKillSameCycle(t *testing.T) {
	const parts, cycles = 4, 5
	ref, _ := runFaultCSV(t, ckptOpts(wave.Acoustic, true, cycles, wave.WithWorkers(parts))...)
	t.Setenv("GOLTS_FAULT", "kill:rank=0,cycle=3,substep=1;kill:rank=1,cycle=3,substep=1")
	csv, st := runFaultCSV(t, ckptOpts(wave.Acoustic, true, cycles,
		wave.WithBackend(wave.Distributed{
			Ranks: 2, Parts: parts,
			CheckpointEvery: 1, MaxRecoveries: 2,
		}))...)
	if st.Recoveries < 1 {
		t.Fatalf("no recovery recorded (double kill did not fire?); stats: %+v", st)
	}
	if !bytes.Equal(csv, ref) {
		t.Fatalf("recovered CSV differs from fault-free reference:\nref:\n%s\ngot:\n%s", ref, csv)
	}
}

// TestSpawnedDegradedMode: a spawned rank killed in generation 0 and
// again during the recovery replay (gen=1 plan) exhausts MaxRecoveries
// of 1; with MinRanks 1 the coordinator retires it, redistributes
// its parts onto the survivor, and the finished CSV is byte-equal to the
// fault-free reference.
func TestSpawnedDegradedMode(t *testing.T) {
	const parts, cycles = 4, 5
	ref, _ := runFaultCSV(t, ckptOpts(wave.Acoustic, true, cycles, wave.WithWorkers(parts))...)
	t.Setenv("GOLTS_FAULT", "kill:rank=1,cycle=3,substep=1;kill:rank=1,cycle=1,substep=1,gen=1")
	csv, st := runFaultCSV(t, ckptOpts(wave.Acoustic, true, cycles,
		wave.WithBackend(wave.Distributed{
			Ranks: 2, Parts: parts,
			CheckpointEvery: 1, MaxRecoveries: 1, MinRanks: 1,
		}))...)
	if st.DegradedRanks != 1 {
		t.Fatalf("DegradedRanks = %d, want 1; stats: %+v", st.DegradedRanks, st)
	}
	if st.Recoveries != 1 {
		t.Fatalf("Recoveries = %d, want 1 (second failure must degrade)", st.Recoveries)
	}
	if !bytes.Equal(csv, ref) {
		t.Fatalf("degraded CSV differs from fault-free reference:\nref:\n%s\ngot:\n%s", ref, csv)
	}
}

// TestKillRecoveryNonzeroAmplitude is the facade-level regression for
// the stale-replica checkpoint bug: the substep matrix above runs at an
// amplitude where every sample is exactly 0.0, so it cannot see a
// recovery that resets the wavefield. This run is long enough for the
// wave to reach the receivers (the guard proves it), a rank is killed
// mid-run, and the recovered seismograms must still match a fault-free
// local run sample for sample. CheckpointEvery 4 forces recovery to
// replay the cycles between the last snapshot and the failure.
func TestKillRecoveryNonzeroAmplitude(t *testing.T) {
	if testing.Short() {
		t.Skip("long nonzero-amplitude run skipped in -short")
	}
	opts := []wave.Option{
		wave.WithMesh("trench", 0.015),
		wave.WithCycles(40),
		wave.WithLTS(),
	}
	full, err := wave.New(append(opts, wave.WithWorkers(4))...)
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	if err := full.Run(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	ref := full.Seismograms()
	if !sawWave(ref) {
		t.Fatal("vacuous reference: no trace reaches 1e-24 with two nonzero samples")
	}

	t.Setenv("GOLTS_FAULT", "kill:rank=1,cycle=20,substep=1")
	sim, err := wave.New(append(opts, wave.WithBackend(wave.Distributed{
		Ranks: 2, Parts: 4, CheckpointEvery: 4, MaxRecoveries: 2,
	}))...)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if err := sim.Run(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if sim.Stats().Recoveries < 1 {
		t.Fatal("no recovery recorded (fault did not fire?)")
	}
	got := sim.Seismograms()
	bad := 0
	for i := range ref.Traces {
		for k := range ref.Traces[i].Values {
			if ref.Traces[i].Values[k] != got.Traces[i].Values[k] {
				if bad < 6 {
					t.Errorf("trace %d sample %d: want %.17g got %.17g",
						i, k, ref.Traces[i].Values[k], got.Traces[i].Values[k])
				}
				bad++
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d mismatched samples", bad)
	}
}

// TestDegradedModeNonzeroAmplitude is the tentpole acceptance: a rank
// killed past MaxRecoveries at an amplitude where the wave has provably
// reached the receivers, with the run completing on the survivor and the
// seismograms matching the fault-free local reference sample for
// sample. CheckpointEvery 4 makes both the recovery and the shrink
// replay several cycles.
func TestDegradedModeNonzeroAmplitude(t *testing.T) {
	if testing.Short() {
		t.Skip("long nonzero-amplitude run skipped in -short")
	}
	opts := []wave.Option{
		wave.WithMesh("trench", 0.015),
		wave.WithCycles(40),
		wave.WithLTS(),
	}
	full, err := wave.New(append(opts, wave.WithWorkers(4))...)
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	if err := full.Run(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	ref := full.Seismograms()
	if !sawWave(ref) {
		t.Fatal("vacuous reference: no trace reaches 1e-24 with two nonzero samples")
	}

	t.Setenv("GOLTS_FAULT", "kill:rank=1,cycle=20,substep=1;kill:rank=1,cycle=1,substep=1,gen=1")
	sim, err := wave.New(append(opts,
		wave.WithBackend(wave.Distributed{
			Ranks: 2, Parts: 4, CheckpointEvery: 4, MaxRecoveries: 1, MinRanks: 1,
		}))...)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if err := sim.Run(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	st := sim.Stats()
	if st.DegradedRanks != 1 {
		t.Fatalf("DegradedRanks = %d, want 1; stats: %+v", st.DegradedRanks, st)
	}
	got := sim.Seismograms()
	bad := 0
	for i := range ref.Traces {
		for k := range ref.Traces[i].Values {
			if ref.Traces[i].Values[k] != got.Traces[i].Values[k] {
				if bad < 6 {
					t.Errorf("trace %d sample %d: want %.17g got %.17g",
						i, k, ref.Traces[i].Values[k], got.Traces[i].Values[k])
				}
				bad++
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d mismatched samples", bad)
	}
}
