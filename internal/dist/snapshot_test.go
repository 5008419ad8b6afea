package dist

import (
	"context"
	"errors"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// requireOnlyGen fails unless every file of co's snapshot store belongs
// to the live generation: a reconfigure ends by committing the new
// generation's first snapshot, which retires every older file — so
// nothing a straggler of a torn-down generation could still write to is
// ever read again.
func requireOnlyGen(t *testing.T, co *Coordinator) {
	t.Helper()
	ents, err := os.ReadDir(co.store.dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !strings.HasPrefix(e.Name(), strconv.Itoa(co.gen)+"-") {
			t.Fatalf("snapshot file %s outlived its generation (live: %d)", e.Name(), co.gen)
		}
	}
}

// requireEmptyDir fails unless dir has no entries: the no-orphan check
// for snapshot stores, which are created under TMPDIR.
func requireEmptyDir(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		t.Errorf("%s left behind in TMPDIR", e.Name())
	}
}

// waitGoroutines waits for the goroutine count to come back to baseline
// (reader goroutines notice their closed connections asynchronously).
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines after Close, %d before Start:\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
	}
}

// TestUncommittedSlotNeverRead: the commit protocol by construction.
// Whatever the idle slot holds — garbage written over its files, or the
// file a rank wrote and then died before answering for — recovery reads
// the committed slot and continues the fault-free trajectory bit for bit.
func TestUncommittedSlotNeverRead(t *testing.T) {
	const cycles = 10
	tc := newTestConfigScale(t, "acoustic", true, 2, 4, 0.004)
	wantT, want := runShared(t, tc, cycles)
	if maxAbsSamples(want[5:]) == 0 {
		t.Fatal("vacuous baseline: every receiver sample after the fault is exactly zero")
	}
	t.Run("garbage", func(t *testing.T) {
		co := startRun(t, tc, Config{
			InProcess: true, CheckpointEvery: 4, MaxRecoveries: 1,
			Faults: []*FaultPlan{{Kind: FaultKill, Rank: 1, Cycle: 6, Substep: 1}},
		})
		defer co.Close()
		var gotT []float64
		var got [][]float64
		stepTo(t, co, 5, &gotT, &got)
		// The cycle-4 snapshot is committed; the idle slot still holds the
		// cycle-0 one.
		if co.snap.Cycle != 4 {
			t.Fatalf("committed snapshot is of cycle %d, want 4", co.snap.Cycle)
		}
		for rank := range co.snap.Files {
			idle := co.store.path(co.snap.Gen, 1-co.snap.Slot, rank)
			if _, err := os.Stat(idle); err != nil {
				t.Fatalf("idle slot: %v", err)
			}
			if err := os.WriteFile(idle, []byte("not a state frame"), 0o600); err != nil {
				t.Fatal(err)
			}
		}
		stepTo(t, co, cycles, &gotT, &got)
		requireBitwise(t, "garbage in the idle slot", wantT, gotT, want, got)
		if n, _ := co.Recoveries(); n != 1 {
			t.Errorf("Recoveries = %d, want 1", n)
		}
	})
	t.Run("died mid-snapshot", func(t *testing.T) {
		co := startRun(t, tc, Config{
			InProcess: true, CheckpointEvery: 4, MaxRecoveries: 1,
			// Rank 1 writes its file of the cycle-8 snapshot and dies before
			// answering for it: half a snapshot in the idle slot.
			Faults: []*FaultPlan{{Kind: FaultKill, Rank: 1, Cycle: 8, Substep: -1}},
		})
		defer co.Close()
		var gotT []float64
		var got [][]float64
		stepTo(t, co, cycles, &gotT, &got)
		requireBitwise(t, "rank lost mid-snapshot", wantT, gotT, want, got)
		if n, _ := co.Recoveries(); n != 1 {
			t.Errorf("Recoveries = %d, want 1 (fault did not fire?)", n)
		}
		// Start, cycle 4, and the one reconfigure ends with (cycle 8).
		if n, wall, bytes := co.Snapshots(); n != 3 || wall <= 0 || bytes <= 0 {
			t.Errorf("Snapshots = (%d, %v, %d), want 3 with time and bytes", n, wall, bytes)
		}
	})
}

// TestCommittedSlotDamaged: the commit protocol by mutation. A flipped
// byte in, a truncation of, or the loss of a file of the committed slot
// leaves nothing to recover from: the next rank failure must surface as a
// *SnapshotError naming the snapshot — not a panic, not a run resumed on
// zeroed state, not a recovery budget burnt on relaunches that cannot
// work — and Close must still leave no goroutine and no directory.
func TestCommittedSlotDamaged(t *testing.T) {
	tc := newTestConfigScale(t, "acoustic", true, 2, 4, 0.004)
	damage := map[string]func(path string) error{
		"flipped byte": func(path string) error {
			raw, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			raw[len(raw)/2] ^= 0x10
			return os.WriteFile(path, raw, 0o600)
		},
		"truncated": func(path string) error { return os.Truncate(path, 100) },
		"missing":   os.Remove,
	}
	if testing.Short() {
		// The other two reach load the same way; TestLoadChecksFilesAgainstCommit
		// has them without a run around.
		delete(damage, "truncated")
		delete(damage, "missing")
	}
	for name, do := range damage {
		t.Run(name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			co := startRun(t, tc, Config{
				InProcess: true, CheckpointEvery: 4,
				Faults: []*FaultPlan{{Kind: FaultKill, Rank: 1, Cycle: 6, Substep: 1}},
			})
			var gotT []float64
			var got [][]float64
			stepTo(t, co, 5, &gotT, &got)
			if maxAbsSamples(got) == 0 {
				t.Fatal("vacuous run: every sample before the fault is exactly zero")
			}
			if err := do(co.store.path(co.snap.Gen, co.snap.Slot, 0)); err != nil {
				t.Fatal(err)
			}
			_, _, err := co.Step()
			var se *SnapshotError
			if !errors.As(err, &se) || se.Cycle != 4 || se.Gen != 0 || !strings.Contains(se.Reason, "0-1-0") {
				t.Fatalf("Step after the damage: %v, want a *SnapshotError for cycle 4 naming file 0-1-0", err)
			}
			if n, _ := co.Recoveries(); n != 1 {
				t.Errorf("Recoveries = %d, want the one attempt that found the damage", n)
			}
			if err := co.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
			if _, err := os.Stat(co.store.dir); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("snapshot store after Close: %v, want it gone", err)
			}
			waitGoroutines(t, baseline)
		})
	}
}

// TestNoOrphanSnapshotDir is the twin of the no-orphan-process test: no
// way a run ends may leave its snapshot store behind in TMPDIR.
func TestNoOrphanSnapshotDir(t *testing.T) {
	tc := newTestConfig(t, "acoustic", true, 2, 4)
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)

	t.Run("Close", func(t *testing.T) {
		co := startRun(t, tc, Config{InProcess: true, CheckpointEvery: 1})
		var times []float64
		var samples [][]float64
		stepTo(t, co, 3, &times, &samples)
		if ents, _ := os.ReadDir(tmp); len(ents) != 1 {
			t.Fatalf("%d entries in TMPDIR during the run, want the store", len(ents))
		}
		if _, err := co.FetchState(); err != nil {
			t.Fatal(err)
		}
		if err := co.Close(); err != nil {
			t.Fatal(err)
		}
		requireEmptyDir(t, tmp)
	})
	t.Run("Abort mid-snapshot", func(t *testing.T) {
		// Rank 1 parks inside the cycle-2 snapshot with its file written;
		// only the cancelled context gets the coordinator out.
		co := startRun(t, tc, Config{
			InProcess: true, CheckpointEvery: 2,
			Faults: []*FaultPlan{{Kind: FaultStall, Rank: 1, Cycle: 2, Substep: -1}},
		})
		defer co.Close()
		if _, _, err := co.Step(); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
		defer cancel()
		if _, _, err := co.StepCtx(ctx); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("StepCtx = %v, want the context's error", err)
		}
		requireEmptyDir(t, tmp)
	})
	t.Run("failed Start", func(t *testing.T) {
		co, err := Start(Config{
			Run: tc.cfg, InProcess: true, CheckpointEvery: 2,
			Faults: []*FaultPlan{{Kind: FaultKill, Rank: 1, Cycle: 0, Substep: -1}},
		})
		if err == nil {
			co.Close()
			t.Fatal("Start succeeded although a rank died in the initial snapshot")
		}
		var rf *RankFailure
		if !errors.As(err, &rf) || !strings.Contains(err.Error(), "initial checkpoint") {
			t.Errorf("Start: %v, want the initial checkpoint's rank failure", err)
		}
		requireEmptyDir(t, tmp)
	})
}
