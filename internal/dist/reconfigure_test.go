package dist

import (
	"runtime"
	"testing"

	"golts/internal/tune"
)

// startRun starts a run of tc under cfg (whose Run field is overwritten
// with the test configuration) and installs its receiver parts; the
// caller steps it.
func startRun(t *testing.T, tc *testConfig, cfg Config) *Coordinator {
	t.Helper()
	cfg.Run = tc.cfg
	co, err := Start(cfg)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	parts, err := ReceiverOwnerParts(tc.geom, &tc.cfg)
	if err == nil {
		err = co.SetReceiverParts(parts)
	}
	if err != nil {
		co.Close()
		t.Fatal(err)
	}
	return co
}

// stepTo steps co until len(*times) completed cycles reach upTo,
// appending every delivered cycle to the trajectory. After every Step —
// so after every reconfigure a Step may have hidden — only files of the
// live generation may be left in the snapshot store.
func stepTo(t *testing.T, co *Coordinator, upTo int, times *[]float64, samples *[][]float64) {
	t.Helper()
	for len(*times) < upTo {
		tm, row, err := co.Step()
		if err != nil {
			co.Abort()
			t.Fatalf("Step %d: %v", len(*times)+1, err)
		}
		*times = append(*times, tm)
		*samples = append(*samples, append([]float64(nil), row...))
		requireOnlyGen(t, co)
	}
}

// scattered is a non-contiguous placement of 4 parts on 2 ranks: parts 0
// and 3 change hands against the default block map {0, 0, 1, 1}.
var scattered = []int{1, 0, 1, 0}

// TestRecoveryAfterRebalance: a failure in the generation a rebalance
// launched. The kill fires in the first cycle under the new placement,
// so recovery must relaunch under that placement (not the configured
// one), scatter the samples by it and restore the snapshot the
// rebalanced generation committed when it came up, from files written
// under the new footprints — bitwise, at an amplitude where a wrong
// field or a mis-scattered sample shows.
func TestRecoveryAfterRebalance(t *testing.T) {
	const cycles, at = 10, 6
	tc := newTestConfigScale(t, "acoustic", true, 2, 4, 0.004)
	wantT, want := runShared(t, tc, cycles)
	if maxAbsSamples(want[at:]) == 0 {
		t.Fatal("vacuous baseline: every receiver sample after the rebalance is exactly zero")
	}
	co := startRun(t, tc, Config{
		InProcess:       true,
		CheckpointEvery: 4, // the kill at cycle 7 restores the rebalance's cycle-6 snapshot
		MaxRecoveries:   2,
		Faults:          []*FaultPlan{{Kind: FaultKill, Rank: 1, Cycle: 1, Substep: 1, Gen: 1}},
	})
	defer co.Close()
	var gotT []float64
	var got [][]float64
	stepTo(t, co, at, &gotT, &got)
	if err := co.Rebalance(scattered); err != nil {
		t.Fatalf("Rebalance: %v", err)
	}
	requireOnlyGen(t, co)
	if co.snap.Gen != 1 || co.snap.Cycle != at {
		t.Fatalf("after the rebalance the committed snapshot is generation %d's of cycle %d, want 1 and %d",
			co.snap.Gen, co.snap.Cycle, at)
	}
	stepTo(t, co, cycles, &gotT, &got)
	requireBitwise(t, "recover after rebalance", wantT, gotT, want, got)
	if pr := co.PartRanks(); !tune.Equal(pr, scattered) {
		t.Errorf("PartRanks after recovery = %v, want the rebalanced %v", pr, scattered)
	}
	if n, _ := co.Recoveries(); n != 1 {
		t.Errorf("Recoveries = %d, want 1", n)
	}
	if n, _ := co.Rebalances(); n != 1 {
		t.Errorf("Rebalances = %d, want 1", n)
	}
}

// TestReconfigureLadder walks every rung of the one recovery loop in one
// run: a rebalance, a kill that is recovered at the same width, a second
// kill that finds the budget spent and shrinks the rank set, and a third
// on the survivor that only the budget reset after the shrink can
// absorb. Every recovery replays at least one cycle, and every
// generation restores files some other generation wrote, under another
// placement or another rank count. The trajectory must equal the
// fault-free one bit for bit, the counters must be exact, after every
// step only the live generation's snapshot files may exist (stepTo), and
// Close must leave no goroutine of any of the five generations behind.
//
// The ladder is walked twice, the second time with every rank's field
// arrays poisoned outside its footprint after each build and each restore
// (see poison): every relaunch changes the footprints, so a rank that
// still leaned on a value it does not own — left over from before the
// restore, or never written since — would carry a NaN into the trajectory.
func TestReconfigureLadder(t *testing.T) {
	t.Run("plain", func(t *testing.T) { reconfigureLadder(t, nil) })
	t.Run("poisoned", func(t *testing.T) { reconfigureLadder(t, poison) })
}

func reconfigureLadder(t *testing.T, onState func(*rankRun)) {
	const cycles = 12
	tc := newTestConfigScale(t, "acoustic", true, 2, 4, 0.004)
	wantT, want := runShared(t, tc, cycles)
	if maxAbsSamples(want[5:]) == 0 {
		t.Fatal("vacuous baseline: every receiver sample after the rebalance is exactly zero")
	}
	baseline := runtime.NumGoroutine()
	co := startRun(t, tc, Config{
		InProcess:       true,
		onState:         onState,
		CheckpointEvery: 4,
		MaxRecoveries:   1,
		MinRanks:        1,
		Faults: []*FaultPlan{
			// gen 1 is the rebalanced generation, up at cycle 5: its 3rd
			// cycle is cycle 8, recovered from the snapshot it committed
			// when it came up (replaying 6 and 7).
			{Kind: FaultKill, Rank: 1, Cycle: 3, Substep: 1, Gen: 1},
			// gen 2 replays 6, 7 and runs 8..10: its 5th cycle is cycle 10,
			// the budget is spent, so rank 1 is retired; the shrink restores
			// the cycle-8 snapshot, two footprints onto one rank (replaying
			// 9).
			{Kind: FaultKill, Rank: 1, Cycle: 5, Substep: 1, Gen: 2},
			// gen 3 is the lone survivor, up at cycle 9 after that replay: its
			// 3rd cycle is cycle 11, and only a budget reset by the shrink
			// lets it be recovered (replaying 10).
			{Kind: FaultKill, Rank: 0, Cycle: 3, Substep: 1, Gen: 3},
		},
	})
	defer co.Close() // when a check below bails out
	var gotT []float64
	var got [][]float64
	stepTo(t, co, 5, &gotT, &got)
	if err := co.Rebalance(scattered); err != nil {
		t.Fatalf("Rebalance: %v", err)
	}
	requireOnlyGen(t, co)
	stepTo(t, co, cycles, &gotT, &got)
	requireBitwise(t, "ladder", wantT, gotT, want, got)
	if n, _ := co.Rebalances(); n != 1 {
		t.Errorf("Rebalances = %d, want 1", n)
	}
	if n, _ := co.Recoveries(); n != 2 {
		t.Errorf("Recoveries = %d, want 2 (one before the shrink, one after)", n)
	}
	if n, _ := co.Degraded(); n != 1 {
		t.Errorf("Degraded = %d, want 1", n)
	}
	if n := co.Ranks(); n != 1 {
		t.Errorf("Ranks = %d, want 1", n)
	}
	if co.gen != 4 {
		t.Errorf("finished in generation %d, want 4 (a fault plan did not fire where the comments say)", co.gen)
	}
	if err := co.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	waitGoroutines(t, baseline)
}
