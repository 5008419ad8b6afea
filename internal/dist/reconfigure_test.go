package dist

import (
	"runtime"
	"testing"
	"time"

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
// appending every delivered cycle to the trajectory.
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
	}
}

// scattered is a non-contiguous placement of 4 parts on 2 ranks: parts 0
// and 3 change hands against the default block map {0, 0, 1, 1}.
var scattered = []int{1, 0, 1, 0}

// TestRecoveryAfterRebalance: a failure in the generation a rebalance
// launched. The kill fires in the first cycle under the new placement,
// so recovery must relaunch under that placement (not the configured
// one), scatter the samples by it, restore a checkpoint taken under the
// old one and replay across the rebalance point — bitwise, at an
// amplitude where a wrong field or a mis-scattered sample shows.
func TestRecoveryAfterRebalance(t *testing.T) {
	const cycles, at = 10, 6
	tc := newTestConfigScale(t, "acoustic", true, 2, 4, 0.004)
	wantT, want := runShared(t, tc, cycles)
	if maxAbsSamples(want[at:]) == 0 {
		t.Fatal("vacuous baseline: every receiver sample after the rebalance is exactly zero")
	}
	co := startRun(t, tc, Config{
		InProcess:       true,
		CheckpointEvery: 4, // the kill at cycle 7 replays 5 and 6
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
// absorb. Each relaunch replays at least one cycle. The trajectory must
// equal the fault-free one bit for bit, the counters must be exact, and
// Close must leave no goroutine of any of the five generations behind.
func TestReconfigureLadder(t *testing.T) {
	const cycles = 12
	tc := newTestConfigScale(t, "acoustic", true, 2, 4, 0.004)
	wantT, want := runShared(t, tc, cycles)
	if maxAbsSamples(want[5:]) == 0 {
		t.Fatal("vacuous baseline: every receiver sample after the rebalance is exactly zero")
	}
	baseline := runtime.NumGoroutine()
	co := startRun(t, tc, Config{
		InProcess:       true,
		CheckpointEvery: 4,
		MaxRecoveries:   1,
		MinRanks:        1,
		Faults: []*FaultPlan{
			// gen 1 is the rebalanced generation: its 2nd cycle is cycle 7,
			// recovered from the cycle-4 checkpoint (replaying 5 and 6).
			{Kind: FaultKill, Rank: 1, Cycle: 2, Substep: 1, Gen: 1},
			// gen 2 replays 5, 6 and runs 7..10: its 6th cycle is cycle 10,
			// the budget is spent, so rank 1 is retired; the shrink restores
			// the cycle-8 checkpoint (replaying 9).
			{Kind: FaultKill, Rank: 1, Cycle: 6, Substep: 1, Gen: 2},
			// gen 3 is the lone survivor: its 3rd cycle is cycle 11, and
			// only a budget reset by the shrink lets it be recovered.
			{Kind: FaultKill, Rank: 0, Cycle: 3, Substep: 1, Gen: 3},
		},
	})
	var gotT []float64
	var got [][]float64
	stepTo(t, co, 5, &gotT, &got)
	if err := co.Rebalance(scattered); err != nil {
		t.Fatalf("Rebalance: %v", err)
	}
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
	if err := co.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	// Reader goroutines notice their closed connections asynchronously.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines after Close, %d before Start:\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
	}
}
