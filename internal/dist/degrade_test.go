package dist

import (
	"strings"
	"testing"
	"time"
)

// runFaulted drives a checkpointed in-process run with injected fault
// plans and returns the coordinator (left open for counter inspection)
// plus the delivered trajectory.
func runFaulted(t *testing.T, tc *testConfig, cycles int, cfg Config) (*Coordinator, []float64, [][]float64) {
	t.Helper()
	cfg.InProcess = true
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 1
	}
	if cfg.MaxRecoveries == 0 {
		cfg.MaxRecoveries = 2
	}
	return runDistConfig(t, tc, cycles, cfg)
}

// TestDropLinkRecovery: a severed coordinator uplink (failed NIC, fallen
// switch port) surfaces as a silent drop and recovers bitwise.
func TestDropLinkRecovery(t *testing.T) {
	const cycles = 10
	tc := newTestConfigScale(t, "acoustic", true, 2, 4, 0.004)
	wantT, want := runShared(t, tc, cycles)
	if maxAbsSamples(want) == 0 {
		t.Fatal("vacuous baseline: every receiver sample is exactly zero")
	}
	co, gotT, got := runFaulted(t, tc, cycles, Config{
		Faults: []*FaultPlan{{Kind: FaultDropLink, Rank: 1, Cycle: 6, Substep: 0}},
	})
	defer co.Close()
	if rec, _ := co.Recoveries(); rec < 1 {
		t.Fatal("no recovery happened (droplink did not fire?)")
	}
	requireBitwise(t, "droplink", wantT, gotT, want, got)
}

// TestStallLinkRideOut: a link stall shorter than the heartbeat timeout
// delays frames but must not trigger recovery or disturb the trajectory.
func TestStallLinkRideOut(t *testing.T) {
	const cycles = 6
	tc := newTestConfig(t, "acoustic", true, 2, 4)
	wantT, want := runShared(t, tc, cycles)
	co, gotT, got := runFaulted(t, tc, cycles, Config{
		Faults: []*FaultPlan{{Kind: FaultStallLink, Rank: 1, Cycle: 3, Substep: 1, Delay: 100 * time.Millisecond}},
	})
	defer co.Close()
	if rec, _ := co.Recoveries(); rec != 0 {
		t.Fatalf("short link stall triggered %d recoveries", rec)
	}
	requireBitwise(t, "stall-link ride-out", wantT, gotT, want, got)
}

// TestStallLinkDetected: a link stall beyond the heartbeat timeout is
// indistinguishable from a hung host — heartbeats queue behind the
// stalled conn — and must trigger recovery, bitwise.
func TestStallLinkDetected(t *testing.T) {
	const cycles = 10
	tc := newTestConfigScale(t, "acoustic", true, 2, 4, 0.004)
	wantT, want := runShared(t, tc, cycles)
	if maxAbsSamples(want) == 0 {
		t.Fatal("vacuous baseline: every receiver sample is exactly zero")
	}
	tc.cfg.HeartbeatMillis = 50
	tc.cfg.HeartbeatTimeoutMillis = 400
	tc.cfg.PeerTimeoutMillis = 2000
	co, gotT, got := runFaulted(t, tc, cycles, Config{
		Faults: []*FaultPlan{{Kind: FaultStallLink, Rank: 1, Cycle: 6, Substep: 1, Delay: 2 * time.Second}},
	})
	defer co.Close()
	if rec, _ := co.Recoveries(); rec < 1 {
		t.Fatal("no recovery happened (long link stall undetected)")
	}
	requireBitwise(t, "stall-link detected", wantT, gotT, want, got)
}

// TestCorruptFrameRecovery: a frame whose CRC tail was flipped in flight
// is rejected by checksum verification, counted, classified as
// FailureCorrupt, and recovered from bitwise — not surfaced as an opaque
// decode error.
func TestCorruptFrameRecovery(t *testing.T) {
	const cycles = 10
	tc := newTestConfigScale(t, "acoustic", true, 2, 4, 0.004)
	wantT, want := runShared(t, tc, cycles)
	if maxAbsSamples(want) == 0 {
		t.Fatal("vacuous baseline: every receiver sample is exactly zero")
	}
	co, gotT, got := runFaulted(t, tc, cycles, Config{
		Faults: []*FaultPlan{{Kind: FaultCorrupt, Rank: 1, Cycle: 6, Substep: 1}},
	})
	defer co.Close()
	if rec, _ := co.Recoveries(); rec < 1 {
		t.Fatal("no recovery happened (corrupt frame undetected)")
	}
	if n := co.CorruptFrames(); n < 1 {
		t.Fatalf("CorruptFrames = %d, want >= 1", n)
	}
	requireBitwise(t, "corrupt", wantT, gotT, want, got)
}

// TestPartitionRecovery: a rank isolated from coordinator and peers at
// once — a network partition — is detected from whichever side notices
// first and recovered bitwise.
func TestPartitionRecovery(t *testing.T) {
	const cycles = 10
	tc := newTestConfigScale(t, "acoustic", true, 2, 4, 0.004)
	wantT, want := runShared(t, tc, cycles)
	if maxAbsSamples(want) == 0 {
		t.Fatal("vacuous baseline: every receiver sample is exactly zero")
	}
	tc.cfg.PeerTimeoutMillis = 2000
	co, gotT, got := runFaulted(t, tc, cycles, Config{
		Faults: []*FaultPlan{{Kind: FaultPartition, Rank: 1, Cycle: 6, Substep: 1}},
	})
	defer co.Close()
	if rec, _ := co.Recoveries(); rec < 1 {
		t.Fatal("no recovery happened (partition undetected)")
	}
	requireBitwise(t, "partition", wantT, gotT, want, got)
}

// TestTwoRankKillSameCycle: both ranks die in the same cycle — a
// correlated failure (shared PDU, one host running several ranks). One
// relaunch replaces the whole generation, so a single recovery absorbs
// the double loss, bitwise.
func TestTwoRankKillSameCycle(t *testing.T) {
	const cycles = 10
	tc := newTestConfigScale(t, "acoustic", true, 2, 4, 0.004)
	wantT, want := runShared(t, tc, cycles)
	if maxAbsSamples(want) == 0 {
		t.Fatal("vacuous baseline: every receiver sample is exactly zero")
	}
	co, gotT, got := runFaulted(t, tc, cycles, Config{
		Faults: []*FaultPlan{
			{Kind: FaultKill, Rank: 0, Cycle: 6, Substep: 1},
			{Kind: FaultKill, Rank: 1, Cycle: 6, Substep: 1},
		},
	})
	defer co.Close()
	if rec, _ := co.Recoveries(); rec < 1 {
		t.Fatal("no recovery happened (double kill did not fire?)")
	}
	requireBitwise(t, "double kill", wantT, gotT, want, got)
}

// TestKillDuringReplayRecovers: the respawned rank is killed again while
// the recovery replay is still running (gen=1 plan). The recovery loop
// must charge a second recovery and still converge bitwise.
func TestKillDuringReplayRecovers(t *testing.T) {
	const cycles = 10
	tc := newTestConfigScale(t, "acoustic", true, 2, 4, 0.004)
	wantT, want := runShared(t, tc, cycles)
	if maxAbsSamples(want) == 0 {
		t.Fatal("vacuous baseline: every receiver sample is exactly zero")
	}
	co, gotT, got := runFaulted(t, tc, cycles, Config{
		CheckpointEvery: 4, // failure at cycle 6 replays from cycle 4
		Faults: []*FaultPlan{
			{Kind: FaultKill, Rank: 1, Cycle: 6, Substep: 2},
			{Kind: FaultKill, Rank: 1, Cycle: 1, Substep: 1, Gen: 1},
		},
	})
	defer co.Close()
	if rec, _ := co.Recoveries(); rec != 2 {
		t.Fatalf("Recoveries = %d, want 2 (kill + kill-during-replay)", rec)
	}
	requireBitwise(t, "kill during replay", wantT, gotT, want, got)
}

// TestDegradedModeBitwise is the tentpole acceptance at unit scope: a
// rank that dies past its recovery budget is permanently retired, its
// parts moved onto the survivor by the block map, and the run completes on fewer
// ranks with a trajectory bitwise identical to the fault-free baseline
// at provably nonzero amplitude.
func TestDegradedModeBitwise(t *testing.T) {
	const cycles = 10
	tc := newTestConfigScale(t, "acoustic", true, 2, 4, 0.004)
	wantT, want := runShared(t, tc, cycles)
	if maxAbsSamples(want) == 0 {
		t.Fatal("vacuous baseline: every receiver sample is exactly zero")
	}
	co, gotT, got := runFaulted(t, tc, cycles, Config{
		MaxRecoveries: 1,
		MinRanks:      1,
		Faults: []*FaultPlan{
			{Kind: FaultKill, Rank: 1, Cycle: 6, Substep: 2},
			{Kind: FaultKill, Rank: 1, Cycle: 1, Substep: 1, Gen: 1},
		},
	})
	defer co.Close()
	deg, _ := co.Degraded()
	if deg != 1 {
		t.Fatalf("Degraded = %d, want 1", deg)
	}
	if n := co.Ranks(); n != 1 {
		t.Fatalf("Ranks after degrade = %d, want 1", n)
	}
	if rec, _ := co.Recoveries(); rec != 1 {
		t.Fatalf("Recoveries = %d, want 1 (second failure went to degrade)", rec)
	}
	requireBitwise(t, "degraded", wantT, gotT, want, got)
}

// TestDegradedModeMinRanksFloor: with the floor at the current width,
// exhausting the budget must fail with an error naming the floor instead
// of shrinking below it.
func TestDegradedModeMinRanksFloor(t *testing.T) {
	tc := newTestConfig(t, "acoustic", true, 2, 4)
	co, err := Start(Config{
		Run:             tc.cfg,
		InProcess:       true,
		CheckpointEvery: 1,
		MaxRecoveries:   1,
		MinRanks:        2,
		Faults: []*FaultPlan{
			{Kind: FaultKill, Rank: 1, Cycle: 2, Substep: 1},
			{Kind: FaultKill, Rank: 1, Cycle: 1, Substep: 1, Gen: 1},
		},
	})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer co.Abort()
	owners, err := ReceiverOwnerParts(tc.geom, &tc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := co.SetReceiverParts(owners); err != nil {
		t.Fatal(err)
	}
	stepErr := error(nil)
	for c := 0; c < 4 && stepErr == nil; c++ {
		_, _, stepErr = co.Step()
	}
	if stepErr == nil {
		t.Fatal("run survived past an exhausted budget at the MinRanks floor")
	}
	if !strings.Contains(stepErr.Error(), "MinRanks floor") {
		t.Fatalf("error does not name the floor: %v", stepErr)
	}
}

// TestDegradedModeRequiresCheckpoints: MinRanks > 0 without a checkpoint
// cadence is rejected at Start — shrinking restores from a checkpoint.
func TestDegradedModeRequiresCheckpoints(t *testing.T) {
	tc := newTestConfig(t, "acoustic", true, 2, 4)
	if _, err := Start(Config{Run: tc.cfg, InProcess: true, MinRanks: 1}); err == nil {
		t.Fatal("MinRanks > 0 without CheckpointEvery accepted")
	}
	if _, err := Start(Config{
		Run: tc.cfg, InProcess: true,
		CheckpointEvery: 1, MinRanks: 3,
	}); err == nil {
		t.Fatal("MinRanks above the rank count accepted")
	}
}
