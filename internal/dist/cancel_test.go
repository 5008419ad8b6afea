//go:build unix

package dist

import (
	"context"
	"errors"
	"syscall"
	"testing"
	"time"
)

// TestCancelKillsSpawnedRanks is the lifecycle regression for cancelled
// runs: with a spawned rank wedged (SIGSTOP — the stand-in for a hung
// kernel or dead peer), cancelling the step context must return promptly
// with context.Canceled — not a wire error, and not after waiting out
// stepTimeout — and must kill and reap every rank process so no orphans
// survive. Pre-fix, Step had no context path at all: the coordinator sat
// in recvFrame for the full five-minute step timeout and the stopped
// rank process outlived the caller.
func TestCancelKillsSpawnedRanks(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real rank processes")
	}
	tc := newTestConfig(t, "acoustic", true, 2, 2)
	co, err := Start(Config{Run: tc.cfg, InProcess: false})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer co.Close()
	owners, err := ReceiverOwnerParts(tc.geom, &tc.cfg)
	if err != nil {
		t.Fatalf("ReceiverOwnerParts: %v", err)
	}
	if err := co.SetReceiverParts(owners); err != nil {
		t.Fatalf("SetReceiverParts: %v", err)
	}
	if _, _, err := co.StepCtx(context.Background()); err != nil {
		t.Fatalf("healthy Step: %v", err)
	}

	pids := make([]int, len(co.ranks))
	for i, h := range co.ranks {
		if h.proc == nil {
			t.Fatalf("rank %d was not spawned", i)
		}
		pids[i] = h.proc.Process.Pid
	}

	// Wedge rank 1: it stops responding, and rank 0 blocks on the halo
	// exchange with it, so the step cannot complete on its own.
	if err := syscall.Kill(pids[1], syscall.SIGSTOP); err != nil {
		t.Fatalf("SIGSTOP rank 1: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(200 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, _, err = co.StepCtx(ctx)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("StepCtx returned %v, want context.Canceled", err)
	}
	// Far below stepTimeout (5 min): cancellation plus the kill/reap of a
	// SIGSTOPped process should take well under the 5 s abort grace.
	if elapsed > 30*time.Second {
		t.Fatalf("cancelled step took %v — waited out a timeout instead of aborting", elapsed)
	}

	// No orphans: both rank processes must be killed AND reaped by the
	// time the abort returns — signal 0 probes existence without touching
	// the process, and must report ESRCH.
	for i, pid := range pids {
		if err := syscall.Kill(pid, 0); !errors.Is(err, syscall.ESRCH) {
			t.Errorf("rank %d (pid %d) still exists after cancel (kill 0 err=%v)", i, pid, err)
		}
	}

	// Close after an abort is a clean no-op.
	if err := co.Close(); err != nil {
		t.Errorf("Close after abort: %v", err)
	}
}
