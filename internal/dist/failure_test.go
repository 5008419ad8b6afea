package dist

import (
	"bytes"
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"golts/internal/ckpt"
	"golts/internal/lts"
	"golts/internal/parallel"
)

func TestFaultPlanParse(t *testing.T) {
	cases := []string{
		"kill:rank=1,cycle=3,substep=2",
		"stall:rank=0,cycle=1,substep=0",
		"delay:rank=2,cycle=4,substep=1,ms=150",
		"kill:rank=1,cycle=2,substep=0,gen=1",
		"droplink:rank=1,cycle=2,substep=0",
		"stall-link:rank=1,cycle=3,substep=0,ms=2000",
		"corrupt:rank=0,cycle=5,substep=0",
		"partition:rank=1,cycle=4,substep=1",
	}
	for _, spec := range cases {
		p, err := ParseFaultPlan(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if p.String() != spec {
			t.Fatalf("round trip: %q -> %q", spec, p.String())
		}
	}
	bad := []string{
		"",
		"kill",
		"explode:rank=1,cycle=1",
		"kill:rank=1", // cycle missing (cycle 0 invalid)
		"kill:rank=-1,cycle=1",
		"kill:rank=x,cycle=1",
		"kill:rank=1,cycle=1,weird=2",
		"kill:rank=1,cycle=1,substep",
	}
	for _, spec := range bad {
		if _, err := ParseFaultPlan(spec); err == nil {
			t.Fatalf("%q parsed without error", spec)
		}
	}
}

// TestRankDeathReturnsTypedFailure is the regression for the
// block-forever bug: a rank that dies between frames during Step used to
// hang the coordinator on a deadline-less read. Now the loss surfaces
// promptly as a *RankFailure.
func TestRankDeathReturnsTypedFailure(t *testing.T) {
	tc := newTestConfig(t, "acoustic", true, 2, 4)
	tc.cfg.PeerTimeoutMillis = 2000 // unblock the surviving rank quickly
	co, err := Start(Config{
		Run:       tc.cfg,
		InProcess: true,
		Faults:    []*FaultPlan{{Kind: FaultKill, Rank: 1, Cycle: 2, Substep: 0}},
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
	if _, _, err := co.StepCtx(context.Background()); err != nil {
		t.Fatalf("cycle 1: %v", err)
	}
	start := time.Now()
	_, _, err = co.StepCtx(context.Background())
	if err == nil {
		t.Fatal("cycle 2 succeeded despite a dead rank")
	}
	var rf *RankFailure
	if !errors.As(err, &rf) {
		t.Fatalf("error is not a *RankFailure: %v", err)
	}
	if wait := time.Since(start); wait > time.Minute {
		t.Fatalf("failure detection took %v", wait)
	}
}

// TestStallDetectedByHeartbeat: a rank that freezes with every
// connection held open is invisible to EOF detection; only the missing
// heartbeats give it away.
func TestStallDetectedByHeartbeat(t *testing.T) {
	tc := newTestConfig(t, "acoustic", true, 2, 4)
	tc.cfg.HeartbeatMillis = 50
	tc.cfg.HeartbeatTimeoutMillis = 400
	tc.cfg.PeerTimeoutMillis = 1000 // unblock the surviving rank's halo wait
	co, err := Start(Config{
		Run:       tc.cfg,
		InProcess: true,
		Faults:    []*FaultPlan{{Kind: FaultStall, Rank: 1, Cycle: 1, Substep: 1}},
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
	start := time.Now()
	_, _, err = co.StepCtx(context.Background())
	if err == nil {
		t.Fatal("Step succeeded despite a stalled rank")
	}
	var rf *RankFailure
	if !errors.As(err, &rf) {
		t.Fatalf("error is not a *RankFailure: %v", err)
	}
	if wait := time.Since(start); wait > 10*time.Second {
		t.Fatalf("stall detection took %v", wait)
	}
	// The stalled rank stays silent until the coordinator ends it, then
	// exits with its heartbeat loop: Close leaves neither behind.
	if stalledGoroutines() == 0 {
		t.Fatal("no goroutine of the stalled rank found before Close")
	}
	co.Close()
	deadline := time.Now().Add(5 * time.Second)
	for n := stalledGoroutines(); n > 0; n = stalledGoroutines() {
		if time.Now().After(deadline) {
			t.Fatalf("%d stalled-rank goroutines left after Close", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// stalledGoroutines counts the goroutines parked in a rank's injected
// stall or in its heartbeat loop, read from a dump of every goroutine's
// stack.
func stalledGoroutines() int {
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	count := 0
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		if strings.Contains(g, "(*rankRun).trigger") || strings.Contains(g, "(*rankRun).serve.func1") {
			count++
		}
	}
	return count
}

// runRecovered drives a run with an injected fault and recovery enabled,
// returning the full trajectory and the recovery count.
// cfg supplies the execution mode, the faults and the rank output.
func runRecovered(t *testing.T, tc *testConfig, cycles int, cfg Config) ([]float64, [][]float64, int) {
	t.Helper()
	cfg.Run, cfg.CheckpointEvery, cfg.MaxRecoveries = tc.cfg, 1, 2
	co, err := Start(cfg)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer func() {
		if err := co.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	owners, err := ReceiverOwnerParts(tc.geom, &tc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := co.SetReceiverParts(owners); err != nil {
		t.Fatal(err)
	}
	var times []float64
	var samples [][]float64
	for c := 0; c < cycles; c++ {
		tm, row, err := co.StepCtx(context.Background())
		if err != nil {
			t.Fatalf("Step %d: %v", c, err)
		}
		times = append(times, tm)
		samples = append(samples, append([]float64(nil), row...))
	}
	n, _ := co.Recoveries()
	return times, samples, n
}

// TestKillRecoveryBitwise: an in-process rank killed mid-cycle is
// respawned, the run restarts from the coordinator's checkpoint, and the
// delivered seismogram is bitwise identical to the fault-free baseline.
// The scale is chosen so the baseline samples are nonzero — recovery
// from a checkpoint with stale field regions passes this comparison at
// tiny amplitudes, where every sample is exactly 0.0.
func TestKillRecoveryBitwise(t *testing.T) {
	const cycles = 10
	for _, physics := range []string{"acoustic", "elastic"} {
		t.Run(physics, func(t *testing.T) {
			tc := newTestConfigScale(t, physics, true, 2, 4, 0.004)
			wantT, want := runShared(t, tc, cycles)
			if maxAbsSamples(want) == 0 {
				t.Fatal("vacuous baseline: every receiver sample is exactly zero")
			}
			gotT, got, rec := runRecovered(t, tc, cycles, Config{InProcess: true,
				Faults: []*FaultPlan{{Kind: FaultKill, Rank: 1, Cycle: 6, Substep: 2}}})
			if rec < 1 {
				t.Fatalf("no recovery happened (fault did not fire?)")
			}
			requireBitwise(t, physics, wantT, gotT, want, got)
		})
	}
}

// TestSpawnedKillRecovery exercises the real thing: a spawned rank
// process SIGKILLs itself (fault plan via the environment, as inherited
// by the child) and the coordinator respawns and recovers, bitwise. The
// survivor's broken halo link is an error it delivers to the coordinator,
// which reports it as the recovery, so the rank prints nothing about it.
func TestSpawnedKillRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawned-process test skipped in -short")
	}
	t.Setenv(EnvFault, "kill:rank=1,cycle=2,substep=1")
	tc := newTestConfig(t, "acoustic", true, 2, 4)
	const cycles = 5
	wantT, want := runShared(t, tc, cycles)
	var stderr lockedBuffer
	gotT, got, rec := runRecovered(t, tc, cycles, Config{Stderr: &stderr})
	if rec < 1 {
		t.Fatalf("no recovery happened (fault did not fire?)")
	}
	requireBitwise(t, "spawned", wantT, gotT, want, got)
	if out := stderr.String(); strings.Contains(out, "recv from") {
		t.Fatalf("a rank printed an error it delivered to the coordinator:\n%s", out)
	}
}

// lockedBuffer is a bytes.Buffer the output copiers of several rank
// processes may write concurrently.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestDelayFaultHarmless: a transient delay must ride out on the
// timeouts without triggering recovery, and without disturbing the
// trajectory.
func TestDelayFaultHarmless(t *testing.T) {
	tc := newTestConfig(t, "acoustic", true, 2, 4)
	const cycles = 4
	wantT, want := runShared(t, tc, cycles)
	gotT, got, rec := runRecovered(t, tc, cycles, Config{InProcess: true,
		Faults: []*FaultPlan{{Kind: FaultDelay, Rank: 1, Cycle: 2, Substep: 1, Delay: 80 * time.Millisecond}}})
	if rec != 0 {
		t.Fatalf("delay fault triggered %d recoveries", rec)
	}
	requireBitwise(t, "delay", wantT, gotT, want, got)
}

// TestFetchRestoreState: state pulled from one run (SaveState's frames)
// and installed into a freshly started run continues the trajectory
// bitwise.
func TestFetchRestoreState(t *testing.T) {
	tc := newTestConfig(t, "acoustic", true, 2, 4)
	const pre, post = 3, 3

	run := func() (*Coordinator, func()) {
		co, err := Start(Config{Run: tc.cfg, InProcess: true})
		if err != nil {
			t.Fatalf("Start: %v", err)
		}
		owners, err := ReceiverOwnerParts(tc.geom, &tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := co.SetReceiverParts(owners); err != nil {
			t.Fatal(err)
		}
		return co, func() { co.Close() }
	}

	co1, done1 := run()
	defer done1()
	for c := 0; c < pre; c++ {
		if _, _, err := co1.StepCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	_, frames := globalState(t, co1, tc)
	var wantT []float64
	var want [][]float64
	for c := 0; c < post; c++ {
		tm, row, err := co1.StepCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		wantT = append(wantT, tm)
		want = append(want, append([]float64(nil), row...))
	}

	co2, done2 := run()
	defer done2()
	if err := co2.RestoreState(frames); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	var gotT []float64
	var got [][]float64
	for c := 0; c < post; c++ {
		tm, row, err := co2.StepCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		gotT = append(gotT, tm)
		got = append(got, append([]float64(nil), row...))
	}
	requireBitwise(t, "restore", wantT, gotT, want, got)
}

// maxAbsSamples returns the largest |sample| across a trajectory — the
// anti-vacuity guard: a bitwise comparison of all-zero samples proves
// nothing.
func maxAbsSamples(rows [][]float64) float64 {
	m := 0.0
	for _, row := range rows {
		for _, v := range row {
			if a := math.Abs(v); a > m {
				m = a
			}
		}
	}
	return m
}

// TestFetchStateExactGlobalField is the regression for the stale-replica
// checkpoint bug. Under owner-computes stepping each rank's field arrays
// hold the run's state only on its owned element-node footprint — a
// snapshot taken from rank 0 alone carries nothing of it anywhere else,
// which every trajectory test at trivially small amplitude missed
// (all samples exactly 0.0). At a scale where the baseline is provably
// nonzero, the merged snapshot must equal the shared-memory engine's
// field at every dof, and a fresh run restored from it must continue the
// shared baseline bitwise.
func TestFetchStateExactGlobalField(t *testing.T) {
	const cycles, mid = 12, 7
	tc := newTestConfigScale(t, "acoustic", true, 2, 4, 0.004)
	refT, refS := runShared(t, tc, cycles)
	if maxAbsSamples(refS) == 0 {
		t.Fatal("vacuous baseline: every receiver sample is exactly zero")
	}

	co, err := Start(Config{Run: tc.cfg, InProcess: true})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Abort()
	owners, err := ReceiverOwnerParts(tc.geom, &tc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := co.SetReceiverParts(owners); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < mid; c++ {
		if _, _, err := co.StepCtx(context.Background()); err != nil {
			t.Fatalf("cycle %d: %v", c, err)
		}
	}
	st, frames := globalState(t, co, tc)

	// Field-level check: the snapshot equals the shared engine at every
	// dof, not only at the receivers.
	pop, err := parallel.NewOperator(tc.geom, tc.cfg.Part, tc.cfg.Parts)
	if err != nil {
		t.Fatal(err)
	}
	defer pop.Close()
	sch, err := lts.FromMeshLevels(pop, tc.lv, true)
	if err != nil {
		t.Fatal(err)
	}
	sch.SetSources(tc.srcs)
	for c := 0; c < mid; c++ {
		sch.Step()
	}
	du, dv := 0, 0
	for i := range st.U {
		if st.U[i] != sch.U[i] {
			du++
		}
		if st.V[i] != sch.V[i] {
			dv++
		}
	}
	if du != 0 || dv != 0 {
		t.Fatalf("snapshot differs from shared engine: %d/%d U dofs, %d V dofs", du, len(st.U), dv)
	}

	// Trajectory check: a fresh coordinator restored from the snapshot
	// continues the shared baseline bitwise.
	co2, err := Start(Config{Run: tc.cfg, InProcess: true})
	if err != nil {
		t.Fatal(err)
	}
	defer co2.Abort()
	if err := co2.SetReceiverParts(owners); err != nil {
		t.Fatal(err)
	}
	if err := co2.RestoreState(frames); err != nil {
		t.Fatal(err)
	}
	var gotT []float64
	var got [][]float64
	for c := mid; c < cycles; c++ {
		tm, row, err := co2.StepCtx(context.Background())
		if err != nil {
			t.Fatalf("restored cycle %d: %v", c, err)
		}
		gotT = append(gotT, tm)
		got = append(got, append([]float64(nil), row...))
	}
	if maxAbsSamples(got) == 0 {
		t.Fatal("vacuous tail: every restored sample is exactly zero")
	}
	requireBitwise(t, "restored-tail", refT[mid:], gotT, refS[mid:], got)
}

// TestFaultFromEnv keeps the env plumbing honest without spawning
// anything: single plans, ';'-separated multi-plans, and rejects.
func TestFaultFromEnv(t *testing.T) {
	t.Setenv(EnvFault, "delay:rank=0,cycle=1,substep=0,ms=5")
	ps, err := faultsFromEnv()
	if err != nil || len(ps) != 1 || ps[0].Kind != FaultDelay || ps[0].Delay != 5*time.Millisecond {
		t.Fatalf("faultsFromEnv: %+v, %v", ps, err)
	}
	t.Setenv(EnvFault, "kill:rank=0,cycle=2;kill:rank=1,cycle=2;kill:rank=1,cycle=2,gen=1")
	ps, err = faultsFromEnv()
	if err != nil || len(ps) != 3 {
		t.Fatalf("multi-plan env: %+v, %v", ps, err)
	}
	if ps[1].Rank != 1 || ps[2].Gen != 1 {
		t.Fatalf("multi-plan fields: %+v", ps)
	}
	t.Setenv(EnvFault, "nonsense")
	if _, err := faultsFromEnv(); err == nil {
		t.Fatal("bad env spec accepted")
	}
	t.Setenv(EnvFault, "kill:rank=0,cycle=1;nonsense")
	if _, err := faultsFromEnv(); err == nil {
		t.Fatal("bad multi-plan spec accepted")
	}
	t.Setenv(EnvFault, "")
	if ps, err := faultsFromEnv(); ps != nil || err != nil {
		t.Fatalf("empty env: %+v, %v", ps, err)
	}
	if !strings.Contains((&FaultPlan{Kind: FaultKill, Rank: 1, Cycle: 2}).String(), "kill:") {
		t.Fatal("String misses kind")
	}
}

// globalState is the global state of co's run after its last cycle: the
// frames SaveState returns — one footprint frame per rank — overlaid onto
// an all-zero field of tc's operator the way a local resume installs a
// checkpoint, coverage checked. The frames come along, as RestoreState
// takes them.
func globalState(t *testing.T, co *Coordinator, tc *testConfig) (*ckpt.StepperState, [][]byte) {
	t.Helper()
	section, err := co.SaveState()
	if err != nil {
		t.Fatalf("SaveState: %v", err)
	}
	f := ckpt.NewFile()
	f.Add("state", section)
	frames, err := f.Frames()
	if err != nil {
		t.Fatal(err)
	}
	b := zeroBase(tc.geom.NDof(), tc.geom.Comps(), nil)
	for _, frame := range frames {
		if err := b.o.Add(frame); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.o.Done(); err != nil {
		t.Fatal(err)
	}
	return b.st, frames
}
