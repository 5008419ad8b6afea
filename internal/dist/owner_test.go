package dist

import (
	"fmt"
	"math"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"golts/internal/lts"
	"golts/internal/race"
	"golts/internal/sem"
	"golts/internal/solver"
)

// The tests of this file pin the owner-computes contract of the backend: a
// rank holds and advances the nodes of its footprint (Operator.OwnedNodes)
// and nothing else — its field arrays, accumulators and private part
// buffers are footprint-long, in the footprint's compact numbering — and
// on them it agrees with the shared-memory engine bit for bit. None of
// them is skipped or shortened under -short: `make race` runs them all.

// poison fills a rank's field arrays with NaN right before a restore (as
// Config.onRestore): the restore has to overwrite every entry, and a NaN
// it leaves behind does not go away again.
func poison(r *rankRun) {
	st := r.st.View()
	for d := range st.U {
		st.U[d], st.V[d] = math.NaN(), math.NaN()
	}
}

// ownerShapes are the two deployment shapes the contract is pinned on: one
// part per rank, and four parts on three ranks with rank 0 holding the
// non-adjacent parts 0 and 3.
var ownerShapes = []struct {
	ranks, parts int
	partRank     []int
}{
	{2, 2, nil},
	{3, 4, []int{0, 1, 2, 0}},
}

// ownerConfig is the test configuration of one shape with the sponge on.
func ownerConfig(t *testing.T, physics string, ltsScheme bool, ranks, parts int, partRank []int) *testConfig {
	t.Helper()
	tc := newTestConfig(t, physics, ltsScheme, ranks, parts)
	tc.cfg.PartRank = partRank
	tc.cfg.Sponge = testSponge
	return tc
}

// dstProbe is a rank's operator that records the longest dst a stepper
// accumulates into.
type dstProbe struct {
	*Operator
	longest int
}

func (p *dstProbe) AddKuBatch(dst, u []float64, plan sem.BatchPlan, bs *sem.BatchScratch) {
	p.longest = max(p.longest, len(dst))
	p.Operator.AddKuBatch(dst, u, plan, bs)
}

// TestRankHoldsFootprint: under both schemes, at Parts == Ranks and at
// Parts > Ranks, what a rank builds through package solver — U, V, every
// stiffness accumulator its stepper applies the operator to, and the
// private buffers of its parts but the lowest — is len(OwnedNodes)·Comps
// long. Run through the coordinator, the seismograms equal the
// shared-memory engine's of the same width bit for bit, and so does the
// global field the ranks' footprints add up to — every dof of it, at an
// amplitude checked to be nonzero.
func TestRankHoldsFootprint(t *testing.T) {
	const cycles = 6
	for _, physics := range []string{"acoustic", "elastic"} {
		for _, sh := range ownerShapes {
			t.Run(fmt.Sprintf("%s/ranks=%d/parts=%d", physics, sh.ranks, sh.parts), func(t *testing.T) {
				for _, ltsScheme := range []bool{true, false} {
					t.Run(fmt.Sprintf("lts=%v", ltsScheme), func(t *testing.T) {
						tc := ownerConfig(t, physics, ltsScheme, sh.ranks, sh.parts, sh.partRank)
						requireCompact(t, tc)
						requireFootprintsExact(t, tc, cycles)
					})
				}
			})
		}
	}
}

// requireCompact builds every rank's stepper on a loop fabric as the rank
// runtime does, steps two cycles and checks the lengths.
func requireCompact(t *testing.T, tc *testConfig) {
	t.Helper()
	_, ops := loopOperators(t, tc)
	probes := make([]*dstProbe, len(ops))
	steppers := make([]*solver.Stepper, len(ops))
	for r, op := range ops {
		probes[r] = &dstProbe{Operator: op}
		var err error
		if steppers[r], err = tc.cfg.NewStepper(probes[r], tc.geom, tc.m, tc.lv, false); err != nil {
			t.Fatal(err)
		}
	}
	for c := 0; c < 2; c++ {
		var wg sync.WaitGroup
		for _, st := range steppers {
			wg.Add(1)
			go func(st *solver.Stepper) {
				defer wg.Done()
				st.Step()
			}(st)
		}
		wg.Wait()
	}
	for r, op := range ops {
		want := len(op.OwnedNodes()) * op.Comps()
		st := steppers[r].View()
		if len(st.U) != want || len(st.V) != want || probes[r].longest != want {
			t.Fatalf("rank %d: U %d, V %d, longest accumulator %d values; the footprint has %d",
				r, len(st.U), len(st.V), probes[r].longest, want)
		}
		for i, acc := range op.acc {
			if (i == 0) != (acc == nil) || i > 0 && len(acc) != want {
				t.Fatalf("rank %d: private buffer %d of %d owned parts has %d values; the footprint has %d",
					r, i, len(op.owned), len(acc), want)
			}
		}
		if sch := steppers[r].LTS; sch != nil && !sch.AccumulatorsZero() {
			t.Fatalf("rank %d: an accumulator is not all-zero after a cycle", r)
		}
	}
}

// requireFootprintsExact runs tc through the coordinator and compares the
// seismograms and the overlaid global field with the shared-memory engine.
func requireFootprintsExact(t *testing.T, tc *testConfig, cycles int) {
	t.Helper()
	shm := newShared(t, tc)
	wantT, want := sampleShared(shm, tc, cycles)
	co := startRun(t, tc, Config{InProcess: true})
	defer co.Close()
	var gotT []float64
	var got [][]float64
	stepTo(t, co, cycles, &gotT, &got)
	requireBitwise(t, "seismograms", wantT, gotT, want, got)

	st, err := co.FetchState()
	if err != nil {
		t.Fatal(err)
	}
	ref := shm.View()
	for _, f := range []struct {
		name      string
		got, want []float64
	}{{"U", st.U, ref.U}, {"V", st.V, ref.V}} {
		if len(f.got) != len(f.want) {
			t.Fatalf("%s of the overlaid footprints has %d dofs, the shared engine %d", f.name, len(f.got), len(f.want))
		}
		for d := range f.want {
			if math.Float64bits(f.got[d]) != math.Float64bits(f.want[d]) {
				t.Fatalf("%s of the overlaid footprints differs from the shared engine at dof %d: %v vs %v",
					f.name, d, f.got[d], f.want[d])
			}
		}
	}
}

// TestOwnerComputesInvariants steps one LTS scheme per rank on a loop
// fabric and pins what the split rests on: each rank's active region and
// far-coarse list together are exactly its footprint's compact numbering,
// the footprints cover the mesh, the stiffness accumulators are all-zero
// after every cycle (no apply delivers anything the stepper does not
// re-zero), and the work counters — counted over the mesh's element lists
// — are the sequential scheme's on every rank.
func TestOwnerComputesInvariants(t *testing.T) {
	const cycles = 3
	for _, physics := range []string{"acoustic", "elastic"} {
		for _, sh := range ownerShapes {
			name := fmt.Sprintf("%s/ranks=%d/parts=%d", physics, sh.ranks, sh.parts)
			tc := ownerConfig(t, physics, true, sh.ranks, sh.parts, sh.partRank)
			seq, err := lts.FromMeshLevels(tc.geom, tc.lv, true)
			if err != nil {
				t.Fatal(err)
			}
			seq.SetSources(tc.srcs)
			_, ops := loopOperators(t, tc)
			schemes := make([]*lts.Scheme, len(ops))
			covered := make([]bool, tc.geom.NumNodes())
			for r, op := range ops {
				if schemes[r], err = lts.FromMeshLevels(op, tc.lv, true); err != nil {
					t.Fatal(err)
				}
				active, far := schemes[r].Domain()
				dom := append(slices.Clone(active), far...)
				slices.Sort(dom)
				for i, n := range dom {
					if int(n) != i || len(dom) != len(op.OwnedNodes()) {
						t.Fatalf("%s rank %d: active region (%d) ∪ far-coarse list (%d) is not the footprint's numbering 0..%d",
							name, r, len(active), len(far), len(op.OwnedNodes())-1)
					}
				}
				if len(dom) == len(covered) {
					t.Fatalf("%s rank %d: the footprint is the whole mesh; nothing is split", name, r)
				}
				for _, n := range op.OwnedNodes() {
					covered[n] = true
				}
			}
			if n := slices.Index(covered, false); n >= 0 {
				t.Fatalf("%s: node %d is in no rank's footprint", name, n)
			}
			for c := 1; c <= cycles; c++ {
				seq.Step()
				var wg sync.WaitGroup
				for _, s := range schemes {
					wg.Add(1)
					go func(s *lts.Scheme) {
						defer wg.Done()
						s.Step()
					}(s)
				}
				wg.Wait()
				for r, s := range schemes {
					if !s.AccumulatorsZero() {
						t.Fatalf("%s rank %d: an accumulator is not all-zero after cycle %d", name, r, c)
					}
					if s.Work.ElemApplies != seq.Work.ElemApplies || !slices.Equal(s.Work.PerLevel, seq.Work.PerLevel) {
						t.Fatalf("%s rank %d: work counters %d %v after cycle %d, the sequential scheme's are %d %v",
							name, r, s.Work.ElemApplies, s.Work.PerLevel, c, seq.Work.ElemApplies, seq.Work.PerLevel)
					}
				}
			}
			if maxAbsSamples([][]float64{seq.U}) == 0 {
				t.Fatalf("%s: the field is still exactly zero", name)
			}
		}
	}
}

// tcpFabrics wires two ranks' peer fabrics over one loopback TCP
// connection, as the handshake does.
func tcpFabrics(t *testing.T) [2]*peerFabric {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	dialed := make(chan net.Conn, 1)
	go func() {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Error(err)
		}
		dialed <- c
	}()
	accepted, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	var fabrics [2]*peerFabric
	for r, c := range []net.Conn{accepted, <-dialed} {
		if c == nil {
			t.FailNow()
		}
		links := make([]*peerLink, 2)
		links[1-r] = newPeerLink(newConn(c))
		fabrics[r] = &peerFabric{links: links, timeout: time.Minute}
		t.Cleanup(fabrics[r].close)
	}
	return fabrics
}

// TestSteadyStateCycleAllocatesNothing pins the halo path: once the plans
// exist and the links' value buffers have grown to the largest frame, a
// whole distributed LTS cycle — both ranks' steppers, operators, senders
// and peer reader goroutines, over real sockets — performs no heap
// allocation (AllocsPerRun counts the process, and truncates a stray
// runtime allocation away over its runs).
func TestSteadyStateCycleAllocatesNothing(t *testing.T) {
	tc := ownerConfig(t, "elastic", true, 2, 2, nil)
	fabrics := tcpFabrics(t)
	var schemes [2]*solver.Stepper
	var op0 *Operator
	for r := range schemes {
		op, err := NewOperator(tc.geom, &tc.cfg, r, fabrics[r])
		if err != nil {
			t.Fatal(err)
		}
		if schemes[r], err = tc.cfg.NewStepper(op, tc.geom, tc.m, tc.lv, false); err != nil {
			t.Fatal(err)
		}
		if r == 0 {
			op0 = op
		}
	}
	// Rank 1 steps on its own goroutine whenever told to; rank 0 here.
	step, done := make(chan struct{}), make(chan struct{})
	go func() {
		for range step {
			schemes[1].Step()
			done <- struct{}{}
		}
	}()
	defer close(step)
	cycle := func() {
		step <- struct{}{}
		schemes[0].Step()
		<-done
	}
	for i := 0; i < 4; i++ {
		cycle()
	}
	// The detector's own instrumentation allocates; under it the cycles
	// still run, for the buffer hand-off between reader and stepper.
	if allocs := testing.AllocsPerRun(8, cycle); allocs != 0 && !race.Enabled {
		t.Fatalf("a steady-state distributed cycle allocates %v times, want 0", allocs)
	}
	if msgs := op0.Stats().Messages; msgs == 0 {
		t.Fatal("no halo frame was exchanged")
	}
}
