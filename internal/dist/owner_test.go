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
)

// The tests of this file pin the owner-computes contract of the backend: a
// rank's stepper advances the nodes of its footprint (Operator.OwnedNodes)
// and nothing reads a rank's field arrays anywhere else. None of them is
// skipped or shortened under -short: `make race` runs them all.

// poison fills a rank's field arrays with NaN outside its footprint — as
// Config.onState, after build and after every restore. A NaN that any
// kernel, receiver sample or snapshot picks up from there does not go
// away again.
func poison(r *rankRun) {
	st := r.capture()
	nc := r.dop.Comps()
	keep := make([]bool, r.dop.NumNodes())
	for _, n := range r.dop.OwnedNodes() {
		keep[n] = true
	}
	for d := range st.U {
		if !keep[d/nc] {
			st.U[d], st.V[d] = math.NaN(), math.NaN()
		}
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

// ownerConfig is the test configuration of one shape with the sponge on
// and receivers where the wave is from the first cycle (the source nodes)
// next to the standard far ones.
func ownerConfig(t *testing.T, physics string, ranks, parts int, partRank []int) *testConfig {
	t.Helper()
	tc := newTestConfig(t, physics, true, ranks, parts)
	tc.cfg.PartRank = partRank
	tc.cfg.Sponge = testSponge
	for _, s := range tc.cfg.Sources {
		tc.cfg.Receivers = append(tc.cfg.Receivers, s.Dof)
	}
	return tc
}

// TestPoisonedOutsideFootprint: with everything a rank does not own
// poisoned, the seismograms still equal the shared-memory engine's of the
// same width bit for bit, and so does the global field the ranks'
// footprints add up to — every dof of it, so no rank's share is left out
// of the comparison, at an amplitude that is checked to be nonzero.
func TestPoisonedOutsideFootprint(t *testing.T) {
	const cycles = 6
	for _, physics := range []string{"acoustic", "elastic"} {
		for _, sh := range ownerShapes {
			name := fmt.Sprintf("%s/ranks=%d/parts=%d", physics, sh.ranks, sh.parts)
			t.Run(name, func(t *testing.T) {
				tc := ownerConfig(t, physics, sh.ranks, sh.parts, sh.partRank)
				shm := newShared(t, tc)
				wantT, want := sampleShared(shm, tc, cycles)
				nonzero := 0
				for _, row := range want {
					for _, v := range row {
						if v != 0 {
							nonzero++
						}
					}
				}
				if nonzero < cycles || maxAbsSamples(want) < 1e-12 {
					t.Fatalf("vacuous baseline: %d nonzero samples, peak %g", nonzero, maxAbsSamples(want))
				}

				co := startRun(t, tc, Config{InProcess: true, onState: poison})
				defer co.Close()
				var gotT []float64
				var got [][]float64
				stepTo(t, co, cycles, &gotT, &got)
				requireBitwise(t, name, wantT, gotT, want, got)

				st, err := co.FetchState()
				if err != nil {
					t.Fatal(err)
				}
				ref := shm.(ltsRankStepper).s
				for _, f := range []struct {
					name      string
					got, want []float64
				}{{"U", st.U, ref.U}, {"V", st.V, ref.V}} {
					for d := range f.want {
						if math.Float64bits(f.got[d]) != math.Float64bits(f.want[d]) {
							t.Fatalf("%s: %s of the overlaid footprints differs from the shared engine at dof %d: %v vs %v",
								name, f.name, d, f.got[d], f.want[d])
						}
					}
				}
			})
		}
	}
}

// TestOwnerComputesInvariants steps one LTS scheme per rank on a loop
// fabric and pins what the split rests on: each rank's active region and
// far-coarse list together are exactly its footprint, the footprints cover
// the mesh, the stiffness accumulators are all-zero after every cycle (no
// apply delivers anything outside the footprint, where nothing re-zeroes),
// and the work counters — counted over the mesh's element lists — are the
// sequential scheme's on every rank.
func TestOwnerComputesInvariants(t *testing.T) {
	const cycles = 3
	for _, physics := range []string{"acoustic", "elastic"} {
		for _, sh := range ownerShapes {
			name := fmt.Sprintf("%s/ranks=%d/parts=%d", physics, sh.ranks, sh.parts)
			tc := ownerConfig(t, physics, sh.ranks, sh.parts, sh.partRank)
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
				schemes[r].SetSources(tc.srcs)
				active, far := schemes[r].Domain()
				dom := append(slices.Clone(active), far...)
				slices.Sort(dom)
				if !slices.Equal(dom, op.OwnedNodes()) {
					t.Fatalf("%s rank %d: active region (%d) ∪ far-coarse list (%d) is not the footprint (%d nodes)",
						name, r, len(active), len(far), len(op.OwnedNodes()))
				}
				if len(dom) == len(covered) {
					t.Fatalf("%s rank %d: the footprint is the whole mesh; nothing is split", name, r)
				}
				for _, n := range dom {
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
	tc := ownerConfig(t, "elastic", 2, 2, nil)
	fabrics := tcpFabrics(t)
	var schemes [2]*lts.Scheme
	for r := range schemes {
		op, err := NewOperator(tc.geom, &tc.cfg, r, fabrics[r])
		if err != nil {
			t.Fatal(err)
		}
		if schemes[r], err = lts.FromMeshLevels(op, tc.lv, true); err != nil {
			t.Fatal(err)
		}
		schemes[r].SetSources(tc.srcs)
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
	if msgs := schemes[0].Op.(*Operator).Stats().Messages; msgs == 0 {
		t.Fatal("no halo frame was exchanged")
	}
}
