package dist

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"golts/internal/decomp"
	"golts/internal/lts"
	"golts/internal/parallel"
	"golts/internal/sem"
	"golts/internal/solver"
)

// loopFabric connects the Operators of one test process: rank a's frames
// for rank b queue on links[a][b]. tamper, when set, rewrites the values
// rank 0 receives. stop unblocks every pending receive with an error.
type loopFabric struct {
	links  [][]chan haloFrame
	stop   chan struct{}
	tamper func(vals []float64) []float64
}

func newLoopFabric(ranks int) *loopFabric {
	f := &loopFabric{links: make([][]chan haloFrame, ranks), stop: make(chan struct{})}
	for a := range f.links {
		f.links[a] = make([]chan haloFrame, ranks)
		for b := range f.links[a] {
			f.links[a][b] = make(chan haloFrame, 16) // as a peerLink: lockstep bounds the frames in flight
		}
	}
	return f
}

type loopEx struct {
	f    *loopFabric
	rank int
}

func (e loopEx) sendHalo(rank int, seq, planID uint32, values []float64) error {
	e.f.links[e.rank][rank] <- haloFrame{seq, planID, slices.Clone(values)}
	return nil
}

func (e loopEx) recvHalo(rank int) (uint32, uint32, []float64, error) {
	select {
	case fr := <-e.f.links[rank][e.rank]:
		if e.rank == 0 && e.f.tamper != nil {
			fr.values = e.f.tamper(fr.values)
		}
		return fr.seq, fr.planID, fr.values, nil
	case <-e.f.stop:
		return 0, 0, nil, errors.New("loop fabric stopped")
	}
}

func (e loopEx) releaseHalo(int, []float64) {}

// loopOperators builds one Operator per rank of tc on a loop fabric.
func loopOperators(t *testing.T, tc *testConfig) (*loopFabric, []*Operator) {
	t.Helper()
	f := newLoopFabric(tc.cfg.Ranks)
	ops := make([]*Operator, tc.cfg.Ranks)
	for r := range ops {
		var err error
		if ops[r], err = NewOperator(tc.geom, &tc.cfg, r, loopEx{f, r}); err != nil {
			t.Fatal(err)
		}
	}
	return f, ops
}

// TestRemappedApplyMatchesSequential pins a remapped distributed apply, on
// 2 and 4 ranks, against the inner operator's remapped plans assembled in
// the map's compact output space by the Operator's documented rule:
// bitwise on every rank's footprint, untouched elsewhere, and with the
// identity plan still exact afterwards (the private buffers were lent by
// prefix). Onto a zero dst that rule is the shared-memory engine's — one
// private accumulation per part, added in ascending part order; onto a
// nonzero dst it is the same wherever two parts touch the node, and a
// node only a rank's lowest part touches takes that part's elements
// folded onto dst.
func TestRemappedApplyMatchesSequential(t *testing.T) {
	for _, physics := range []string{"acoustic", "elastic"} {
		for _, ranks := range []int{2, 4} {
			for _, zero := range []bool{true, false} {
				tc := newTestConfig(t, physics, true, ranks, 4)
				geom, nc := tc.geom, tc.geom.Comps()
				all := sem.AllElements(geom)
				list := all[len(all)/5:] // a proper sublist: some nodes stay outside the map
				nm := sem.BenchNodeMap(geom, list, 5)
				uc := make([]float64, nm.NIn*nc)
				sem.BenchField(uc)
				clear(uc[(nm.NIn-1)*nc:])
				base := make([]float64, nm.NOut*nc)
				if !zero {
					sem.BenchField(base)
				}

				// term[p] is part p's contribution, its elements accumulated
				// from +0, and lone[p] its elements folded onto base instead;
				// cons[o] lists the parts touching compact node o, ascending.
				var bs sem.BatchScratch
				dp := decomp.Build(geom, tc.cfg.Part, tc.cfg.Parts, list)
				ownedBy := rankParts(tc.cfg.partRanks(), ranks)
				term, lone := make([][]float64, dp.P), make([][]float64, dp.P)
				cons := make([][]int, nm.NOut)
				for p, elems := range dp.Parts {
					plan := geom.NewBatchPlan(elems).Remap(nm)
					term[p], lone[p] = make([]float64, len(base)), slices.Clone(base)
					geom.AddKuBatch(term[p], uc, plan, &bs)
					geom.AddKuBatch(lone[p], uc, plan, &bs)
					for _, n := range dp.Touched[p] {
						cons[nm.Out[n]] = append(cons[nm.Out[n]], p)
					}
				}
				// The ascending-part rule: base plus every touching part's
				// term in part order; on a nonzero base, a node touched by a
				// rank's lowest part alone takes that part's lone fold.
				want := make([][]float64, ranks)
				for r := range want {
					lead := ownedBy[r][0]
					want[r] = slices.Clone(base)
					for o, cs := range cons {
						for d := o * nc; d < o*nc+nc; d++ {
							if !zero && len(cs) == 1 && cs[0] == lead {
								want[r][d] = lone[lead][d]
								continue
							}
							for _, p := range cs {
								want[r][d] += term[p][d]
							}
						}
					}
				}
				if slices.Equal(want[0], base) {
					t.Fatal("reference left dst unchanged; the comparison would be vacuous")
				}

				_, ops := loopOperators(t, tc)
				got := make([][]float64, ranks)
				var wg sync.WaitGroup
				for r, op := range ops {
					wg.Add(1)
					go func(r int, op *Operator) {
						defer wg.Done()
						var bs sem.BatchScratch
						got[r] = slices.Clone(base)
						op.AddKuBatch(got[r], uc, op.NewBatchPlan(list).Remap(nm), &bs)
						// Identity right after, into scratch: must find the
						// private buffers all-zero again and stay in step.
						op.AddKu(make([]float64, geom.NDof()), make([]float64, geom.NDof()), list)
					}(r, op)
				}
				wg.Wait()
				for r, op := range ops {
					exact := make([]bool, nm.NOut)
					for _, n := range op.OwnedNodes() {
						if o := nm.Out[n]; o >= 0 {
							exact[o] = true
						}
					}
					for d := range base {
						ref := base[d]
						if exact[d/nc] {
							ref = want[r][d]
						}
						if math.Float64bits(got[r][d]) != math.Float64bits(ref) {
							t.Fatalf("%s ranks=%d zero=%v rank %d slot %d (on footprint: %v): %v, want %v",
								physics, ranks, zero, r, d/nc, exact[d/nc], got[r][d], ref)
						}
					}
					for i, acc := range op.acc {
						if slices.ContainsFunc(acc, func(v float64) bool { return v != 0 }) {
							t.Fatalf("%s ranks=%d rank %d: private buffer %d not drained", physics, ranks, r, i)
						}
					}
				}
			}
		}
	}
}

// TestLiftIsExact pins a zero-dst apply of 4 parts on 1, 2 and 3 ranks
// against the shared-memory engine with 4 workers, bit for bit on every
// rank's footprint and untouched elsewhere. On 2 and 3 ranks the fixture
// must hold a node where a rank's lowest part is the third contributor or
// later — there the lift has to move dst out of the way of two earlier
// terms, which adding the lowest part's sum in place would misorder.
func TestLiftIsExact(t *testing.T) {
	for _, physics := range []string{"acoustic", "elastic"} {
		for _, ranks := range []int{1, 2, 3} {
			tc := newTestConfig(t, physics, true, ranks, 4)
			geom := tc.geom
			all := sem.AllElements(geom)
			u := make([]float64, geom.NDof())
			sem.BenchField(u)

			pop, err := parallel.NewOperator(geom, tc.cfg.Part, 4)
			if err != nil {
				t.Fatal(err)
			}
			defer pop.Close()
			want := make([]float64, geom.NDof())
			pop.AddKu(want, u, all) // the engine's apply, on a copy with its spill tail

			_, ops := loopOperators(t, tc)
			plans := make([]*distPlan, ranks)
			for r, op := range ops {
				plans[r] = op.NewBatchPlan(all).(*distPlan)
			}
			dp, late := plans[0].dp, false
			for r, op := range ops {
				lead := op.owned[0]
				if len(plans[r].recvNodes[lead]) == 0 {
					t.Fatalf("%s ranks=%d rank %d: no shared node, nothing to lift", physics, ranks, r)
				}
				for _, n := range plans[r].recvNodes[lead] {
					below := 0
					for p := 0; p < lead; p++ {
						if _, ok := slices.BinarySearch(dp.Touched[p], n); ok {
							below++
						}
					}
					late = late || below >= 2
				}
			}
			if ranks > 1 && !late {
				t.Fatalf("%s ranks=%d: no rank's lowest part is ever a third contributor; the test would be vacuous", physics, ranks)
			}

			got := make([][]float64, ranks)
			var wg sync.WaitGroup
			for r, op := range ops {
				wg.Add(1)
				go func(r int, op *Operator) {
					defer wg.Done()
					var bs sem.BatchScratch
					got[r] = make([]float64, geom.NDof())
					op.AddKuBatch(got[r], u, plans[r], &bs)
				}(r, op)
			}
			wg.Wait()
			for r, op := range ops {
				foot := make([]bool, geom.NumNodes())
				for _, n := range op.OwnedNodes() {
					foot[n] = true
				}
				for d, v := range got[r] {
					ref := 0.0
					if foot[d/geom.Comps()] {
						ref = want[d]
					}
					if math.Float64bits(v) != math.Float64bits(ref) {
						t.Fatalf("%s ranks=%d rank %d dof %d (on footprint: %v): %v, want %v",
							physics, ranks, r, d, foot[d/geom.Comps()], v, ref)
					}
				}
			}
		}
	}
}

// TestPrivateBuffers: a rank holds one NDof-long private accumulation
// buffer per owned part but its lowest, which accumulates into dst —
// none at all when every rank owns one part.
func TestPrivateBuffers(t *testing.T) {
	for _, c := range []struct{ ranks, parts int }{{1, 1}, {2, 2}, {4, 4}, {1, 4}, {2, 4}, {3, 4}} {
		tc := newTestConfig(t, "acoustic", true, c.ranks, c.parts)
		_, ops := loopOperators(t, tc)
		for r, op := range ops {
			n := 0
			for _, acc := range op.acc {
				if acc != nil {
					n++
				}
			}
			if n != len(op.owned)-1 {
				t.Errorf("ranks=%d parts=%d rank %d: %d private buffers for %d owned parts, want %d",
					c.ranks, c.parts, r, n, len(op.owned), len(op.owned)-1)
			}
		}
	}
}

// TestHaloFrameWrongCount is the regression for the assembly sweep
// trusting a halo frame's length: a frame with the right (seq, plan id)
// that passed its CRC but carries too few values used to walk off the
// slice — a bare index panic that stepOnce re-raises, taking the rank (or,
// in-process, the whole binary) down — and one with too many was silently
// accepted. Both must surface from stepOnce as the typed corrupt-frame
// error, whose report the coordinator classifies FailureCorrupt.
func TestHaloFrameWrongCount(t *testing.T) {
	for name, tamper := range map[string]func([]float64) []float64{
		"short": func(v []float64) []float64 { return v[:len(v)-1] },
		"long":  func(v []float64) []float64 { return append(v, 0) },
		"empty": func(v []float64) []float64 { return nil },
	} {
		t.Run(name, func(t *testing.T) {
			tc := newTestConfig(t, "elastic", true, 2, 4)
			f, ops := loopOperators(t, tc)
			f.tamper = tamper
			errs := make([]error, len(ops))
			var wg sync.WaitGroup
			for r, op := range ops {
				sch, err := lts.FromMeshLevels(op, tc.lv, true)
				if err != nil {
					t.Fatal(err)
				}
				run := &rankRun{st: &solver.Stepper{LTS: sch}}
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					defer func() {
						if rec := recover(); rec != nil {
							errs[r] = fmt.Errorf("stepOnce panicked: %v", rec)
						}
						if r == 0 {
							close(f.stop) // rank 0 is done either way: release its peer
						}
					}()
					errs[r] = run.stepOnce()
				}(r)
			}
			wg.Wait()
			var ce *CorruptFrameError
			if !errors.As(errs[0], &ce) || ce.Type != msgHalo {
				t.Fatalf("rank 0: %v, want a *CorruptFrameError for a halo frame", errs[0])
			}
			// The rank reports the text over msgErr; this marker is what the
			// coordinator's recvFrame types as FailureCorrupt.
			if !strings.Contains(errs[0].Error(), "corrupt frame") {
				t.Fatalf("report %q lacks the marker the coordinator types as %q", errs[0], FailureCorrupt)
			}
		})
	}
}
