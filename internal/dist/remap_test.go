package dist

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"golts/internal/decomp"
	"golts/internal/lts"
	"golts/internal/sem"
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
// 2 and 4 ranks, against the inner operator's remapped plans assembled by
// the backend's rule — one private accumulation per part, added in
// ascending part order — in the map's compact output space: bitwise on
// every rank's footprint, untouched elsewhere, and with the identity plan
// still exact afterwards (the private buffers were lent by prefix).
func TestRemappedApplyMatchesSequential(t *testing.T) {
	for _, physics := range []string{"acoustic", "elastic"} {
		for _, ranks := range []int{2, 4} {
			tc := newTestConfig(t, physics, true, ranks, 4)
			geom, nc := tc.geom, tc.geom.Comps()
			all := sem.AllElements(geom)
			list := all[len(all)/5:] // a proper sublist: some nodes stay outside the map
			nm := sem.BenchNodeMap(geom, list, 5)
			uc := make([]float64, nm.NIn*nc)
			sem.BenchField(uc)
			clear(uc[(nm.NIn-1)*nc:])
			base := make([]float64, nm.NOut*nc)
			sem.BenchField(base)

			var bs sem.BatchScratch
			want := slices.Clone(base)
			dp := decomp.Build(geom, tc.cfg.Part, tc.cfg.Parts, list)
			for p, owned := range dp.Parts {
				acc := make([]float64, len(base))
				geom.AddKuBatch(acc, uc, geom.NewBatchPlan(owned).Remap(nm), &bs)
				for _, n := range dp.Touched[p] {
					for d := int(nm.Out[n]) * nc; d < int(nm.Out[n])*nc+nc; d++ {
						want[d] += acc[d]
					}
				}
			}
			if slices.Equal(want, base) {
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
				for d := range want {
					if ref := map[bool]float64{true: want[d], false: base[d]}[exact[d/nc]]; got[r][d] != ref {
						t.Fatalf("%s ranks=%d rank %d slot %d (on footprint: %v): %v, want %v",
							physics, ranks, r, d/nc, exact[d/nc], got[r][d], ref)
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
				run := &rankRun{st: ltsRankStepper{sch}}
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
