package parallel

import (
	"slices"
	"testing"

	"golts/internal/mesh"
	"golts/internal/partition"
	"golts/internal/sem"
)

// TestApplyMatchesOracle pins the engine's apply — through AddKuBatch and
// through the plan-less AddKu / AddKuScratch entry points — bitwise
// against the result assembled from the inner operator's per-element
// oracle by the engine's documented rule: each rank accumulates its owned
// slice of the list, in list order, into a private zero buffer, and the
// buffers are added to dst in ascending rank order (K = 1 accumulates
// straight into dst). dst starts nonzero: the apply accumulates. The
// engine's remapped plan is pinned the same way against the inner
// operator's remapped plans (which internal/sem pins against the oracle),
// assembled by the same rule in the map's compact output space.
func TestApplyMatchesOracle(t *testing.T) {
	m, op := eqSetup(t)
	lv := mesh.AssignLevels(m, 0.3/9, 2)
	elems := sem.AllElements(op)
	// A restricted list too: ranks then own ragged, non-contiguous slices.
	restricted := elems[:len(elems)/3*2]
	nd := op.NDof()
	u := make([]float64, nd)
	sem.BenchField(u)
	base := make([]float64, nd)
	sem.BenchField(base)
	for _, k := range []int{1, 2, 4} {
		part, err := partition.Assign(m, lv, k, partition.ScotchP, 1)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewOperator(op, part, k)
		if err != nil {
			t.Fatal(err)
		}
		for _, list := range [][]int32{elems, restricted, {}} {
			want := slices.Clone(base)
			var sc sem.Scratch
			if k == 1 {
				op.AddKuScratch(want, u, list, &sc)
			} else {
				for r := 0; r < k; r++ {
					var owned []int32
					for _, e := range list {
						if int(part[e]) == r {
							owned = append(owned, e)
						}
					}
					acc := make([]float64, nd)
					op.AddKuScratch(acc, u, owned, &sc)
					for _, n := range sem.NodesOf(op, owned) {
						want[n] += acc[n]
					}
				}
			}
			if len(list) > 0 && slices.Equal(want, base) {
				t.Fatalf("K=%d len=%d: oracle left dst unchanged; the comparison would be vacuous", k, len(list))
			}
			var bs sem.BatchScratch
			batch := slices.Clone(base)
			p.AddKuBatch(batch, u, p.NewBatchPlan(list), &bs)
			plain := slices.Clone(base)
			p.AddKu(plain, u, list)
			scratch := slices.Clone(base)
			p.AddKuScratch(scratch, u, list, nil)
			for name, got := range map[string][]float64{"AddKuBatch": batch, "AddKu": plain, "AddKuScratch": scratch} {
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("K=%d len=%d dof=%d: %s %v != oracle %v", k, len(list), i, name, got[i], want[i])
					}
				}
			}

			nm := sem.BenchNodeMap(op, list, 3)
			uc := make([]float64, nm.NIn)
			sem.BenchField(uc)
			uc[nm.NIn-1] = 0
			basec := base[:nm.NOut]
			wantc := slices.Clone(basec)
			if k == 1 {
				op.AddKuBatch(wantc, uc, op.NewBatchPlan(list).Remap(nm), &bs)
			} else {
				for r := 0; r < k; r++ {
					var owned []int32
					for _, e := range list {
						if int(part[e]) == r {
							owned = append(owned, e)
						}
					}
					acc := make([]float64, nm.NOut)
					op.AddKuBatch(acc, uc, op.NewBatchPlan(owned).Remap(nm), &bs)
					for _, n := range sem.NodesOf(op, owned) {
						wantc[nm.Out[n]] += acc[nm.Out[n]]
					}
				}
			}
			if len(list) > 0 && slices.Equal(wantc, basec) {
				t.Fatalf("K=%d len=%d: remapped reference left dst unchanged; the comparison would be vacuous", k, len(list))
			}
			gotc := slices.Clone(basec)
			p.AddKuBatch(gotc, uc, p.NewBatchPlan(list).Remap(nm), &bs)
			if !slices.Equal(gotc, wantc) {
				t.Fatalf("K=%d len=%d: engine-remapped apply differs from the sequential remapped plans", k, len(list))
			}
			// The workers lent a prefix of their buffers: an identity apply
			// right after must still find them all-zero.
			again := slices.Clone(base)
			p.AddKuBatch(again, u, p.NewBatchPlan(list), &bs)
			if !slices.Equal(again, want) {
				t.Fatalf("K=%d len=%d: identity apply after a remapped one differs", k, len(list))
			}
		}
		p.Close()
	}
}
