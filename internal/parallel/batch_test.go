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
// straight into dst). dst starts nonzero: the apply accumulates.
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
		}
		p.Close()
	}
}
