package parallel

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"golts/internal/mesh"
	"golts/internal/partition"
	"golts/internal/sem"
)

// assemble is the engine's documented rule, built from a sequential
// kernel: apply(acc, owned) accumulates one rank's owned slice of list,
// in list order, into acc, whose index of node n is out(n). At a node two
// or more ranks touch, each rank's terms are summed from +0 and added to
// dst in ascending rank order; at a node one rank touches, that rank's
// terms fold onto dst in list order (the K = 1 rule). With private set,
// every node takes the first rule: the engine that kept one private
// buffer per rank.
func assemble(op sem.Operator, part []int32, k int, list []int32, dst []float64, private bool,
	out func(n int32) int, apply func(acc []float64, owned []int32)) []float64 {
	nc := op.Comps()
	owned := make([][]int32, k)
	for _, e := range list {
		owned[part[e]] = append(owned[part[e]], e)
	}
	touched := sem.TouchedNodes(op, owned)
	count := make([]int, op.NumNodes())
	for _, t := range touched {
		for _, n := range t {
			count[n]++
		}
	}
	want := slices.Clone(dst)
	for r := range owned {
		acc := make([]float64, len(dst))
		apply(acc, owned[r])
		fold := slices.Clone(dst)
		apply(fold, owned[r])
		for _, n := range touched[r] {
			for c := 0; c < nc; c++ {
				d := out(n)*nc + c
				if private || count[n] > 1 {
					want[d] += acc[d]
				} else {
					want[d] = fold[d]
				}
			}
		}
	}
	return want
}

// applyTail runs one engine apply on a copy of dst extended by the plan's
// spill tail, fails unless the tail is all-zero again afterwards, and
// returns the caller's part.
func applyTail(t *testing.T, p *PartitionedOperator, dst, u []float64, plan sem.BatchPlan) []float64 {
	t.Helper()
	buf := make([]float64, plan.DstNodes()*p.Comps())
	copy(buf, dst)
	p.AddKuBatch(buf, u, plan, nil)
	if i := slices.IndexFunc(buf[len(dst):], func(v float64) bool { return v != 0 }); i >= 0 {
		t.Fatalf("spill slot value %d left nonzero after the apply", i)
	}
	return buf[:len(dst)]
}

func bitsEqual(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestApplyMatchesOracle pins the engine's apply — through AddKuBatch and
// through the plan-less AddKu / AddKuScratch entry points — bitwise
// against the result assembled from the inner operator's per-element
// oracle. On a zero dst that is the rule of private buffers: each rank
// accumulates its owned slice of the list, in list order, into a private
// zero buffer, and the buffers are added to dst in ascending rank order
// (K = 1 accumulates straight into dst). On a nonzero dst it is the
// documented rule (assemble): that rule at the nodes two ranks touch, the
// K = 1 rule at the others. The engine's remapped plan is pinned the same
// way against the inner operator's remapped plans (which internal/sem
// pins against the oracle), assembled by the same rule in the map's
// compact output space.
func TestApplyMatchesOracle(t *testing.T) {
	m, op := eqSetup(t)
	lv := mesh.AssignLevels(m, 0.3/9, 2)
	elems := sem.AllElements(op)
	// A restricted list too: ranks then own ragged, non-contiguous slices.
	restricted := elems[:len(elems)/3*2]
	nd := op.NDof()
	u := make([]float64, nd)
	sem.BenchField(u)
	nonzero := make([]float64, nd)
	sem.BenchField(nonzero)
	var sc sem.Scratch
	var bs sem.BatchScratch
	for _, k := range []int{1, 2, 4} {
		part, err := partition.Assign(m, lv, k, partition.ScotchP, 1)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewOperator(op, part, k)
		if err != nil {
			t.Fatal(err)
		}
		for _, base := range [][]float64{make([]float64, nd), nonzero} {
			zero := !slices.ContainsFunc(base, func(v float64) bool { return v != 0 })
			for _, list := range [][]int32{elems, restricted, {}} {
				name := fmt.Sprintf("K=%d len=%d zero=%v", k, len(list), zero)
				ident := func(n int32) int { return int(n) }
				want := assemble(op, part, k, list, base, zero, ident, func(acc []float64, owned []int32) {
					op.AddKuScratch(acc, u, owned, &sc)
				})
				if len(list) > 0 && slices.Equal(want, base) {
					t.Fatalf("%s: oracle left dst unchanged; the comparison would be vacuous", name)
				}
				batch := applyTail(t, p, base, u, p.NewBatchPlan(list))
				plain := slices.Clone(base)
				p.AddKu(plain, u, list)
				scratch := slices.Clone(base)
				p.AddKuScratch(scratch, u, list, nil)
				for entry, got := range map[string][]float64{"AddKuBatch": batch, "AddKu": plain, "AddKuScratch": scratch} {
					if i := bitsEqual(want, got); i >= 0 {
						t.Fatalf("%s dof=%d: %s %v != oracle %v", name, i, entry, got[i], want[i])
					}
				}

				nm := sem.BenchNodeMap(op, list, 3)
				uc := make([]float64, nm.NIn)
				sem.BenchField(uc)
				uc[nm.NIn-1] = 0
				basec := base[:nm.NOut]
				wantc := assemble(op, part, k, list, basec, zero, func(n int32) int { return int(nm.Out[n]) },
					func(acc []float64, owned []int32) {
						op.AddKuBatch(acc, uc, op.NewBatchPlan(owned).Remap(nm), &bs)
					})
				if len(list) > 0 && slices.Equal(wantc, basec) {
					t.Fatalf("%s: remapped reference left dst unchanged; the comparison would be vacuous", name)
				}
				gotc := applyTail(t, p, basec, uc, p.NewBatchPlan(list).Remap(nm))
				if i := bitsEqual(wantc, gotc); i >= 0 {
					t.Fatalf("%s dof=%d: engine-remapped apply %v != sequential remapped plans %v", name, i, gotc[i], wantc[i])
				}
			}
		}
		p.Close()
	}
}

// TestSpillHoldsSharedPairs: no worker holds a field-sized buffer; the
// spill tail of a plan holds exactly one slot per (node, rank) pair where
// a lower rank touches the node too, the merge visits a node's slots in
// ascending rank order, and the apply — identity and remapped, on a zero
// and a nonzero dst, twice in a row — equals the documented rule bitwise
// at K = 2, 3, 4 and 8, on a fixture with nodes that three or more
// workers touch.
func TestSpillHoldsSharedPairs(t *testing.T) {
	m, op := eqSetup(t)
	lv := mesh.AssignLevels(m, 0.3/9, 3)
	elems := sem.AllElements(op)
	nd := op.NDof()
	u := make([]float64, nd)
	sem.BenchField(u)
	nonzero := make([]float64, nd)
	sem.BenchField(nonzero)
	var sc sem.Scratch
	var bs sem.BatchScratch
	for _, k := range []int{2, 3, 4, 8} {
		part, err := partition.Assign(m, lv, k, partition.ScotchP, 7)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewOperator(op, part, k)
		if err != nil {
			t.Fatal(err)
		}
		for w, rw := range p.workers {
			v := reflect.ValueOf(rw).Elem()
			for i := 0; i < v.NumField(); i++ {
				if f := v.Field(i); f.Kind() == reflect.Slice && f.Len() >= nd {
					t.Fatalf("K=%d: worker %d holds %s with %d entries (NDof = %d)", k, w, v.Type().Field(i).Name, f.Len(), nd)
				}
			}
		}
		pl := p.NewBatchPlan(elems).(*applyPlan)
		// The (node, rank) pairs with a lower toucher.
		lowest := make([]int, op.NumNodes())
		touchers := make([]int, op.NumNodes())
		var want []spillPair
		for r, touched := range pl.dp.Touched {
			for _, n := range touched {
				if touchers[n]++; touchers[n] == 1 {
					lowest[n] = r
				} else {
					want = append(want, spillPair{n, int32(r)})
				}
			}
		}
		byNode := func(a, b spillPair) int { return int(a.node-b.node)*k + int(a.rank-b.rank) }
		got := slices.Clone(pl.pairs)
		slices.SortFunc(got, byNode)
		slices.SortFunc(want, byNode)
		if !slices.Equal(got, want) || len(want) == 0 || pl.DstNodes() != op.NumNodes()+len(want) {
			t.Fatalf("K=%d: spill tail of %d slots (%d pairs), want one per (node, non-lowest toucher) pair: %d",
				k, pl.DstNodes()-op.NumNodes(), len(pl.pairs), len(want))
		}
		if k >= 3 && slices.Max(touchers) < 3 {
			t.Fatalf("K=%d: no node has three touchers; an out-of-order merge would go unnoticed", k)
		}
		for r := 0; r < k; r++ {
			for i := pl.lead[r]; i < pl.lead[r+1]; i++ {
				n := pl.sharedNode[i]
				slots := pl.pairs[pl.slotOff[i]:pl.slotOff[i+1]]
				if lowest[n] != r || len(slots) != touchers[n]-1 {
					t.Fatalf("K=%d node %d: listed as led by rank %d with %d slots; lowest toucher %d of %d", k, n, r, len(slots), lowest[n], touchers[n])
				}
				for j, sp := range slots {
					if sp.node != n || j > 0 && sp.rank <= slots[j-1].rank {
						t.Fatalf("K=%d node %d: merge slots %v, want its further touchers in ascending rank order", k, n, slots)
					}
				}
			}
		}

		nm := sem.BenchNodeMap(op, elems, 5)
		uc := make([]float64, nm.NIn)
		sem.BenchField(uc)
		uc[nm.NIn-1] = 0
		for _, base := range [][]float64{make([]float64, nd), nonzero} {
			want := assemble(op, part, k, elems, base, false, func(n int32) int { return int(n) },
				func(acc []float64, owned []int32) { op.AddKuScratch(acc, u, owned, &sc) })
			wantc := assemble(op, part, k, elems, base[:nm.NOut], false, func(n int32) int { return int(nm.Out[n]) },
				func(acc []float64, owned []int32) {
					op.AddKuBatch(acc, uc, op.NewBatchPlan(owned).Remap(nm), &bs)
				})
			plc := pl.Remap(nm)
			for rep := 0; rep < 2; rep++ {
				if i := bitsEqual(want, applyTail(t, p, base, u, pl)); i >= 0 {
					t.Fatalf("K=%d apply %d: dof %d differs from the documented rule", k, rep, i)
				}
				if i := bitsEqual(wantc, applyTail(t, p, base[:nm.NOut], uc, plc)); i >= 0 {
					t.Fatalf("K=%d remapped apply %d: dof %d differs from the documented rule", k, rep, i)
				}
			}
		}
		p.Close()
	}
}
