package decomp

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"golts/internal/mesh"
	"golts/internal/sem"
)

func testOp(t *testing.T) sem.Operator {
	t.Helper()
	m := mesh.Generators["trench"](0.0005)
	op, err := sem.NewAcoustic3D(m, 2, false)
	if err != nil {
		t.Fatalf("operator: %v", err)
	}
	return op
}

// roundRobin assigns element e to part e % p.
func roundRobin(n, p int) []int32 {
	part := make([]int32, n)
	for e := range part {
		part[e] = int32(e % p)
	}
	return part
}

// TestBuildInvariants: the ownership split preserves request order and
// covers the request exactly; touched sets are sorted, unique, and match
// sem.NodesOf per part.
func TestBuildInvariants(t *testing.T) {
	op := testOp(t)
	const P = 3
	part := roundRobin(op.NumElements(), P)
	elems := sem.AllElements(op)
	pl := Build(op, part, P, elems)

	total := 0
	for p := 0; p < P; p++ {
		total += len(pl.Parts[p])
		if len(pl.Parts[p]) == 0 {
			t.Fatalf("part %d owns no element", p)
		}
		for _, e := range pl.Parts[p] {
			if part[e] != int32(p) {
				t.Fatalf("part %d holds foreign element %d", p, e)
			}
		}
		want := sem.NodesOf(op, pl.Parts[p])
		if !reflect.DeepEqual(pl.Touched[p], want) {
			t.Fatalf("part %d touched set differs from NodesOf", p)
		}
		for i := 1; i < len(pl.Touched[p]); i++ {
			if pl.Touched[p][i] <= pl.Touched[p][i-1] {
				t.Fatalf("part %d touched set not strictly ascending", p)
			}
		}
	}
	if total != len(elems) {
		t.Fatalf("split holds %d elements, want %d", total, len(elems))
	}
}

// sortSliceTouched is the touched-set construction before the generic
// sort: mark and collect, then sort.Slice.
func sortSliceTouched(op sem.Operator, list []int32) []int32 {
	seen := make(map[int32]bool)
	var t, nb []int32
	for _, e := range list {
		nb = op.ElemNodes(int(e), nb[:0])
		for _, n := range nb {
			if !seen[n] {
				seen[n] = true
				t = append(t, n)
			}
		}
	}
	sort.Slice(t, func(i, j int) bool { return t[i] < t[j] })
	return t
}

// elemNodesOnly hides the flat connectivity table, so the touched-set
// construction takes its ElemNodes fallback.
type elemNodesOnly struct{ sem.Operator }

// TestTouchedNodesMatchesSortSlice: the touched sets every plan is built
// from (sem.TouchedNodes) are exactly what the sort.Slice construction
// produced, on random element lists with repeats and empty lists, through
// the flat table and through ElemNodes.
func TestTouchedNodesMatchesSortSlice(t *testing.T) {
	op := testOp(t)
	rng := rand.New(rand.NewSource(3))
	lists := make([][]int32, 8)
	for i := range lists {
		n := rng.Intn(3) * rng.Intn(op.NumElements()) // a third of them empty
		for j := 0; j < n; j++ {
			lists[i] = append(lists[i], int32(rng.Intn(op.NumElements())))
		}
	}
	for _, o := range []sem.Operator{op, elemNodesOnly{op}} {
		got := sem.TouchedNodes(o, lists)
		for i, l := range lists {
			if want := sortSliceTouched(op, l); !reflect.DeepEqual(got[i], want) {
				t.Fatalf("%T: list %d (%d elements): touched set differs from the sort.Slice result", o, i, len(l))
			}
		}
	}
}

// TestSharedUnionOwners: the halo set algebra.
func TestSharedUnionOwners(t *testing.T) {
	a := []int32{1, 3, 5, 7, 9}
	b := []int32{2, 3, 4, 7, 10}
	if got := Shared(a, b); !reflect.DeepEqual(got, []int32{3, 7}) {
		t.Errorf("Shared = %v", got)
	}
	if got := Shared(a, nil); got != nil {
		t.Errorf("Shared with empty = %v", got)
	}
	if got := Union(a, b); !reflect.DeepEqual(got, []int32{1, 2, 3, 4, 5, 7, 9, 10}) {
		t.Errorf("Union = %v", got)
	}
	if got := Union(); got != nil {
		t.Errorf("empty Union = %v", got)
	}
	own := Owners(6, [][]int32{{1, 3}, {3, 4}, {0, 4}})
	want := []int32{2, 0, -1, 0, 1, -1}
	if !reflect.DeepEqual(own, want) {
		t.Errorf("Owners = %v, want %v", own, want)
	}
}
