package decomp

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"golts/internal/mesh"
	"golts/internal/partition"
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

// pairOp is a 130-node operator whose element e touches pairs[e] — two
// nodes per element, so the node count leaves a partial last bitmap word
// (130 % 64 = 2). With table set it exposes the pairs as its flat
// connectivity, otherwise only through ElemNodes.
type pairOp struct {
	sem.Operator
	pairs [][2]int32
}

func (o pairOp) NumNodes() int    { return 130 }
func (o pairOp) NumElements() int { return len(o.pairs) }
func (o pairOp) ElemNodes(e int, buf []int32) []int32 {
	return append(buf, o.pairs[e][:]...)
}

type pairTableOp struct{ pairOp }

func (o pairTableOp) ConnTable() ([]int32, int) {
	conn := make([]int32, 0, 2*len(o.pairs))
	for _, p := range o.pairs {
		conn = append(conn, p[:]...)
	}
	return conn, 2
}

// TestTouchedNodesBitmapContract pins what the bitmap scan of
// sem.TouchedNodes must keep: nodes on word boundaries (63, 64 and the
// last node, 129, alone in a partial last word), an element listed twice,
// consecutive lists that share nodes, a list after an empty one and a
// list repeated after others (the bitmap is clean between lists), nil for
// an empty list, and every list allocated at its exact size. It does so
// through the flat table and through ElemNodes, then once more at the
// last node of the trench mesh, whose node count is not a multiple of 64.
func TestTouchedNodesBitmapContract(t *testing.T) {
	op := pairOp{pairs: [][2]int32{{63, 64}, {129, 0}, {65, 128}, {5, 127}, {64, 1}}}
	lists := [][]int32{{0, 0}, {4, 0}, {}, {1}, {2, 3, 1}, {0}, nil}
	want := [][]int32{{63, 64}, {1, 63, 64}, nil, {0, 129}, {0, 5, 65, 127, 128, 129}, {63, 64}, nil}
	for _, o := range []sem.Operator{op, pairTableOp{op}} {
		got := sem.TouchedNodes(o, lists)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%T: touched sets %v, want %v", o, got, want)
		}
		for i, l := range got {
			if cap(l) != len(l) {
				t.Errorf("%T: list %d has cap %d for %d nodes", o, i, cap(l), len(l))
			}
		}
	}

	mop := testOp(t)
	last := int32(mop.NumNodes() - 1)
	if mop.NumNodes()%64 == 0 {
		t.Fatalf("fixture has %d nodes, a multiple of 64: no partial last word", mop.NumNodes())
	}
	var around []int32 // the elements at the last node, each twice
	var nb []int32
	for e := 0; e < mop.NumElements(); e++ {
		if slices.Contains(mop.ElemNodes(e, nb[:0]), last) {
			around = append(around, int32(e), int32(e))
		}
	}
	got := sem.TouchedNodes(mop, [][]int32{around, nil, around})
	if w := sortSliceTouched(mop, around); !reflect.DeepEqual(got[0], w) || !reflect.DeepEqual(got[2], w) || got[1] != nil {
		t.Fatalf("touched sets at the last node differ from the sort.Slice result")
	}
	if n := len(got[0]); n == 0 || got[0][n-1] != last || cap(got[0]) != n {
		t.Fatalf("touched set at the last node %d: %v (cap %d)", last, got[0], cap(got[0]))
	}
}

// TestSharedUnionOwners: the halo set algebra, Shared and Union.
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
}

// BenchmarkTouchedNodes: the touched sets of a dist2-lts-elastic rank
// footprint — trench 0.005, degree 4, elastic, the two SCOTCH-P parts of
// seed 1, one element list per part.
func BenchmarkTouchedNodes(b *testing.B) {
	m := mesh.Generators["trench"](0.005)
	lv := mesh.AssignLevels(m, 0.4/16, 0)
	op, err := sem.NewElastic3D(m, 4, false, 0)
	if err != nil {
		b.Fatal(err)
	}
	part, err := partition.Assign(m, lv, 2, partition.ScotchP, 1)
	if err != nil {
		b.Fatal(err)
	}
	lists := make([][]int32, 2)
	for e, p := range part {
		lists[p] = append(lists[p], int32(e))
	}
	b.ReportAllocs()
	for b.Loop() {
		sem.TouchedNodes(op, lists)
	}
}
