package decomp

import (
	"reflect"
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
	if len(pl.Active) != P {
		t.Fatalf("active parts = %v, want all %d", pl.Active, P)
	}
	if pl.Messages != P {
		t.Fatalf("messages = %d, want %d", pl.Messages, P)
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
