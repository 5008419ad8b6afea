package lts

import (
	"fmt"
	"reflect"
	"testing"

	"golts/internal/sem"
)

// footprintOp declares every other node of its operator as its footprint.
type footprintOp struct {
	sem.Operator
	nodes []int32
}

func (f footprintOp) OwnedNodes() []int32 { return f.nodes }

// TestBuildSetsMatchesReference pins the counted construction of
// stepNodesAt, levelNodes, forceElems and the active region against the
// plain one — append node by node and element by element, in ascending
// order, then the active region as stepNodesAt[lo:] back to back — on one
// to three levels, optimised and reference sets, over every node and over
// a footprint, whose domain lists are in its compact numbering.
func TestBuildSetsMatchesReference(t *testing.T) {
	for levels := 1; levels <= 3; levels++ {
		m, lv := oracleMesh(t, levels)
		op, err := sem.NewAcoustic3D(m, 2, false)
		if err != nil {
			t.Fatal(err)
		}
		var half []int32
		for n := 0; n < op.NumNodes(); n += 2 {
			half = append(half, int32(n))
		}
		for fi, o := range []sem.Operator{op, footprintOp{op, half}} {
			for _, optimized := range []bool{true, false} {
				name := fmt.Sprintf("levels=%d footprint=%v optimized=%v", levels, fi == 1, optimized)
				st, err := buildSets(o, lv.Lvl, levels, optimized)
				if err != nil {
					t.Fatal(err)
				}
				stepNodesAt := make([][]int32, levels)
				levelNodes := make([][]int32, levels)
				forceElems := make([][]int32, levels)
				domain := sem.FootprintOf(o)
				for n := 0; n < op.NumNodes(); n++ {
					levelNodes[st.nodeLevel[n]] = append(levelNodes[st.nodeLevel[n]], int32(n))
					if domain == nil {
						stepNodesAt[st.stepLvl[n]] = append(stepNodesAt[st.stepLvl[n]], int32(n))
					}
				}
				for i, n := range domain { // the scheme's numbering: positions in the footprint
					stepNodesAt[st.stepLvl[n]] = append(stepNodesAt[st.stepLvl[n]], int32(i))
				}
				var nb []int32
				for e := 0; e < op.NumElements(); e++ {
					has := make([]bool, levels)
					for _, n := range op.ElemNodes(e, nb[:0]) {
						has[st.nodeLevel[n]] = true
					}
					for li, h := range has {
						if h {
							forceElems[li] = append(forceElems[li], int32(e))
						}
					}
				}
				lo := min(1, levels-1)
				var actNode []int32
				actOff := make([]int, levels)
				for li := lo; li < levels; li++ {
					actOff[li] = len(actNode)
					actNode = append(actNode, stepNodesAt[li]...)
				}
				var far []int32
				if lo == 1 {
					far = stepNodesAt[0]
				}
				for _, c := range []struct {
					what      string
					got, want any
				}{
					{"stepNodesAt", st.stepNodesAt, stepNodesAt},
					{"levelNodes", st.levelNodes, levelNodes},
					{"forceElems", st.forceElems, forceElems},
					{"actNode", st.actNode, actNode},
					{"actOff", st.actOff, actOff},
					{"far", st.far, far},
				} {
					if !equalLists(c.got, c.want) {
						t.Errorf("%s: %s = %v, want %v", name, c.what, c.got, c.want)
					}
				}
			}
		}
	}
}

// equalLists is reflect.DeepEqual with a nil list equal to an empty one.
func equalLists(a, b any) bool {
	norm := func(v any) any {
		switch l := v.(type) {
		case []int32:
			return append([]int32{}, l...)
		case [][]int32:
			out := make([][]int32, len(l))
			for i, x := range l {
				out[i] = append([]int32{}, x...)
			}
			return out
		}
		return v
	}
	return reflect.DeepEqual(norm(a), norm(b))
}
