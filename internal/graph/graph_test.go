package graph

import (
	"testing"

	"golts/internal/mesh"
)

func trenchSmall() (*mesh.Mesh, *mesh.Levels) {
	m := mesh.Trench(0.02)
	lv := mesh.AssignLevels(m, 0.4, 0)
	return m, lv
}

func TestDualGraphStructure(t *testing.T) {
	m := mesh.Uniform(3, 3, 3, 1, 1)
	lv := mesh.AssignLevels(m, 0.4, 0)
	g := FromMeshDual(m, lv, false)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.N != 27 {
		t.Fatalf("N = %d", g.N)
	}
	// 3x3x3 grid: edges = 3 * 3*3*2 (per direction) = 54.
	if len(g.Adj)/2 != 54 {
		t.Fatalf("edges = %d, want 54", len(g.Adj)/2)
	}
	if g.Components() != 1 {
		t.Fatalf("components = %d", g.Components())
	}
	min, max, mean := g.DegreeStats()
	if min != 3 || max != 6 {
		t.Fatalf("degree min/max = %d/%d, want 3/6", min, max)
	}
	if mean <= 3 || mean >= 6 {
		t.Fatalf("mean degree %v out of range", mean)
	}
}

func TestDualGraphWeights(t *testing.T) {
	m, lv := trenchSmall()
	// Single constraint: weight = p.
	g := FromMeshDual(m, lv, false)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NC() != 1 {
		t.Fatalf("NC = %d", g.NC())
	}
	for v := 0; v < g.N; v++ {
		if int(g.VW[0][v]) != lv.PFor(v) {
			t.Fatalf("vertex %d weight %d, want p = %d", v, g.VW[0][v], lv.PFor(v))
		}
	}
	// Edge weight = max(p_u, p_v).
	for v := 0; v < g.N; v++ {
		for i := g.Xadj[v]; i < g.Xadj[v+1]; i++ {
			u := g.Adj[i]
			want := lv.PFor(v)
			if p := lv.PFor(int(u)); p > want {
				want = p
			}
			if int(g.EW[i]) != want {
				t.Fatalf("edge (%d,%d) weight %d, want %d", v, u, g.EW[i], want)
			}
		}
	}
	// Multi-constraint: exactly one unit per vertex, in the right slot.
	mg := FromMeshDual(m, lv, true)
	if mg.NC() != lv.NumLevels {
		t.Fatalf("NC = %d, want %d", mg.NC(), lv.NumLevels)
	}
	for v := 0; v < mg.N; v++ {
		sum := int32(0)
		for c := 0; c < mg.NC(); c++ {
			sum += mg.VW[c][v]
			if mg.VW[c][v] == 1 && c != int(lv.Lvl[v])-1 {
				t.Fatalf("vertex %d has weight in constraint %d but level %d", v, c, lv.Lvl[v])
			}
		}
		if sum != 1 {
			t.Fatalf("vertex %d has total weight %d", v, sum)
		}
	}
}

func TestInducedSubgraph(t *testing.T) {
	m := mesh.Uniform(4, 1, 1, 1, 1)
	lv := mesh.AssignLevels(m, 0.4, 0)
	g := FromMeshDual(m, lv, false)
	sub, toOld := g.InducedSubgraph([]int32{1, 2})
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
	if sub.N != 2 || len(sub.Adj)/2 != 1 {
		t.Fatalf("subgraph N=%d E=%d, want 2, 1", sub.N, len(sub.Adj)/2)
	}
	if toOld[0] != 1 || toOld[1] != 2 {
		t.Fatalf("mapping %v", toOld)
	}
}

func TestEdgeCut(t *testing.T) {
	m := mesh.Uniform(2, 1, 1, 1, 1)
	lv := mesh.AssignLevels(m, 0.4, 0)
	g := FromMeshDual(m, lv, false)
	if cut := g.EdgeCut([]int32{0, 0}); cut != 0 {
		t.Errorf("same-part cut %d", cut)
	}
	if cut := g.EdgeCut([]int32{0, 1}); cut != 1 {
		t.Errorf("split cut %d, want 1 (unit p)", cut)
	}
}

func TestTotalWeightMatchesWork(t *testing.T) {
	m, lv := trenchSmall()
	g := FromMeshDual(m, lv, false)
	if got, want := g.TotalWeight()[0], lv.WorkPerCycle(); got != want {
		t.Errorf("total weight %d, want work per cycle %d", got, want)
	}
}

func BenchmarkFromMeshDual(b *testing.B) {
	m := mesh.Trench(0.1)
	lv := mesh.AssignLevels(m, 0.4, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FromMeshDual(m, lv, true)
	}
}

func BenchmarkEdgeCut(b *testing.B) {
	m := mesh.Trench(0.1)
	lv := mesh.AssignLevels(m, 0.4, 0)
	g := FromMeshDual(m, lv, false)
	part := make([]int32, g.N)
	for i := range part {
		part[i] = int32(i % 16)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.EdgeCut(part)
	}
}
