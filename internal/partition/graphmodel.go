package partition

import (
	"math/rand"

	"golts/internal/graph"
)

// graphModel is the edge-cut objective on a graph, the model of the
// SCOTCH and MeTiS stand-ins: matching prefers the heaviest edge, and
// contraction sums parallel edges.
type graphModel struct{ g *graph.Graph }

const graphCoarseTarget = 140

// RecursiveBisectGraph partitions g into k parts by recursive bisection
// with per-bisection tolerance eps for every constraint.
func RecursiveBisectGraph(g *graph.Graph, k int, eps float64, rng *rand.Rand) []int32 {
	return recursiveBisect(graphModel{g}, k, eps, rng)
}

func (m graphModel) size() int          { return m.g.N }
func (m graphModel) weights() [][]int32 { return m.g.VW }
func (m graphModel) coarseTarget() int  { return graphCoarseTarget }

func (m graphModel) reset(part []int8) int64 {
	var cut int64
	for v := 0; v < m.g.N; v++ {
		for i := m.g.Xadj[v]; i < m.g.Xadj[v+1]; i++ {
			if part[m.g.Adj[i]] != part[v] {
				cut += int64(m.g.EW[i])
			}
		}
	}
	return cut / 2
}

func (m graphModel) gain(part []int8, v int32) int64 {
	var g int64
	for i := m.g.Xadj[v]; i < m.g.Xadj[v+1]; i++ {
		if part[m.g.Adj[i]] == part[v] {
			g -= int64(m.g.EW[i])
		} else {
			g += int64(m.g.EW[i])
		}
	}
	return g
}

func (m graphModel) move([]int8, int32) {}

func (m graphModel) boundary(part []int8, v int32) bool {
	for i := m.g.Xadj[v]; i < m.g.Xadj[v+1]; i++ {
		if part[m.g.Adj[i]] != part[v] {
			return true
		}
	}
	return false
}

func (m graphModel) neighbors(v int32, dst []int32) []int32 {
	return append(dst, m.g.Adj[m.g.Xadj[v]:m.g.Xadj[v+1]]...)
}

func (m graphModel) candidates(v int32, cmap []int32, dst []candidate) []candidate {
	for i := m.g.Xadj[v]; i < m.g.Xadj[v+1]; i++ {
		if u := m.g.Adj[i]; cmap[u] < 0 {
			dst = append(dst, candidate{u, int64(m.g.EW[i])})
		}
	}
	return dst
}

func (m graphModel) contract(cmap []int32, nc int32) model {
	g := m.g
	cg := &graph.Graph{N: int(nc), VW: contractWeights(g.VW, cmap, nc)}
	// Aggregate edges with a per-coarse-vertex accumulator.
	type centry struct {
		to int32
		w  int64
	}
	adjLists := make([][]centry, nc)
	for v := 0; v < g.N; v++ {
		cv := cmap[v]
	edges:
		for i := g.Xadj[v]; i < g.Xadj[v+1]; i++ {
			cu := cmap[g.Adj[i]]
			if cu == cv {
				continue
			}
			// Linear scan of the (short) coarse adjacency list.
			for j := range adjLists[cv] {
				if adjLists[cv][j].to == cu {
					adjLists[cv][j].w += int64(g.EW[i])
					continue edges
				}
			}
			adjLists[cv] = append(adjLists[cv], centry{cu, int64(g.EW[i])})
		}
	}
	cg.Xadj = make([]int32, nc+1)
	for cv := int32(0); cv < nc; cv++ {
		cg.Xadj[cv+1] = cg.Xadj[cv] + int32(len(adjLists[cv]))
	}
	cg.Adj = make([]int32, 0, cg.Xadj[nc])
	cg.EW = make([]int32, 0, cg.Xadj[nc])
	for _, l := range adjLists {
		for _, e := range l {
			cg.Adj = append(cg.Adj, e.to)
			cg.EW = append(cg.EW, int32(min(e.w, 1<<30)))
		}
	}
	return graphModel{cg}
}

func (m graphModel) induced(vertices []int32) model {
	sub, _ := m.g.InducedSubgraph(vertices)
	return graphModel{sub}
}
