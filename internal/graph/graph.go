// Package graph provides CSR graphs with multi-constraint vertex weights
// and weighted edges, plus the construction of a finite element mesh's dual
// graph (paper §III-A.1): vertices are elements, edges connect elements
// sharing a face, edge weights model the per-cycle synchronisation
// frequency max(p_u, p_v), and vertex weights model per-level work.
package graph

import "golts/internal/mesh"

// Graph is an undirected graph in CSR form.
type Graph struct {
	// N is the vertex count.
	N int
	// Xadj has length N+1; the neighbours of v are Adj[Xadj[v]:Xadj[v+1]].
	Xadj []int32
	// Adj lists neighbour vertices (each undirected edge appears twice).
	Adj []int32
	// EW holds edge weights parallel to Adj.
	EW []int32
	// VW holds vertex weight vectors: VW[c][v] is the weight of vertex v
	// under constraint c. len(VW) >= 1.
	VW [][]int32
}

// NC returns the number of balance constraints.
func (g *Graph) NC() int { return len(g.VW) }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return len(g.Adj) / 2 }

// FromMeshDual builds the dual (face-adjacency) graph of a mesh with LTS
// level information.
//
// multiConstraint=false gives the single-constraint model used by the
// SCOTCH baseline: w[v] = p_v, the per-cycle work of the element.
// multiConstraint=true gives one constraint per level with unit weights
// (paper §III-A.1): w[v, i] = 1 iff element v is on level i.
//
// In both cases the edge weight is max(p_u, p_v): finer elements exchange
// halo data p times per cycle (Fig. 2).
func FromMeshDual(m *mesh.Mesh, lv *mesh.Levels, multiConstraint bool) *Graph {
	n := m.NumElements()
	g := &Graph{N: n}
	g.Xadj = make([]int32, n+1)
	var buf []int32
	for v := 0; v < n; v++ {
		buf = m.FaceNeighbors(v, buf[:0])
		g.Xadj[v+1] = g.Xadj[v] + int32(len(buf))
	}
	g.Adj = make([]int32, g.Xadj[n])
	g.EW = make([]int32, g.Xadj[n])
	for v := 0; v < n; v++ {
		buf = m.FaceNeighbors(v, buf[:0])
		off := g.Xadj[v]
		pv := int32(lv.PFor(v))
		for i, u := range buf {
			g.Adj[off+int32(i)] = u
			pu := int32(lv.PFor(int(u)))
			if pu > pv {
				g.EW[off+int32(i)] = pu
			} else {
				g.EW[off+int32(i)] = pv
			}
		}
	}
	if multiConstraint {
		g.VW = make([][]int32, lv.NumLevels)
		for c := range g.VW {
			g.VW[c] = make([]int32, n)
		}
		for v := 0; v < n; v++ {
			g.VW[int(lv.Lvl[v])-1][v] = 1
		}
	} else {
		w := make([]int32, n)
		for v := 0; v < n; v++ {
			w[v] = int32(lv.PFor(v))
		}
		g.VW = [][]int32{w}
	}
	return g
}

// InducedSubgraph extracts the subgraph on the given vertices (which must
// be distinct). Returns the subgraph and the mapping from new to old ids.
func (g *Graph) InducedSubgraph(vertices []int32) (*Graph, []int32) {
	old2new := make(map[int32]int32, len(vertices))
	for i, v := range vertices {
		old2new[v] = int32(i)
	}
	sub := &Graph{N: len(vertices)}
	sub.Xadj = make([]int32, len(vertices)+1)
	sub.VW = make([][]int32, g.NC())
	for c := range sub.VW {
		sub.VW[c] = make([]int32, len(vertices))
	}
	for i, v := range vertices {
		for c := range g.VW {
			sub.VW[c][i] = g.VW[c][v]
		}
		cnt := int32(0)
		for j := g.Xadj[v]; j < g.Xadj[v+1]; j++ {
			if _, ok := old2new[g.Adj[j]]; ok {
				cnt++
			}
		}
		sub.Xadj[i+1] = sub.Xadj[i] + cnt
	}
	sub.Adj = make([]int32, sub.Xadj[len(vertices)])
	sub.EW = make([]int32, sub.Xadj[len(vertices)])
	for i, v := range vertices {
		off := sub.Xadj[i]
		for j := g.Xadj[v]; j < g.Xadj[v+1]; j++ {
			if nu, ok := old2new[g.Adj[j]]; ok {
				sub.Adj[off] = nu
				sub.EW[off] = g.EW[j]
				off++
			}
		}
	}
	newToOld := append([]int32(nil), vertices...)
	return sub, newToOld
}

// EdgeCut returns the total weight of edges whose endpoints lie in
// different parts.
func (g *Graph) EdgeCut(part []int32) int64 {
	var cut int64
	for v := 0; v < g.N; v++ {
		for i := g.Xadj[v]; i < g.Xadj[v+1]; i++ {
			u := g.Adj[i]
			if part[v] != part[u] {
				cut += int64(g.EW[i])
			}
		}
	}
	return cut / 2
}
