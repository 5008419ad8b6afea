// Package hypergraph implements the paper's hypergraph model of a finite
// element mesh for LTS partitioning (§III-A.2): vertices are elements, and
// each mesh corner node n defines one net connecting all elements that
// touch n, with cost c[h'_n] = Σ_{e ∋ n} p_level(e). With that cost, the
// connectivity-1 cut metric (Eq. 20) equals the total MPI communication
// volume of one LTS cycle exactly — the property that lets a hypergraph
// partitioner (PaToH in the paper) optimise true communication volume
// instead of the edge-cut upper bound.
package hypergraph

import "golts/internal/mesh"

// Hypergraph is a hypergraph in pin-list form with multi-constraint vertex
// weights.
type Hypergraph struct {
	// NV is the vertex count.
	NV int
	// Xpins has length NumNets+1; net n's pins are Pins[Xpins[n]:Xpins[n+1]].
	Xpins []int32
	// Pins lists the vertices of each net.
	Pins []int32
	// Cost is the per-net cost.
	Cost []int32
	// VW holds vertex weight vectors per constraint.
	VW [][]int32
	// Xnets / VNets is the transposed (vertex -> nets) incidence, built by
	// BuildVertexIncidence; required by the FM refiner.
	Xnets []int32
	VNets []int32
}

// NumNets returns the net count.
func (h *Hypergraph) NumNets() int { return len(h.Xpins) - 1 }

// BuildVertexIncidence fills Xnets/VNets from the pin lists.
func (h *Hypergraph) BuildVertexIncidence() {
	h.Xnets = make([]int32, h.NV+1)
	for _, p := range h.Pins {
		h.Xnets[p+1]++
	}
	for v := 0; v < h.NV; v++ {
		h.Xnets[v+1] += h.Xnets[v]
	}
	h.VNets = make([]int32, len(h.Pins))
	fill := make([]int32, h.NV)
	for n := 0; n < h.NumNets(); n++ {
		for i := h.Xpins[n]; i < h.Xpins[n+1]; i++ {
			v := h.Pins[i]
			h.VNets[h.Xnets[v]+fill[v]] = int32(n)
			fill[v]++
		}
	}
}

// FromMesh builds the LTS hypergraph model: one net per mesh corner node
// with cost Σ_{e ∋ n} p_e, and one unit-weight constraint per level.
func FromMesh(m *mesh.Mesh, lv *mesh.Levels) *Hypergraph {
	off, elems := m.CornerIncidence()
	h := &Hypergraph{NV: m.NumElements()}
	nn := m.NumCornerNodes()
	// Skip single-pin nets (domain corners interior to one element): they
	// can never be cut.
	keep := make([]int32, 0, nn)
	for n := 0; n < nn; n++ {
		if off[n+1]-off[n] >= 2 {
			keep = append(keep, int32(n))
		}
	}
	h.Xpins = make([]int32, len(keep)+1)
	h.Cost = make([]int32, len(keep))
	for i, n := range keep {
		h.Xpins[i+1] = h.Xpins[i] + (off[n+1] - off[n])
		var c int32
		for j := off[n]; j < off[n+1]; j++ {
			c += int32(lv.PFor(int(elems[j])))
		}
		h.Cost[i] = c
	}
	h.Pins = make([]int32, h.Xpins[len(keep)])
	for i, n := range keep {
		copy(h.Pins[h.Xpins[i]:h.Xpins[i+1]], elems[off[n]:off[n+1]])
	}
	h.VW = make([][]int32, lv.NumLevels)
	for c := range h.VW {
		h.VW[c] = make([]int32, h.NV)
	}
	for v := 0; v < h.NV; v++ {
		h.VW[int(lv.Lvl[v])-1][v] = 1
	}
	h.BuildVertexIncidence()
	return h
}

// CutSize returns the connectivity-1 metric (Eq. 20):
// Σ_nets cost(n) (λ_n - 1), where λ_n is the number of distinct parts among
// the net's pins. With the FromMesh costs this is exactly the MPI volume
// per LTS cycle.
func (h *Hypergraph) CutSize(part []int32, k int) int64 {
	mark := make([]int32, k)
	for i := range mark {
		mark[i] = -1
	}
	var cut int64
	for n := 0; n < h.NumNets(); n++ {
		lambda := 0
		for i := h.Xpins[n]; i < h.Xpins[n+1]; i++ {
			p := part[h.Pins[i]]
			if mark[p] != int32(n) {
				mark[p] = int32(n)
				lambda++
			}
		}
		if lambda > 1 {
			cut += int64(h.Cost[n]) * int64(lambda-1)
		}
	}
	return cut
}
