package partition

import (
	"math/rand"
	"slices"

	"golts/internal/hypergraph"
)

// netModel is the cut-net objective on a hypergraph, the PaToH stand-in.
// For two parts, connectivity-1 and cut-net coincide, and because the net
// costs encode the per-level communication frequency, minimising this cut
// minimises true MPI volume (paper §III-A.2). Matching prefers the vertex
// sharing the highest total net cost; contraction rebuilds the nets.
type netModel struct {
	h  *hypergraph.Hypergraph
	pc [][2]int32 // pins per side, per net, of the tracked partition
	// Matching scratch: affinity per vertex (zero between calls) and the
	// vertices it is nonzero for.
	score   []int64
	touched []int32
	// neighbors scratch: mark[u] == epoch once u is listed in this call.
	mark  []uint32
	epoch uint32
}

const netCoarseTarget = 120

// RecursiveBisectHypergraph partitions h into k parts by recursive
// bisection with per-bisection tolerance eps for every constraint.
func RecursiveBisectHypergraph(h *hypergraph.Hypergraph, k int, eps float64, rng *rand.Rand) []int32 {
	return recursiveBisect(&netModel{h: h}, k, eps, rng)
}

func (m *netModel) size() int          { return m.h.NV }
func (m *netModel) weights() [][]int32 { return m.h.VW }
func (m *netModel) coarseTarget() int  { return netCoarseTarget }

func (m *netModel) reset(part []int8) int64 {
	h := m.h
	if m.pc == nil {
		m.pc = make([][2]int32, h.NumNets())
	}
	var cut int64
	for n := range m.pc {
		m.pc[n] = [2]int32{}
		for i := h.Xpins[n]; i < h.Xpins[n+1]; i++ {
			m.pc[n][part[h.Pins[i]]]++
		}
		if m.pc[n][0] > 0 && m.pc[n][1] > 0 {
			cut += int64(h.Cost[n])
		}
	}
	return cut
}

// gain: nets that become internal gain +cost, nets that become cut -cost.
func (m *netModel) gain(part []int8, v int32) int64 {
	from := part[v]
	var g int64
	for i := m.h.Xnets[v]; i < m.h.Xnets[v+1]; i++ {
		n := m.h.VNets[i]
		if m.pc[n][1-from] == 0 {
			g -= int64(m.h.Cost[n])
		}
		if m.pc[n][from] == 1 {
			g += int64(m.h.Cost[n])
		}
	}
	return g
}

func (m *netModel) move(part []int8, v int32) {
	from := part[v]
	for i := m.h.Xnets[v]; i < m.h.Xnets[v+1]; i++ {
		n := m.h.VNets[i]
		m.pc[n][from]--
		m.pc[n][1-from]++
	}
}

func (m *netModel) boundary(_ []int8, v int32) bool {
	for i := m.h.Xnets[v]; i < m.h.Xnets[v+1]; i++ {
		if pc := m.pc[m.h.VNets[i]]; pc[0] > 0 && pc[1] > 0 {
			return true
		}
	}
	return false
}

// neighbors lists the pins of v's nets, each once however many nets it
// shares with v, in order of first appearance: a pin listed once per net
// would be requeued, and its gain recomputed, as often.
func (m *netModel) neighbors(v int32, dst []int32) []int32 {
	h := m.h
	if m.mark == nil {
		m.mark = make([]uint32, h.NV)
	}
	m.epoch++
	for i := h.Xnets[v]; i < h.Xnets[v+1]; i++ {
		n := h.VNets[i]
		for _, u := range h.Pins[h.Xpins[n]:h.Xpins[n+1]] {
			if m.mark[u] != m.epoch {
				m.mark[u] = m.epoch
				dst = append(dst, u)
			}
		}
	}
	return dst
}

// candidates offers every unmatched vertex sharing a net with v, in
// ascending vertex order, with the total cost of the nets they share.
func (m *netModel) candidates(v int32, cmap []int32, dst []candidate) []candidate {
	h := m.h
	if m.score == nil {
		m.score = make([]int64, h.NV)
	}
	touched := m.touched[:0]
	for i := h.Xnets[v]; i < h.Xnets[v+1]; i++ {
		n := h.VNets[i]
		for _, u := range h.Pins[h.Xpins[n]:h.Xpins[n+1]] {
			if u != v && cmap[u] < 0 {
				if m.score[u] == 0 {
					touched = append(touched, u)
				}
				m.score[u] += int64(h.Cost[n])
			}
		}
	}
	slices.Sort(touched)
	for _, u := range touched {
		dst = append(dst, candidate{u, m.score[u]})
		m.score[u] = 0
	}
	m.touched = touched
	return dst
}

// contract maps every net's pins through cmap, dropping duplicate pins and
// nets left with fewer than two.
func (m *netModel) contract(cmap []int32, nc int32) model {
	h := m.h
	ch := &hypergraph.Hypergraph{NV: int(nc), VW: contractWeights(h.VW, cmap, nc), Xpins: []int32{0}}
	var pins []int32
	for n := 0; n < h.NumNets(); n++ {
		pins = pins[:0]
		for _, p := range h.Pins[h.Xpins[n]:h.Xpins[n+1]] {
			pins = append(pins, cmap[p])
		}
		slices.Sort(pins)
		if pins = slices.Compact(pins); len(pins) >= 2 {
			ch.Pins = append(ch.Pins, pins...)
			ch.Xpins = append(ch.Xpins, int32(len(ch.Pins)))
			ch.Cost = append(ch.Cost, h.Cost[n])
		}
	}
	ch.BuildVertexIncidence()
	return &netModel{h: ch}
}

// induced keeps the nets with at least two pins among vertices.
func (m *netModel) induced(vertices []int32) model {
	h := m.h
	old2new := make([]int32, h.NV)
	for i := range old2new {
		old2new[i] = -1
	}
	sub := &hypergraph.Hypergraph{NV: len(vertices), VW: make([][]int32, len(h.VW)), Xpins: []int32{0}}
	for i, v := range vertices {
		old2new[v] = int32(i)
	}
	for c, w := range h.VW {
		sub.VW[c] = make([]int32, len(vertices))
		for i, v := range vertices {
			sub.VW[c][i] = w[v]
		}
	}
	var pins []int32
	for n := 0; n < h.NumNets(); n++ {
		pins = pins[:0]
		for _, p := range h.Pins[h.Xpins[n]:h.Xpins[n+1]] {
			if old2new[p] >= 0 {
				pins = append(pins, old2new[p])
			}
		}
		if len(pins) >= 2 {
			sub.Pins = append(sub.Pins, pins...)
			sub.Xpins = append(sub.Xpins, int32(len(sub.Pins)))
			sub.Cost = append(sub.Cost, h.Cost[n])
		}
	}
	sub.BuildVertexIncidence()
	return &netModel{h: sub}
}
