// Package partition implements the four LTS-aware mesh partitioning
// strategies compared in the paper (§III-B):
//
//   - Scotch: the baseline — single-constraint graph partitioning with
//     per-element work weights p_e. Balances total work per LTS cycle but
//     not the individual levels.
//   - ScotchP: each p-level partitioned separately, then greedily merged
//     onto processors (§III-B.b) — the paper's best performer.
//   - Metis: multi-constraint graph partitioning with weighted edges
//     (§III-B.c): one unit-weight constraint per level, edge cut as the
//     communication proxy.
//   - Patoh: multi-constraint hypergraph partitioning (§III-B.d): the
//     connectivity-1 objective models MPI volume exactly; the FinalImbal
//     parameter trades communication against balance.
//
// All of them are built from scratch, not bound, on one multilevel
// bisection engine (bisect.go: capped matching coarsening, greedy growing,
// boundary FM refinement with rollback, recursive bisection) under one of
// two cost models: the edge cut of the mesh's dual graph (graphmodel.go;
// Scotch, ScotchP, Metis and the variants below) or the cut-net cost of
// its hypergraph (netmodel.go; Patoh).
package partition

import (
	"fmt"
	"math/rand"

	"golts/internal/graph"
	"golts/internal/hypergraph"
	"golts/internal/mesh"
)

// Method selects a partitioning strategy.
type Method string

// The four strategies of paper §III-B, plus two variants the paper
// discusses: ScotchPM upgrades SCOTCH-P's greedy level-to-processor
// coupling with pairwise-swap refinement (the paper's "more efficient
// mapping methods" future work), and CoarseOnly is the Gödel et al. [7]
// two-level approach (cuts restricted to coarse elements) that the paper
// rejects for its scalability limit.
const (
	Scotch     Method = "scotch"
	ScotchP    Method = "scotch-p"
	Metis      Method = "metis"
	Patoh      Method = "patoh"
	ScotchPM   Method = "scotch-pm"
	CoarseOnly Method = "coarse-only"
)

// Methods lists the paper's four strategies in presentation order.
var Methods = []Method{Scotch, ScotchP, Metis, Patoh}

// AllMethods additionally includes the variants discussed but not
// benchmarked in the paper.
var AllMethods = []Method{Scotch, ScotchP, Metis, Patoh, ScotchPM, CoarseOnly}

// Options configures a partitioning run.
type Options struct {
	// K is the number of parts (processors).
	K int
	// Imbalance is the per-bisection balance tolerance ε (default 0.05).
	// For Patoh this plays the role of the paper's final_imbal parameter.
	Imbalance float64
	// Seed makes runs reproducible.
	Seed int64
	// Method selects the strategy.
	Method Method
}

// Result is an element-to-part assignment.
type Result struct {
	Part   []int32
	K      int
	Method Method
}

// PartitionMesh partitions the mesh's elements for LTS execution on K
// processors.
func PartitionMesh(m *mesh.Mesh, lv *mesh.Levels, opt Options) (*Result, error) {
	if opt.K < 1 {
		return nil, fmt.Errorf("partition: K must be >= 1, got %d", opt.K)
	}
	if opt.Imbalance <= 0 {
		opt.Imbalance = 0.05
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	var part []int32
	switch opt.Method {
	case Scotch:
		g := graph.FromMeshDual(m, lv, false)
		part = RecursiveBisectGraph(g, opt.K, opt.Imbalance, rng)
	case Metis:
		g := graph.FromMeshDual(m, lv, true)
		part = RecursiveBisectGraph(g, opt.K, opt.Imbalance, rng)
	case Patoh:
		h := hypergraph.FromMesh(m, lv)
		part = RecursiveBisectHypergraph(h, opt.K, opt.Imbalance, rng)
	case ScotchP:
		g := graph.FromMeshDual(m, lv, false)
		part = scotchP(m, lv, g, opt.K, opt.Imbalance, rng, false)
	case ScotchPM:
		g := graph.FromMeshDual(m, lv, false)
		part = scotchP(m, lv, g, opt.K, opt.Imbalance, rng, true)
	case CoarseOnly:
		part = CoarseCutOnly(m, lv, opt.K, opt.Imbalance, rng)
	default:
		return nil, fmt.Errorf("partition: unknown method %q", opt.Method)
	}
	return &Result{Part: part, K: opt.K, Method: opt.Method}, nil
}

// Assign returns an element-to-rank assignment for k shared-memory
// workers, the form package parallel consumes. k <= 1 yields the trivial
// single-rank assignment without running a partitioner; method "" selects
// ScotchP, the paper's best performer. This is the one-call path the cmds
// and benches use to stand up a parallel engine.
func Assign(m *mesh.Mesh, lv *mesh.Levels, k int, method Method, seed int64) ([]int32, error) {
	if k <= 1 {
		return make([]int32, m.NumElements()), nil
	}
	if method == "" {
		method = ScotchP
	}
	res, err := PartitionMesh(m, lv, Options{K: k, Method: method, Seed: seed})
	if err != nil {
		return nil, err
	}
	return res.Part, nil
}

// Metrics summarises partition quality for the paper's Fig. 7 / Fig. 8
// comparisons.
type Metrics struct {
	K int
	// TotalImbalance is Eq. (21) applied to the per-part work load
	// Σ_e p_e, in percent.
	TotalImbalance float64
	// PerLevelImbalance is Eq. (21) applied to each level's element count
	// across parts, in percent.
	PerLevelImbalance []float64
	// MaxLevelImbalance is the worst entry of PerLevelImbalance.
	MaxLevelImbalance float64
	// GraphCut is the weighted dual-graph edge cut (the proxy metric the
	// graph partitioners optimise).
	GraphCut int64
	// CommVolume is the exact MPI volume per LTS cycle (hypergraph
	// connectivity-1 with per-level costs).
	CommVolume int64
	// Loads holds the per-part work Σ p_e.
	Loads []int64
}

// Evaluate computes all quality metrics of a partition.
func Evaluate(m *mesh.Mesh, lv *mesh.Levels, part []int32, k int) *Metrics {
	mt := &Metrics{K: k}
	mt.Loads = make([]int64, k)
	levelCounts := make([][]int64, lv.NumLevels)
	for i := range levelCounts {
		levelCounts[i] = make([]int64, k)
	}
	for e := 0; e < m.NumElements(); e++ {
		p := part[e]
		mt.Loads[p] += int64(lv.PFor(e))
		levelCounts[int(lv.Lvl[e])-1][p]++
	}
	mt.TotalImbalance = imbalancePct(mt.Loads)
	mt.PerLevelImbalance = make([]float64, lv.NumLevels)
	for i := range levelCounts {
		mt.PerLevelImbalance[i] = imbalancePct(levelCounts[i])
		if mt.PerLevelImbalance[i] > mt.MaxLevelImbalance {
			mt.MaxLevelImbalance = mt.PerLevelImbalance[i]
		}
	}
	g := graph.FromMeshDual(m, lv, false)
	mt.GraphCut = g.EdgeCut(part)
	h := hypergraph.FromMesh(m, lv)
	mt.CommVolume = h.CutSize(part, k)
	return mt
}

// imbalancePct implements Eq. (21): (max - min) / max * 100.
func imbalancePct(loads []int64) float64 {
	if len(loads) == 0 {
		return 0
	}
	min, max := loads[0], loads[0]
	for _, l := range loads {
		if l < min {
			min = l
		}
		if l > max {
			max = l
		}
	}
	if max == 0 {
		return 0
	}
	return float64(max-min) / float64(max) * 100
}
