// Package decomp builds the owner-computes decomposition plans shared by
// every parallel execution backend of golts: given an element partition
// (part[e] = owning part) and an element list (the whole mesh, or one LTS
// level's force elements), a Plan records which elements each part applies
// and which global nodes each part's contributions touch.
//
// Two backends consume the same plans:
//
//   - the shared-memory engine (internal/parallel) maps parts onto its
//     workers and merges the contributions at the nodes two parts touch
//     in memory, and
//   - the distributed engine (internal/dist) maps parts onto rank
//     processes and exchanges the halo intersections of the touched sets
//     as real messages.
//
// Both assemble the per-part contributions at every node in ascending
// part order, so for a fixed decomposition the two backends — and any
// mapping of parts onto executors — produce bitwise-identical results.
// The Plan is therefore the unit of reproducibility: the decomposition
// width P pins the floating-point merge order, while the executor count
// (goroutines, processes) only changes where each part runs.
package decomp

import (
	"slices"

	"golts/internal/sem"
)

// Plan is the owner-computes layout of one element list over P parts.
// Plans are immutable after construction and safe for concurrent reads.
type Plan struct {
	// Elems is a private copy of the requested element list.
	Elems []int32
	// P is the decomposition width the plan was built for.
	P int
	// Parts[p] holds part p's owned ∩ requested elements in request
	// order, so a single part reproduces the sequential accumulation
	// order bitwise.
	Parts [][]int32
	// Touched[p] is the ascending list of unique global nodes part p's
	// contributions write.
	Touched [][]int32
}

// Build computes the owner-computes plan of one element list: the
// per-part ownership split (request order preserved) and the per-part
// sorted touched-node sets. part[e] must be in [0, nparts) for every
// requested element; op supplies the element connectivity (through its
// flat table when it exposes one).
func Build(op sem.Operator, part []int32, nparts int, elems []int32) *Plan {
	pl := &Plan{
		Elems: append([]int32(nil), elems...),
		P:     nparts,
		Parts: make([][]int32, nparts),
	}
	for _, e := range elems {
		p := part[e]
		pl.Parts[p] = append(pl.Parts[p], e)
	}
	pl.Touched = sem.TouchedNodes(op, pl.Parts)
	return pl
}

// Shared returns the ascending intersection of two ascending node lists:
// the halo nodes whose contributions two parts (or two part unions) must
// co-assemble. Both inputs must be sorted ascending and duplicate-free.
func Shared(a, b []int32) []int32 {
	var out []int32
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// Renumber returns the images of node lists under a node → index table:
// an engine's merge and halo lists under a plan remap (sem.NodeMap.Out).
func Renumber(lists [][]int32, to []int32) [][]int32 {
	out := make([][]int32, len(lists))
	for i, l := range lists {
		out[i] = make([]int32, len(l))
		for j, n := range l {
			out[i][j] = to[n]
		}
	}
	return out
}

// Union returns the ascending union of the given ascending node lists.
func Union(lists ...[]int32) []int32 {
	var all []int32
	for _, l := range lists {
		all = append(all, l...)
	}
	slices.Sort(all)
	return slices.Compact(all)
}
