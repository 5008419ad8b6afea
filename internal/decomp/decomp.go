// Package decomp builds the owner-computes decomposition plans shared by
// every parallel execution backend of golts: given an element partition
// (part[e] = owning part) and an element list (the whole mesh, or one LTS
// level's force elements), a Plan records which elements each part applies
// and which global nodes each part's contributions touch.
//
// Two backends consume the same plans:
//
//   - the shared-memory engine (internal/parallel) maps parts onto
//     persistent rank goroutines and reduces the per-part contributions
//     with its sharded in-memory merge, and
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
	"sort"
	"strconv"
	"sync"

	"golts/internal/sem"
)

// Plan is the owner-computes layout of one element list over P parts.
// Plans are immutable after construction and safe for concurrent reads.
type Plan struct {
	// Elems is a private copy of the requested element list, kept for
	// cache validation.
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
	// Active lists the parts with at least one element, ascending.
	Active []int
	// Messages and Volume are the per-apply communication-accounting
	// deltas of the MPI analogy: one message per part with data, volume
	// in touched nodes.
	Messages, Volume int64
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
	pl.Touched = TouchedNodes(op, pl.Parts)
	for p := 0; p < nparts; p++ {
		if len(pl.Parts[p]) == 0 {
			continue
		}
		pl.Active = append(pl.Active, p)
		pl.Messages++
		pl.Volume += int64(len(pl.Touched[p]))
	}
	return pl
}

// TouchedNodes computes, for each element list, the ascending list of
// unique global nodes its stiffness contributions write. Element
// connectivity comes from the operator's flat table when it exposes one,
// avoiding a per-element copy through ElemNodes.
func TouchedNodes(op sem.Operator, elemLists [][]int32) [][]int32 {
	conn, npe := sem.ConnOf(op)
	touchMap := make([]bool, op.NumNodes())
	var nb []int32
	out := make([][]int32, len(elemLists))
	for p, list := range elemLists {
		if len(list) == 0 {
			continue
		}
		var t []int32
		for _, e := range list {
			var en []int32
			if conn != nil {
				en = conn[int(e)*npe : (int(e)+1)*npe]
			} else {
				nb = op.ElemNodes(int(e), nb[:0])
				en = nb
			}
			for _, n := range en {
				if !touchMap[n] {
					touchMap[n] = true
					t = append(t, n)
				}
			}
		}
		for _, n := range t {
			touchMap[n] = false
		}
		sort.Slice(t, func(i, j int) bool { return t[i] < t[j] })
		out[p] = t
	}
	return out
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
	if len(all) == 0 {
		return nil
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	out := all[:1]
	for _, n := range all[1:] {
		if n != out[len(out)-1] {
			out = append(out, n)
		}
	}
	return out
}

// Owners maps every node to the lowest part whose touched set contains
// it, or -1 for nodes no part touches. For an all-elements plan this is
// the canonical disjoint node-ownership used to decide which executor
// reports a node's value (receiver sampling, state gathers).
func Owners(numNodes int, touched [][]int32) []int32 {
	own := make([]int32, numNodes)
	for i := range own {
		own[i] = -1
	}
	for p := len(touched) - 1; p >= 0; p-- {
		for _, n := range touched[p] {
			own[n] = int32(p)
		}
	}
	return own
}

// maxCachedPlans bounds a Cache; steppers use a handful of stable lists
// (one per LTS level), so eviction only triggers under adversarial call
// patterns, where dropping everything is acceptable.
const maxCachedPlans = 256

// Cache maps element-list fingerprints to Plans; it is the plan-shaped
// face of the generic Memo, sharing its LRU bound and traffic counters.
// Hits validate full content against the stored copy, so a hash
// collision or a caller mutating a cached list in place degrades to a
// rebuild, never to a wrong result. Lookup reports when any plan was
// evicted to make room, so callers holding per-Plan side tables can drop
// stale entries.
type Cache struct {
	op     sem.Operator
	part   []int32
	nparts int

	mu   sync.Mutex
	memo *Memo[*Plan]
}

// NewCache creates a plan cache for one (operator, partition) pair.
func NewCache(op sem.Operator, part []int32, nparts int) *Cache {
	return &Cache{op: op, part: part, nparts: nparts, memo: NewMemo[*Plan](maxCachedPlans)}
}

// Lookup returns the cached plan for the element list, building it on a
// miss. The returned pointer is stable for as long as the plan stays
// cached, so callers may key side tables by it; flushed reports whether
// this lookup evicted any previous entry (conservatively: side tables
// keyed by evicted pointers must go, and dropping everything is correct,
// merely slower).
func (c *Cache) Lookup(elems []int32) (pl *Plan, flushed bool) {
	key := strconv.FormatUint(hashElems(elems), 16)
	build := func() (*Plan, error) { return Build(c.op, c.part, c.nparts, elems), nil }
	// The outer mutex serializes lookups so the eviction-counter delta is
	// attributable to this call; steppers drive a Cache from one goroutine
	// at a time, so nothing is lost.
	c.mu.Lock()
	defer c.mu.Unlock()
	before := c.memo.Counters().Evictions
	pl, hit, _ := c.memo.Get(key, build)
	if hit && !sameElems(pl.Elems, elems) {
		// Fingerprint collision, or a caller mutated a cached list in
		// place: drop the stale plan and rebuild under the same key. The
		// Drop counts as an eviction, so this lookup reports flushed.
		c.memo.Drop(key)
		pl, _, _ = c.memo.Get(key, build)
	}
	flushed = c.memo.Counters().Evictions > before
	return pl, flushed
}

// Counters returns the cache's hit/miss/eviction counters.
func (c *Cache) Counters() MemoCounters {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.memo.Counters()
}

// hashElems is FNV-1a over the element ids.
func hashElems(elems []int32) uint64 {
	h := uint64(14695981039346656037)
	for _, e := range elems {
		for s := 0; s < 32; s += 8 {
			h ^= uint64(uint8(e >> s))
			h *= 1099511628211
		}
	}
	return h
}

func sameElems(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}
