package partition

import "math/rand"

// The multilevel 2-way bisection engine shared by the graph and the
// hypergraph partitioners: capped matching coarsening, greedy growing on
// the coarsest level and boundary FM refinement with rollback during
// uncoarsening. Balance must hold for every constraint of the vertex
// weight vectors (paper Eq. 19). A model supplies what its cut objective
// decides — the gain of a move, which vertices a move affects, matching
// candidates, contraction and induced submodels — and the engine does the
// rest.

// model is one level of the multilevel hierarchy under a cut objective. A
// model tracks the cut of one 2-way partition at a time: reset binds it to
// a partition, and the engine reports every move through move.
type model interface {
	// size is the vertex count.
	size() int
	// weights returns the vertex weight vectors: VW[c][v].
	weights() [][]int32
	// coarseTarget is the size at or below which coarsening stops.
	coarseTarget() int
	// reset starts tracking part and returns its cut.
	reset(part []int8) int64
	// gain returns the cut reduction of moving v to the other side.
	gain(part []int8, v int32) int64
	// move updates the tracked state for v leaving side part[v]; the
	// caller then flips part[v].
	move(part []int8, v int32)
	// boundary reports whether v touches the cut.
	boundary(part []int8, v int32) bool
	// neighbors appends to dst the vertices whose gain a move of v can
	// change; v itself may appear.
	neighbors(v int32, dst []int32) []int32
	// candidates appends to dst v's matching partners u (u != v,
	// cmap[u] < 0) with their affinity; among equal affinities the first
	// offered wins.
	candidates(v int32, cmap []int32, dst []candidate) []candidate
	// contract returns the coarse model of the vertex map cmap onto nc
	// vertices.
	contract(cmap []int32, nc int32) model
	// induced returns the model on the given distinct vertices, vertex i
	// of the result being vertices[i].
	induced(vertices []int32) model
}

// candidate is a matching partner and its affinity.
type candidate struct {
	u int32
	w int64
}

// bisection is a 2-way partition with per-side, per-constraint weights and
// the cut its model tracks.
type bisection struct {
	m     model
	part  []int8
	vw    [][]int32
	w     [2][]int64 // w[side][constraint]
	total []int64
	tf    [2]float64
	eps   float64
	cut   int64
}

func newBisection(m model, part []int8, tf [2]float64, eps float64) *bisection {
	vw := m.weights()
	s := &bisection{m: m, part: part, vw: vw, tf: tf, eps: eps, total: totalWeight(vw)}
	s.w[0] = make([]int64, len(vw))
	s.w[1] = make([]int64, len(vw))
	for c, w := range vw {
		for v, x := range w {
			s.w[part[v]][c] += int64(x)
		}
	}
	s.cut = m.reset(part)
	return s
}

func totalWeight(vw [][]int32) []int64 {
	t := make([]int64, len(vw))
	for c, w := range vw {
		for _, x := range w {
			t[c] += int64(x)
		}
	}
	return t
}

// cap returns the balance cap for side s, constraint c: (1+ε)·tf_s·total_c.
func (s *bisection) cap(side, c int) int64 {
	return int64((1 + s.eps) * s.tf[side] * float64(s.total[c]))
}

// violation returns the total overload across sides and constraints.
func (s *bisection) violation() int64 {
	var v int64
	for side := 0; side < 2; side++ {
		for c := range s.total {
			if over := s.w[side][c] - s.cap(side, c); over > 0 {
				v += over
			}
		}
	}
	return v
}

// moveDeltaViolation returns the violation change if v moves to the other
// side.
func (s *bisection) moveDeltaViolation(v int32) int64 {
	from := int(s.part[v])
	to := 1 - from
	var d int64
	for c, w := range s.vw {
		wv := int64(w[v])
		if wv == 0 {
			continue
		}
		overF0 := max(0, s.w[from][c]-s.cap(from, c))
		overF1 := max(0, s.w[from][c]-wv-s.cap(from, c))
		overT0 := max(0, s.w[to][c]-s.cap(to, c))
		overT1 := max(0, s.w[to][c]+wv-s.cap(to, c))
		d += (overF1 - overF0) + (overT1 - overT0)
	}
	return d
}

// apply moves v to the other side, updating weights and cut.
func (s *bisection) apply(v int32) {
	s.cut -= s.m.gain(s.part, v)
	from := s.part[v]
	for c, w := range s.vw {
		s.w[from][c] -= int64(w[v])
		s.w[1-from][c] += int64(w[v])
	}
	s.m.move(s.part, v)
	s.part[v] = 1 - from
}

// fmItem is a heap entry with lazy invalidation via version stamps.
type fmItem struct {
	v    int32
	gain int64
	ver  int32
}

// fmHeap is a max-heap on gain. push and pop sift exactly as
// container/heap does, without boxing an item per push.
type fmHeap []fmItem

func (h *fmHeap) push(it fmItem) {
	q := append(*h, it)
	for j := len(q) - 1; j > 0; {
		i := (j - 1) / 2
		if q[j].gain <= q[i].gain {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
	*h = q
}

func (h *fmHeap) pop() fmItem {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j+1 < n && q[j+1].gain > q[j].gain {
			j++
		}
		if q[j].gain <= q[i].gain {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	*h = q[:n]
	return q[n]
}

// refine runs boundary FM passes with rollback until no pass improves
// (violation, cut) lexicographically.
func refine(s *bisection, passes int) {
	n := len(s.part)
	locked := make([]bool, n)
	version := make([]int32, n)
	var h fmHeap
	var nbr []int32
	push := func(v int32) {
		version[v]++
		h.push(fmItem{v, s.m.gain(s.part, v), version[v]})
	}
	for p := 0; p < passes; p++ {
		clear(locked)
		h = h[:0]
		// Seed with boundary vertices; when the pass starts unbalanced,
		// seed everything so balance repair can reach interior vertices.
		seedAll := n <= 64 || s.violation() > 0
		for v := int32(0); v < int32(n); v++ {
			if seedAll || s.m.boundary(s.part, v) {
				push(v)
			}
		}
		var seq []int32
		bestIdx := 0
		bestViol := s.violation()
		bestCut := s.cut
		neg := 0
		maxNeg := 50 + n/20 // bounds hill-climbing
		for len(h) > 0 && neg < maxNeg {
			it := h.pop()
			v := it.v
			if locked[v] || it.ver != version[v] {
				continue
			}
			if g := s.m.gain(s.part, v); g != it.gain {
				push(v)
				continue
			}
			dv := s.moveDeltaViolation(v)
			if s.violation() > 0 {
				// Balance repair mode: only accept violation-reducing
				// moves.
				if dv >= 0 {
					continue
				}
			} else if dv > 0 {
				// Would break balance; skip.
				continue
			}
			s.apply(v)
			locked[v] = true
			seq = append(seq, v)
			nbr = s.m.neighbors(v, nbr[:0])
			for _, u := range nbr {
				if !locked[u] {
					push(u)
				}
			}
			curViol := s.violation()
			if curViol < bestViol || (curViol == bestViol && s.cut < bestCut) {
				bestViol, bestCut = curViol, s.cut
				bestIdx = len(seq)
				neg = 0
			} else {
				neg++
			}
		}
		// Roll back to the best prefix.
		for i := len(seq) - 1; i >= bestIdx; i-- {
			s.apply(seq[i])
		}
		if bestIdx == 0 {
			break
		}
	}
}

// growInitial creates an initial bisection by greedy growing from a random
// seed: side 1 takes the frontier vertex of highest gain that keeps every
// constraint within its cap until its mean weight fraction reaches tf[1].
// Several tries keep the best (violation, cut) after a short refinement.
func growInitial(m model, tf [2]float64, eps float64, rng *rand.Rand) []int8 {
	n := m.size()
	tries := 4
	if n < 32 {
		tries = 8
	}
	var bestPart []int8
	var bestViol, bestCut int64 = 1 << 62, 1 << 62
	var nbr []int32
	for t := 0; t < tries; t++ {
		part := make([]int8, n)
		s := newBisection(m, part, tf, eps)
		progress := func() float64 {
			sum, cnt := 0.0, 0
			for c, total := range s.total {
				if total > 0 {
					sum += float64(s.w[1][c]) / float64(total)
					cnt++
				}
			}
			if cnt == 0 {
				return 1
			}
			return sum / float64(cnt)
		}
		// fits keeps every constraint within its side-1 cap, so a
		// high-cost dominant constraint cannot be starved while small
		// constraints saturate.
		fits := func(v int32) bool {
			for c, w := range s.vw {
				if wv := int64(w[v]); wv > 0 && s.w[1][c]+wv > s.cap(1, c) {
					return false
				}
			}
			return true
		}
		var h fmHeap
		ver := make([]int32, n)
		push := func(v int32) {
			ver[v]++
			h.push(fmItem{v, m.gain(part, v), ver[v]})
		}
		grow := func(v int32) {
			s.apply(v)
			nbr = m.neighbors(v, nbr[:0])
			for _, u := range nbr {
				if part[u] == 0 {
					push(u)
				}
			}
		}
		grow(int32(rng.Intn(n)))
		for progress() < tf[1] && len(h) > 0 {
			it := h.pop()
			if part[it.v] == 1 || it.ver != ver[it.v] {
				continue
			}
			if g := m.gain(part, it.v); g != it.gain {
				push(it.v)
				continue
			}
			if fits(it.v) {
				grow(it.v)
			}
		}
		// If the frontier died (disconnected model or cap-blocked) before
		// reaching the target, add random fitting vertices, giving up
		// after a bounded number of misses (FM repairs the rest).
		for misses := 0; progress() < tf[1] && misses < 4*n; {
			v := int32(rng.Intn(n))
			if part[v] == 0 && fits(v) {
				s.apply(v)
			} else {
				misses++
			}
		}
		refine(s, 2)
		if v := s.violation(); v < bestViol || (v == bestViol && s.cut < bestCut) {
			bestViol, bestCut = v, s.cut
			bestPart = append(bestPart[:0], part...)
		}
	}
	return bestPart
}

// coarsen contracts a matching: each unmatched vertex, in random order,
// takes its highest-affinity unmatched candidate. A pair may weigh at most
// an eighth of any constraint's total, so no coarse vertex becomes
// unsplittable. It returns the coarse model and the fine-to-coarse map.
func coarsen(m model, rng *rand.Rand) (model, []int32) {
	vw := m.weights()
	caps := totalWeight(vw)
	for c := range caps {
		caps[c] = caps[c]/8 + 1
	}
	cmap := make([]int32, m.size())
	for i := range cmap {
		cmap[i] = -1
	}
	var cands []candidate
	var nc int32
	for _, vi := range rng.Perm(len(cmap)) {
		v := int32(vi)
		if cmap[v] >= 0 {
			continue
		}
		best, bestW := int32(-1), int64(-1)
		cands = m.candidates(v, cmap, cands[:0])
	next:
		for _, cd := range cands {
			for c, w := range vw {
				if int64(w[v])+int64(w[cd.u]) > caps[c] {
					continue next
				}
			}
			if cd.w > bestW {
				best, bestW = cd.u, cd.w
			}
		}
		cmap[v] = nc
		if best >= 0 {
			cmap[best] = nc
		}
		nc++
	}
	return m.contract(cmap, nc), cmap
}

// contractWeights sums the weight vectors of the fine vertices cmap maps
// onto each of nc coarse vertices.
func contractWeights(vw [][]int32, cmap []int32, nc int32) [][]int32 {
	out := make([][]int32, len(vw))
	for c, w := range vw {
		out[c] = make([]int32, nc)
		for v, x := range w {
			out[c][cmap[v]] += x
		}
	}
	return out
}

// bisect performs the full multilevel bisection: coarsen, bisect the
// coarse model, project and refine.
func bisect(m model, tf [2]float64, eps float64, rng *rand.Rand) []int8 {
	n := m.size()
	if n > m.coarseTarget() {
		cm, cmap := coarsen(m, rng)
		// A coarse model above 95 % of n means coarsening stalled:
		// partition directly.
		if cm.size() <= n*19/20 {
			cpart := bisect(cm, tf, eps, rng)
			part := make([]int8, n)
			for v := range part {
				part[v] = cpart[cmap[v]]
			}
			refine(newBisection(m, part, tf, eps), 2)
			return part
		}
	}
	part := growInitial(m, tf, eps, rng)
	refine(newBisection(m, part, tf, eps), 3)
	return part
}

// recursiveBisect partitions m into k parts by recursive bisection: each
// bisection targets fractions proportional to the number of leaf parts on
// each side, so any k (not just powers of two) is balanced. eps is the
// per-bisection balance tolerance for every constraint.
func recursiveBisect(m model, k int, eps float64, rng *rand.Rand) []int32 {
	part := make([]int32, m.size())
	if k > 1 {
		all := make([]int32, len(part))
		for i := range all {
			all[i] = int32(i)
		}
		rb(m, all, k, 0, eps, rng, part)
	}
	return part
}

// rb assigns parts [base, base+k) to the given vertices of m.
func rb(m model, vertices []int32, k int, base int32, eps float64, rng *rand.Rand, out []int32) {
	if k == 1 || len(vertices) <= 1 {
		for _, v := range vertices {
			out[v] = base
		}
		return
	}
	k1 := (k + 1) / 2
	k2 := k - k1
	tf := [2]float64{float64(k1) / float64(k), float64(k2) / float64(k)}
	p := bisect(m.induced(vertices), tf, eps, rng)
	var side0, side1 []int32
	for i, s := range p {
		if s == 0 {
			side0 = append(side0, vertices[i])
		} else {
			side1 = append(side1, vertices[i])
		}
	}
	// Guard against degenerate empty sides (tiny models): steal vertices
	// to keep every part nonempty.
	for len(side0) == 0 && len(side1) > 1 {
		side0 = append(side0, side1[len(side1)-1])
		side1 = side1[:len(side1)-1]
	}
	for len(side1) == 0 && len(side0) > 1 {
		side1 = append(side1, side0[len(side0)-1])
		side0 = side0[:len(side0)-1]
	}
	rb(m, side0, k1, base, eps, rng, out)
	rb(m, side1, k2, base+int32(k1), eps, rng, out)
}
