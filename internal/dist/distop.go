package dist

import (
	"fmt"

	"golts/internal/decomp"
	"golts/internal/sem"
)

// exchanger is the rank runtime's message fabric, as the operator sees
// it: send a halo frame to a peer rank and receive the next halo frame
// from a peer rank. Receives are per-peer ordered (one TCP stream per
// pair) and block until the frame arrives; the values belong to the
// operator until it hands them back with releaseHalo, which lets the
// fabric receive a later frame into the same storage.
type exchanger interface {
	sendHalo(rank int, seq, planID uint32, values []float64) error
	recvHalo(rank int) (seq, planID uint32, values []float64, err error)
	releaseHalo(rank int, values []float64)
}

// Stats accumulates the operator's real communication counters: one
// message per neighbour send, volume in node-contribution values
// (node count, not components, matching internal/parallel's units).
type Stats struct {
	Applies  int64
	Messages int64
	Volume   int64
}

// Operator is the message-passing analogue of
// parallel.PartitionedOperator: it implements sem.BatchKernel for one
// rank of an SPMD run. Every stiffness application computes the owned
// parts' contributions locally — one fused batch per part, the lowest
// owned part's into dst and every other's into a private buffer —
// exchanges the halo values with neighbouring ranks, and assembles all
// contributions in ascending part order. Nodes no local element touches
// — everything outside OwnedNodes — are neither read nor accumulated
// into: the operator declares that footprint (sem.Footprint), so the
// stepper built on it advances those nodes alone (see the package
// comment). Where dst is +0 on the plan's output footprint, as every
// stepper resets it, the result at every locally-touched node is bitwise
// the shared-memory engine's with Parts workers; on a nonzero dst too
// wherever two parts touch the node. Where owned[0] alone does, its
// elements fold onto dst in element order, as the K = 1 path does.
//
// The operator is driven by a single stepping goroutine; the parallelism
// lives across processes.
type Operator struct {
	inner sem.BatchKernel
	cfg   *RunConfig
	rank  int
	ex    exchanger

	// OnApply, when set, runs at the top of every distributed stiffness
	// application. The fault-injection harness uses it to address
	// individual substeps within a cycle.
	OnApply func()

	owned    []int            // owned parts, ascending
	localIdx []int            // part → index into owned/acc, -1 for remote parts
	acc      [][]float64      // owned[i]'s all-zero NDof-long buffer, nil for i = 0 (dst)
	bscr     sem.BatchScratch // workspace of the plan-less AddKu / AddKuScratch

	// rankNodes[q] is rank q's global element-node footprint: the sorted
	// union of all nodes its owned elements touch, over the whole mesh.
	// This — not the per-level touched set — is the halo target: the
	// stepper reads u at every node of its owned elements at *some*
	// level, so every level's apply must deliver assembled contributions
	// on the full footprint to keep the rank's share of the field exact.
	rankNodes [][]int32

	partRank []int   // part → executing rank
	ownedBy  [][]int // rank → its owned parts, ascending

	nextPlanID uint32
	seq        uint32

	vals []float64   // reusable halo extraction buffer
	recv [][]float64 // per-rank frame values of the apply in flight
	offs []int       // per-rank read offsets of the assembly phase

	stats Stats
}

// distPlan is the per-element-list execution state layered on a
// decomposition plan: the halo index sets against every neighbouring
// rank and the per-owned-part inner batch plans. It is the Operator's
// sem.BatchPlan.
type distPlan struct {
	owner *Operator
	dp    *decomp.Plan
	id    uint32 // construction order on this operator, equal on every rank
	// sendRanks lists the ranks we send halo values to for this element
	// list and recvRanks the ranks we receive from, both ascending. The
	// two differ in general: a rank with no elements at this level still
	// receives contributions on its global footprint but sends none.
	// Both sides derive both lists from the shared plan, so the pairing
	// always matches.
	sendRanks, recvRanks []int
	// sendNodes[q][i] lists, for rank q and the i-th owned part, the
	// ascending nodes of Touched[owned[i]] ∩ rankNodes[q] whose
	// contributions we send to q. recvNodes[p] lists, for each remote
	// part p, the ascending nodes of Touched[p] ∩ rankNodes[self] we
	// receive, and for owned[0] its nodes another part touches too (the
	// lift); touched[p] the nodes owned[1:] drain locally. A rank packs its
	// parts in ascending part order and the global assembly sweep also
	// visits parts ascending, so each neighbour's single message is
	// consumed sequentially whatever the part → rank placement — owned
	// parts need not be contiguous. All three index the plan's output
	// space, which dst and a prefix of the private buffers share: node ids,
	// or their image under a Remap's Out. All three lie inside the
	// footprint — a stepper over the footprint maps nothing else in Out,
	// and its accumulators stay all-zero because no apply adds elsewhere.
	sendNodes map[int][][]int32
	recvNodes [][]int32
	touched   [][]int32
	lift      []float64 // dst, then owned[0]'s terms, at recvNodes[owned[0]]
	recvCount []int     // values a frame from rank q must carry
	nOut      int       // the output space, in nodes: NumNodes or a Remap's m.NOut
	// batch[i] is the inner batch plan of the i-th owned part (nil for
	// empty parts).
	batch []sem.BatchPlan
}

// Elems implements sem.BatchPlan.
func (pl *distPlan) Elems() []int32 { return pl.dp.Elems }

// DstNodes implements sem.BatchPlan: the output space, unchanged.
func (pl *distPlan) DstNodes() int { return pl.nOut }

// Remap implements sem.BatchPlan: sub-plans remapped, halo and drain lists
// renumbered through m.Out. What goes on the wire is unchanged.
func (pl *distPlan) Remap(m sem.NodeMap) sem.BatchPlan {
	q := *pl
	q.nOut = m.NOut
	q.batch = make([]sem.BatchPlan, len(pl.batch))
	for i, b := range pl.batch {
		if b != nil {
			q.batch[i] = b.Remap(m)
		}
	}
	q.sendNodes = make(map[int][][]int32, len(pl.sendNodes))
	for r, lists := range pl.sendNodes {
		q.sendNodes[r] = decomp.Renumber(lists, m.Out)
	}
	q.recvNodes = decomp.Renumber(pl.recvNodes, m.Out)
	q.touched = decomp.Renumber(pl.touched, m.Out)
	return &q
}

// NewOperator builds the rank-local distributed operator. part maps
// every element to a part in [0, cfg.Parts); parts map onto ranks in
// contiguous blocks unless cfg.PartRank places them explicitly.
func NewOperator(inner sem.BatchKernel, cfg *RunConfig, rank int, ex exchanger) (*Operator, error) {
	if rank < 0 || rank >= cfg.Ranks {
		return nil, fmt.Errorf("dist: rank %d outside [0,%d)", rank, cfg.Ranks)
	}
	if len(cfg.Part) != inner.NumElements() {
		return nil, fmt.Errorf("dist: partition has %d entries for %d elements",
			len(cfg.Part), inner.NumElements())
	}
	d := &Operator{
		inner: inner,
		cfg:   cfg,
		rank:  rank,
		ex:    ex,
	}
	d.partRank = cfg.partRanks()
	d.ownedBy = rankParts(d.partRank, cfg.Ranks)
	d.owned = d.ownedBy[rank]
	d.localIdx = make([]int, cfg.Parts)
	for p := range d.localIdx {
		d.localIdx[p] = -1
	}
	for i, p := range d.owned {
		d.localIdx[p] = i
	}
	d.acc = make([][]float64, len(d.owned))
	for i := 1; i < len(d.acc); i++ {
		d.acc[i] = make([]float64, inner.NDof())
	}
	// Global per-rank element-node footprints: one list of element ids
	// per rank, then the shared touched-set construction.
	rankElems := make([][]int32, cfg.Ranks)
	for e, p := range cfg.Part {
		r := d.partRank[p]
		rankElems[r] = append(rankElems[r], int32(e))
	}
	d.rankNodes = sem.TouchedNodes(inner, rankElems)
	d.recv = make([][]float64, cfg.Ranks)
	d.offs = make([]int, cfg.Ranks)
	return d, nil
}

// Stats returns the accumulated communication counters.
func (d *Operator) Stats() Stats { return d.stats }

// OwnedNodes implements sem.Footprint: this rank's global element-node
// footprint, the ascending nodes its owned elements touch. These are the
// nodes the rank's stepper advances, and on them its field arrays are
// bitwise identical to the shared-memory engine after every cycle; the
// rest of the NDof-long arrays is never written between restores and must
// not be read. A node on a rank interface lies in both footprints and is
// advanced, identically, by both ranks. Snapshots overlay the footprints
// of all ranks to reconstruct the exact global field.
func (d *Operator) OwnedNodes() []int32 { return d.rankNodes[d.rank] }

// buildHalo computes the halo index sets of one decomposition plan for
// this rank: which nodes go to and come from every other rank. Outgoing
// values target the receiver's global element-node footprint (see
// rankNodes); all ranks derive the same sets from the same plan, so no
// negotiation is needed.
func (d *Operator) buildHalo(dp *decomp.Plan) *distPlan {
	pl := &distPlan{
		owner:     d,
		dp:        dp,
		sendNodes: make(map[int][][]int32),
		recvNodes: make([][]int32, dp.P),
		recvCount: make([]int, d.cfg.Ranks),
		touched:   make([][]int32, dp.P),
		nOut:      d.inner.NumNodes(),
	}
	lead := dp.Touched[d.owned[0]]
	var shared [][]int32
	for _, p := range d.owned[1:] {
		pl.touched[p] = dp.Touched[p]
		shared = append(shared, decomp.Shared(lead, dp.Touched[p]))
	}
	mine := d.rankNodes[d.rank]
	for q := 0; q < d.cfg.Ranks; q++ {
		if q == d.rank {
			continue
		}
		// Outgoing: per owned part, the slice of this level's touched set
		// inside q's footprint.
		send := make([][]int32, len(d.owned))
		total := 0
		for i, p := range d.owned {
			send[i] = decomp.Shared(dp.Touched[p], d.rankNodes[q])
			total += len(send[i])
		}
		if total > 0 {
			pl.sendRanks = append(pl.sendRanks, q)
			pl.sendNodes[q] = send
		}
		// Incoming: per remote part of q, the slice of its touched set
		// inside our footprint. The sender computes the identical lists
		// from the same plan, so the payload needs no index header.
		recvTotal := 0
		for _, p := range d.ownedBy[q] {
			pl.recvNodes[p] = decomp.Shared(dp.Touched[p], mine)
			recvTotal += len(pl.recvNodes[p])
			shared = append(shared, decomp.Shared(lead, pl.recvNodes[p]))
		}
		if recvTotal > 0 {
			pl.recvRanks = append(pl.recvRanks, q)
			pl.recvCount[q] = recvTotal * d.inner.Comps()
		}
	}
	pl.recvNodes[d.owned[0]] = decomp.Union(shared...)
	pl.lift = make([]float64, len(pl.recvNodes[d.owned[0]])*d.inner.Comps())
	return pl
}

// AddKuBatch implements sem.BatchKernel: the three-phase distributed
// stiffness application — owner-computes, halo exchange, ascending-part
// assembly.
func (d *Operator) AddKuBatch(dst, u []float64, plan sem.BatchPlan, bs *sem.BatchScratch) {
	pl, ok := plan.(*distPlan)
	if !ok {
		panic(fmt.Sprintf("dist: AddKuBatch: foreign plan type %T", plan))
	}
	if pl.owner != d {
		panic("dist: AddKuBatch: plan built by a different operator")
	}
	if d.OnApply != nil {
		d.OnApply()
	}
	seq := d.seq
	d.seq++
	dp := pl.dp
	nc := d.inner.Comps()

	// Phase 0 — lift dst off the nodes owned[0] shares: its terms there start at +0.
	lift := pl.recvNodes[d.owned[0]]
	for k, n := range lift {
		copy(pl.lift[k*nc:], dst[int(n)*nc:int(n)*nc+nc])
		clear(dst[int(n)*nc : int(n)*nc+nc])
	}

	// Phase 1 — compute: every owned part accumulates its elements into
	// its buffer (owned[0]'s is dst) as one fused batch (the request-order,
	// per-part accumulation that matches one shared-memory worker bitwise).
	for i, b := range pl.batch {
		if b == nil {
			continue
		}
		d.inner.AddKuBatch(d.buf(i, dst)[:len(dst)], u, b, bs)
	}

	// Phase 2a — send: for every receiving rank, the owned parts' halo
	// values in (part, node, component) order, owned[0]'s from dst. Peer
	// reader goroutines drain the stream on the far side, so these writes
	// cannot deadlock against the symmetric sends of the neighbours.
	for _, q := range pl.sendRanks {
		vals := d.vals[:0]
		for i := range pl.sendNodes[q] {
			acc := d.buf(i, dst)
			for _, n := range pl.sendNodes[q][i] {
				base := int(n) * nc
				vals = append(vals, acc[base:base+nc]...)
			}
		}
		d.vals = vals
		if err := d.ex.sendHalo(q, seq, pl.id, vals); err != nil {
			panic(&commError{err: fmt.Errorf("dist: rank %d send to %d: %w", d.rank, q, err)})
		}
		d.stats.Messages++
		d.stats.Volume += int64(len(vals) / nc)
	}

	// Phase 2b — receive: one frame per sending rank, any arrival order.
	// The per-rank frame and offset tables live on the operator (dense,
	// small), so the steady-state apply allocates nothing itself.
	for _, q := range pl.recvRanks {
		rseq, rid, vals, err := d.ex.recvHalo(q)
		if err != nil {
			panic(&commError{err: fmt.Errorf("dist: rank %d recv from %d: %w", d.rank, q, err)})
		}
		if rseq != seq || rid != pl.id {
			panic(&commError{err: fmt.Errorf("dist: rank %d desync with %d: got (seq %d, plan %d), want (%d, %d)",
				d.rank, q, rseq, rid, seq, pl.id)})
		}
		// The assembly sweep indexes the frame by the plan's own counts.
		if len(vals) != pl.recvCount[q] {
			panic(&commError{err: fmt.Errorf("dist: rank %d: halo from %d carries %d values, plan %d expects %d: %w",
				d.rank, q, len(vals), pl.id, pl.recvCount[q], &CorruptFrameError{Type: msgHalo, Len: 8 + 8*len(vals)})})
		}
		d.recv[q] = vals
		d.offs[q] = 0
	}

	// Phase 3 — assemble: swap the lifted dst back for owned[0]'s terms,
	// then add every part's contribution in ascending part order: owned[0]
	// reads its terms like a frame, other local parts drain (and re-zero)
	// their buffers, remote parts consume their neighbour's frame
	// sequentially (a rank's parts are met in ascending order, matching the
	// sender's packing order, whatever the placement).
	for k, n := range lift {
		base := int(n) * nc
		for c := 0; c < nc; c++ {
			pl.lift[k*nc+c], dst[base+c] = dst[base+c], pl.lift[k*nc+c]
		}
	}
	d.recv[d.rank], d.offs[d.rank] = pl.lift, 0
	for p := 0; p < dp.P; p++ {
		if li := d.localIdx[p]; li > 0 {
			acc := d.acc[li]
			for _, n := range pl.touched[p] {
				base := int(n) * nc
				for c := 0; c < nc; c++ {
					dst[base+c] += acc[base+c]
					acc[base+c] = 0
				}
			}
			continue
		}
		nodes := pl.recvNodes[p]
		if len(nodes) == 0 {
			continue
		}
		q := d.partRank[p]
		vals := d.recv[q]
		o := d.offs[q]
		for _, n := range nodes {
			base := int(n) * nc
			for c := 0; c < nc; c++ {
				dst[base+c] += vals[o]
				o++
			}
		}
		d.offs[q] = o
	}
	for _, q := range pl.recvRanks {
		d.ex.releaseHalo(q, d.recv[q])
		d.recv[q] = nil
	}
	d.stats.Applies++
}

// buf returns owned[i]'s accumulation buffer in an apply onto dst.
func (d *Operator) buf(i int, dst []float64) []float64 {
	if i == 0 {
		return dst
	}
	return d.acc[i]
}

// commError wraps a communication failure raised inside an apply; the
// rank runtime recovers it at the stepping boundary and reports it to
// the coordinator instead of crashing with a bare panic.
type commError struct{ err error }

func (e *commError) Error() string { return e.err.Error() }

// AddKu implements sem.Operator for callers without a plan: the element
// list's plan is built and applied through AddKuBatch on the operator's
// own workspace. Every rank must make the same calls (see NewBatchPlan).
func (d *Operator) AddKu(dst, u []float64, elems []int32) {
	d.AddKuBatch(dst, u, d.NewBatchPlan(elems), &d.bscr)
}

// AddKuScratch implements sem.Operator; the per-element scratch is unused.
func (d *Operator) AddKuScratch(dst, u []float64, elems []int32, _ *sem.Scratch) {
	d.AddKu(dst, u, elems)
}

// NewBatchPlan implements sem.BatchKernel: the decomposition plan of the
// element list, its halo index sets and the owned parts' inner batch
// plans, built afresh under the next plan id. Ids are assigned in
// construction order; the SPMD ranks build the same plans in the same
// order (the stepper's constructor: all elements, or LTS level by level),
// so ids agree across ranks and serve as a desync check on every halo
// frame.
func (d *Operator) NewBatchPlan(elems []int32) sem.BatchPlan {
	pl := d.buildHalo(decomp.Build(d.inner, d.cfg.Part, d.cfg.Parts, elems))
	pl.id = d.nextPlanID
	d.nextPlanID++
	pl.batch = make([]sem.BatchPlan, len(d.owned))
	for i, p := range d.owned {
		if len(pl.dp.Parts[p]) > 0 {
			pl.batch[i] = d.inner.NewBatchPlan(pl.dp.Parts[p])
		}
	}
	return pl
}

// NumNodes implements sem.Operator.
func (d *Operator) NumNodes() int { return d.inner.NumNodes() }

// Comps implements sem.Operator.
func (d *Operator) Comps() int { return d.inner.Comps() }

// NDof implements sem.Operator.
func (d *Operator) NDof() int { return d.inner.NDof() }

// NumElements implements sem.Operator.
func (d *Operator) NumElements() int { return d.inner.NumElements() }

// MInv implements sem.Operator.
func (d *Operator) MInv() []float64 { return d.inner.MInv() }

// ElemNodes implements sem.Operator.
func (d *Operator) ElemNodes(e int, buf []int32) []int32 { return d.inner.ElemNodes(e, buf) }

// ConnTable forwards the inner operator's flat connectivity table
// (implements sem.Connectivity); (nil, 0) when it has none.
func (d *Operator) ConnTable() ([]int32, int) { return sem.ConnOf(d.inner) }

var (
	_ sem.Connectivity = (*Operator)(nil)
	_ sem.Footprint    = (*Operator)(nil)
	_ sem.BatchKernel  = (*Operator)(nil)
)
