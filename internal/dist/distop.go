package dist

import (
	"fmt"
	"time"

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
// parts' contributions locally — one fused batch per part, into private
// accumulation buffers — exchanges the halo values with neighbouring ranks, and
// assembles all contributions in ascending part order, which makes the
// result at every locally-touched node bitwise identical to the
// shared-memory engine with Parts workers. Nodes no local element touches
// — everything outside OwnedNodes — are neither read nor accumulated
// into: the operator declares that footprint (sem.Footprint), so the
// stepper built on it advances those nodes alone (see the package
// comment).
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
	acc      [][]float64      // per owned part, full-length accumulation buffers
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

	// partNanos accumulates per-owned-part compute wall time (indexed
	// like owned/acc) when cfg.Telemetry is set; the rebalancer reads it
	// through RankStats to cost parts before remapping them.
	telemetry bool
	partNanos []int64

	plans      *decomp.Cache
	ext        map[*decomp.Plan]*distPlan
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
	id    uint32
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
	// receive, and touched[p] the nodes an owned part drains locally (nil
	// for a remote part). A rank packs its parts in ascending part order
	// and the global assembly sweep also visits parts ascending, so each
	// neighbour's single message is consumed sequentially whatever the
	// part → rank placement — owned parts need not be contiguous. All
	// three index the plan's output space, which dst and a prefix of the
	// private buffers share: node ids, or their image under a Remap's Out.
	// All three lie inside the footprint — a stepper over the footprint
	// maps nothing else in Out, and its accumulators stay all-zero between
	// uses because no apply adds anywhere else.
	sendNodes map[int][][]int32
	recvNodes [][]int32
	touched   [][]int32
	recvCount []int // values a frame from rank q must carry
	// batch[i] is the inner batch plan of the i-th owned part (nil for
	// empty parts), built on the first NewBatchPlan of the list.
	batch []sem.BatchPlan
}

// Elems implements sem.BatchPlan.
func (pl *distPlan) Elems() []int32 { return pl.dp.Elems }

// Remap implements sem.BatchPlan: sub-plans remapped, halo and drain lists
// renumbered through m.Out. What goes on the wire is unchanged.
func (pl *distPlan) Remap(m sem.NodeMap) sem.BatchPlan {
	q := *pl
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
		plans: decomp.NewCache(inner, cfg.Part, cfg.Parts),
		ext:   make(map[*decomp.Plan]*distPlan),
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
	for i := range d.acc {
		d.acc[i] = make([]float64, inner.NDof())
	}
	d.telemetry = cfg.Telemetry
	d.partNanos = make([]int64, len(d.owned))
	// Global per-rank element-node footprints: one list of element ids
	// per rank, then the shared touched-set construction.
	rankElems := make([][]int32, cfg.Ranks)
	for e, p := range cfg.Part {
		r := d.partRank[p]
		rankElems[r] = append(rankElems[r], int32(e))
	}
	d.rankNodes = decomp.TouchedNodes(inner, rankElems)
	d.recv = make([][]float64, cfg.Ranks)
	d.offs = make([]int, cfg.Ranks)
	return d, nil
}

// Stats returns the accumulated communication counters.
func (d *Operator) Stats() Stats { return d.stats }

// OwnedParts returns this rank's owned parts, ascending.
func (d *Operator) OwnedParts() []int { return d.owned }

// PartNanos returns the cumulative compute wall time of each owned part
// (indexed like OwnedParts), measured only when cfg.Telemetry is set.
func (d *Operator) PartNanos() []int64 { return d.partNanos }

// OwnedNodes implements sem.Footprint: this rank's global element-node
// footprint, the ascending nodes its owned elements touch. These are the
// nodes the rank's stepper advances, and on them its field arrays are
// bitwise identical to the shared-memory engine after every cycle; the
// rest of the NDof-long arrays is never written between restores and must
// not be read. A node on a rank interface lies in both footprints and is
// advanced, identically, by both ranks. Snapshots overlay the footprints
// of all ranks to reconstruct the exact global field.
func (d *Operator) OwnedNodes() []int32 { return d.rankNodes[d.rank] }

// lookup returns the execution state for one element list, building the
// decomposition plan and halo index sets on first use. Plan ids are
// assigned in first-use order; the SPMD ranks execute the same apply
// sequence, so ids agree across ranks and serve as a desync check on
// every halo frame.
func (d *Operator) lookup(elems []int32) *distPlan {
	dp, flushed := d.plans.Lookup(elems)
	if flushed {
		d.ext = make(map[*decomp.Plan]*distPlan)
	}
	if pl, ok := d.ext[dp]; ok {
		return pl
	}
	pl := d.buildHalo(dp)
	pl.id = d.nextPlanID
	d.nextPlanID++
	d.ext[dp] = pl
	return pl
}

// Prepare implements sem.Preparer: the steppers announce their stable
// element lists (the all-elements list, each LTS level's force elements)
// at construction time, so the per-level halo sets exist before the
// first substep. The announcement order is deterministic across ranks.
func (d *Operator) Prepare(elems []int32) { d.lookup(elems) }

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
	}
	for _, p := range d.owned {
		pl.touched[p] = dp.Touched[p]
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
		}
		if recvTotal > 0 {
			pl.recvRanks = append(pl.recvRanks, q)
			pl.recvCount[q] = recvTotal * d.inner.Comps()
		}
	}
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

	// Phase 1 — compute: every owned part accumulates its elements into
	// its private buffer as one fused batch (the request-order, per-part
	// accumulation that matches one shared-memory rank worker bitwise).
	for i, b := range pl.batch {
		if b == nil {
			continue
		}
		var start time.Time
		if d.telemetry {
			start = time.Now()
		}
		d.inner.AddKuBatch(d.acc[i][:len(dst)], u, b, bs)
		if d.telemetry {
			d.partNanos[i] += time.Since(start).Nanoseconds()
		}
	}

	// Phase 2a — send: for every receiving rank, the owned parts' halo
	// values in (part, node, component) order. Peer reader goroutines
	// drain the stream on the far side, so these writes cannot deadlock
	// against the symmetric sends of the neighbours.
	for _, q := range pl.sendRanks {
		vals := d.vals[:0]
		for i := range pl.sendNodes[q] {
			acc := d.acc[i]
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

	// Phase 3 — assemble: add every part's contribution in ascending
	// part order. Local parts drain (and re-zero) their buffers; remote
	// parts consume their neighbour's frame sequentially (a rank's parts
	// are met in ascending order during the sweep, matching the sender's
	// packing order, whatever the placement). The ascending-part adds
	// reproduce the shared-memory merge bitwise at every locally-touched
	// node.
	for p := 0; p < dp.P; p++ {
		if li := d.localIdx[p]; li >= 0 {
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

// commError wraps a communication failure raised inside an apply; the
// rank runtime recovers it at the stepping boundary and reports it to
// the coordinator instead of crashing with a bare panic.
type commError struct{ err error }

func (e *commError) Error() string { return e.err.Error() }

// AddKu implements sem.Operator for callers without a prepared plan: the
// element list's plan is looked up (or built) and applied through
// AddKuBatch on the operator's own workspace.
func (d *Operator) AddKu(dst, u []float64, elems []int32) {
	d.AddKuBatch(dst, u, d.NewBatchPlan(elems), &d.bscr)
}

// AddKuScratch implements sem.Operator; the per-element scratch is unused.
func (d *Operator) AddKuScratch(dst, u []float64, elems []int32, _ *sem.Scratch) {
	d.AddKu(dst, u, elems)
}

// NewBatchPlan implements sem.BatchKernel.
func (d *Operator) NewBatchPlan(elems []int32) sem.BatchPlan {
	pl := d.lookup(elems)
	if pl.batch == nil {
		pl.batch = make([]sem.BatchPlan, len(d.owned))
		for i, p := range d.owned {
			if len(pl.dp.Parts[p]) > 0 {
				pl.batch[i] = d.inner.NewBatchPlan(pl.dp.Parts[p])
			}
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
	_ sem.Preparer     = (*Operator)(nil)
	_ sem.Connectivity = (*Operator)(nil)
	_ sem.Footprint    = (*Operator)(nil)
	_ sem.BatchKernel  = (*Operator)(nil)
)
