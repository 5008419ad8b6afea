// Package dist is the distributed multi-process execution backend: the
// process-level analogue of the shared-memory engine in internal/parallel,
// with the same owner-computes decomposition plans (package decomp) and
// real message passing over loopback sockets in place of the in-memory
// merge.
//
// A run is SPMD: a coordinator process spawns N rank processes of the same
// binary (see RankMain), each rank builds its solver from the broadcast
// RunConfig through package solver — the same build the facade runs
// locally, around the rank's distributed Operator instead of the local one
// — and all ranks step the same scheme in lockstep. The run is
// owner-computes for the whole cycle. The stiffness application is the
// only coupled operation of either stepper, so each rank computes K·u only
// over its owned partition slice (with the batched SoA kernels) and
// exchanges halo node contributions with its neighbouring ranks at every
// LTS substep, using the per-rank, per-level halo sets induced by the
// decomposition plans; every other update is pointwise in the degrees of
// freedom, so either scheme of a rank holds and advances only the rank's
// footprint — the nodes its own elements touch (Operator.OwnedNodes,
// handed to packages lts and newmark through sem.Footprint) — in one
// compact numbering, a node's position in that list: U, V, the
// accumulators and the private part buffers are footprint-long. A node on
// a rank interface is in both footprints and is advanced, identically, on
// both sides. Only the mesh and the operator are replicated. Receivers are
// sampled by the rank owning their node, and a snapshot is every rank's
// footprint; a global node id appears only at build, in a snapshot frame's
// id list and in restore.
//
// Determinism: contributions assemble at every node in ascending part
// order — the same order as the shared-memory engine's merge — so for a
// fixed decomposition width (Parts) the seismograms are bitwise
// identical to the shared-memory engine with Parts workers, for any
// number of rank processes executing those parts.
//
// Recovery: stepper state never travels. With Config.CheckpointEvery set,
// every rank periodically writes the part of the state it holds exactly —
// its footprint — to a file of the run's snapshot store (snapstore.go), a
// run-private directory the coordinator creates in Start and removes in
// Close or Abort; the coordinator keeps only which files make up the last
// complete snapshot and what they hash to, and after a rank failure every
// rank of the relaunched generation reads them back. The failure model is
// a lost process, not a lost host — all ranks run on this machine — so
// the files live in the page cache (tmpfs where the host has /dev/shm and
// TMPDIR is unset) and are never synced. A coordinator that is itself
// SIGKILLed leaves the directory behind.
package dist

import (
	"fmt"
	"slices"
	"time"

	"golts/internal/mesh"
	"golts/internal/sem"
	"golts/internal/solver"
)

// RunConfig is everything a rank needs to rebuild the simulation. It is
// broadcast once, gob-encoded, right after the handshake. Every field
// must be deterministic: ranks reconstruct mesh, operator, level
// assignment and stepper from it, and the equivalence tests pin the
// reconstruction bitwise against the in-process build.
type RunConfig struct {
	// Spec is the physics every rank builds its solver from: mesh, levels,
	// operator, scheme, sources and sponge (package solver).
	solver.Spec
	// Ranks is the number of rank processes; Parts the decomposition
	// width (Parts ≥ Ranks; parts map onto ranks in contiguous blocks
	// unless PartRank overrides the placement).
	Ranks, Parts int
	// Part is the element → part assignment, len NumElements.
	Part []int32
	// PartRank optionally assigns each part to an arbitrary rank
	// (len Parts, values in [0,Ranks), every rank owning at least one
	// part). Nil selects the default contiguous block map. Remapping
	// parts onto ranks never changes the assembly order — contributions
	// merge in ascending part order regardless of which process executes
	// a part — so any PartRank produces bitwise-identical seismograms,
	// and a relaunch may move the parts (a degraded-mode shrink falls
	// back to the block map).
	PartRank []int
	// Receivers are the recorded degrees of freedom, in facade receiver
	// order.
	Receivers []int

	// Telemetry enables the timing counters RankStats reports: each
	// rank times its stepper's kernel work per LTS level and its whole
	// cycle. Off by default — the counters are cheap (two monotonic
	// clock reads per level apply and per cycle) but not free.
	Telemetry bool

	// Liveness knobs, broadcast so ranks and coordinator agree. Zero
	// selects the defaults (1 s heartbeat, 15 s heartbeat timeout, 2 min
	// peer-frame timeout); negative disables the mechanism.
	HeartbeatMillis        int
	HeartbeatTimeoutMillis int
	PeerTimeoutMillis      int
}

func timeoutMillis(v, def int) time.Duration {
	if v < 0 {
		return 0
	}
	if v == 0 {
		v = def
	}
	return time.Duration(v) * time.Millisecond
}

// heartbeatInterval is the rank → coordinator beacon period.
func (c *RunConfig) heartbeatInterval() time.Duration { return timeoutMillis(c.HeartbeatMillis, 1000) }

// heartbeatTimeout is how long the coordinator tolerates silence from a
// rank while waiting on it before declaring a RankFailure.
func (c *RunConfig) heartbeatTimeout() time.Duration {
	return timeoutMillis(c.HeartbeatTimeoutMillis, 15000)
}

// peerTimeout bounds a blocking halo receive on the rank ↔ rank mesh.
func (c *RunConfig) peerTimeout() time.Duration { return timeoutMillis(c.PeerTimeoutMillis, 120000) }

// validate checks the structural invariants the handshake relies on.
func (c *RunConfig) validate() error {
	if c.Ranks < 1 {
		return fmt.Errorf("dist: ranks must be >= 1, got %d", c.Ranks)
	}
	if c.Parts < c.Ranks {
		return fmt.Errorf("dist: parts (%d) must be >= ranks (%d)", c.Parts, c.Ranks)
	}
	if _, ok := mesh.Generators[c.Mesh]; !ok {
		return fmt.Errorf("dist: unknown mesh %q", c.Mesh)
	}
	if c.Physics != "acoustic" && c.Physics != "elastic" {
		return fmt.Errorf("dist: unknown physics %q", c.Physics)
	}
	for _, p := range c.Part {
		if p < 0 || int(p) >= c.Parts {
			return fmt.Errorf("dist: part id %d outside [0,%d)", p, c.Parts)
		}
	}
	if c.PartRank != nil {
		if len(c.PartRank) != c.Parts {
			return fmt.Errorf("dist: part-rank map has %d entries, want %d", len(c.PartRank), c.Parts)
		}
		seen := make([]bool, c.Ranks)
		for p, r := range c.PartRank {
			if r < 0 || r >= c.Ranks {
				return fmt.Errorf("dist: part %d mapped to rank %d outside [0,%d)", p, r, c.Ranks)
			}
			seen[r] = true
		}
		for r, ok := range seen {
			if !ok {
				return fmt.Errorf("dist: part-rank map leaves rank %d without parts", r)
			}
		}
	}
	return nil
}

// partRanks is the effective part → rank placement: the explicit
// PartRank map when set, the contiguous block default otherwise.
func (c *RunConfig) partRanks() []int {
	if c.PartRank != nil {
		return c.PartRank
	}
	return ownerRanks(c.Parts, c.Ranks)
}

// rankParts inverts a part → rank map into each rank's owned parts, in
// ascending part order — the order owned contributions are packed and
// assembled in, whatever the placement.
func rankParts(partRank []int, ranks int) [][]int {
	out := make([][]int, ranks)
	for p, r := range partRank {
		out[r] = append(out[r], p)
	}
	return out
}

// partRange returns the half-open part range [lo, hi) owned by rank r:
// parts split into contiguous ascending blocks, so each rank's parts are
// consecutive in the global part order (which is what lets a receiving
// rank read one neighbour message sequentially while assembling parts in
// ascending order).
func partRange(r, parts, ranks int) (lo, hi int) {
	return r * parts / ranks, (r + 1) * parts / ranks
}

// ownerRanks maps every part to its rank via partRange, as a lookup
// table.
func ownerRanks(parts, ranks int) []int {
	own := make([]int, parts)
	for r := 0; r < ranks; r++ {
		lo, hi := partRange(r, parts, ranks)
		for p := lo; p < hi; p++ {
			own[p] = r
		}
	}
	return own
}

// ReceiverOwnerParts maps every configured receiver to the part that
// samples it: the lowest part whose elements touch the receiver's node.
// Unlike the executing rank, the owning part is invariant under
// part → rank remapping, so the coordinator stores parts and re-derives
// ranks from the current placement after every relaunch. One pass over
// the connectivity checks the receivers' nodes only; no decomposition is
// built.
func ReceiverOwnerParts(op sem.Operator, cfg *RunConfig) ([]int, error) {
	nc := op.Comps()
	var nodes []int32 // the receivers' nodes, ascending, unique
	for _, dof := range cfg.Receivers {
		if dof < 0 || dof >= op.NDof() {
			return nil, fmt.Errorf("dist: receiver dof %d outside [0,%d)", dof, op.NDof())
		}
		nodes = append(nodes, int32(dof/nc))
	}
	slices.Sort(nodes)
	nodes = slices.Compact(nodes)
	lowest := make([]int, len(nodes)) // per node; Parts until a part touches it
	for i := range lowest {
		lowest[i] = cfg.Parts
	}
	conn, npe := sem.ConnOf(op)
	var nb []int32
	for e := 0; e < op.NumElements(); e++ {
		if conn != nil {
			nb = conn[e*npe : (e+1)*npe]
		} else {
			nb = op.ElemNodes(e, nb[:0])
		}
		p := int(cfg.Part[e])
		for _, n := range nb {
			if i, ok := slices.BinarySearch(nodes, n); ok && p < lowest[i] {
				lowest[i] = p
			}
		}
	}
	out := make([]int, len(cfg.Receivers))
	for i, dof := range cfg.Receivers {
		j, _ := slices.BinarySearch(nodes, int32(dof/nc))
		if out[i] = lowest[j]; out[i] == cfg.Parts {
			return nil, fmt.Errorf("dist: receiver dof %d on a node no part touches", dof)
		}
	}
	return out, nil
}

// ReceiverOwners maps every configured receiver to the rank that samples
// it under the configuration's current part → rank placement. The
// coordinator's caller and every rank compute the same mapping from the
// broadcast configuration.
func ReceiverOwners(op sem.Operator, cfg *RunConfig) ([]int, error) {
	parts, err := ReceiverOwnerParts(op, cfg)
	if err != nil {
		return nil, err
	}
	ranks := cfg.partRanks()
	out := make([]int, len(parts))
	for i, p := range parts {
		out[i] = ranks[p]
	}
	return out, nil
}
