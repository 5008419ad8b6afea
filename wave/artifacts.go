package wave

import (
	"fmt"
	"strconv"

	"golts/internal/decomp"
	"golts/internal/mesh"
	"golts/internal/sem"
)

// DefaultArtifactCacheSize bounds an ArtifactCache built by
// NewArtifactCache(0). Entries are whole meshes, operators, partitions
// and batch plans, so a long-running service with a handful of hot
// configurations stays far below it.
const DefaultArtifactCacheSize = 64

// ArtifactCache shares the expensive, immutable build products of a
// Simulation — the generated mesh with its LTS level assignment, the
// spectral-element operator with its GLL tables, the element partition,
// and the per-element-set batch plans — across Simulations with matching
// configurations. Every artifact is keyed by the canonical string of the
// options that determine it, entries are LRU-bounded, and concurrent
// builds of one artifact are collapsed into a single construction
// (decomp.Memo's single-flight), which is what lets a job server run the
// same configuration many times while building its operators exactly
// once.
//
// Sharing is safe because every cached artifact is immutable after
// construction: operators only read their tables under AddKu/AddKuBatch
// (scratch is pooled or caller-owned), batch plans are documented
// concurrent-read-safe, and partitions are copied out on every lookup as
// defence against caller mutation. Results are unchanged by cache hits —
// cold and cached runs of one configuration are bitwise identical.
//
// Use one cache per process (e.g. the waved daemon's) and attach it with
// WithArtifactCache. The zero value is not usable; call NewArtifactCache.
type ArtifactCache struct {
	memo *decomp.Memo[any]
}

// NewArtifactCache creates an artifact cache bounded to max entries
// (max <= 0 means DefaultArtifactCacheSize).
func NewArtifactCache(max int) *ArtifactCache {
	if max <= 0 {
		max = DefaultArtifactCacheSize
	}
	return &ArtifactCache{memo: decomp.NewMemo[any](max)}
}

// Counters reports the cache's cumulative hit/miss/eviction counters
// across all artifact kinds — the numbers behind a service's cache
// hit-rate metric.
func (c *ArtifactCache) Counters() decomp.MemoCounters { return c.memo.Counters() }

// Len returns the number of cached artifacts.
func (c *ArtifactCache) Len() int { return c.memo.Len() }

// WithArtifactCache attaches a shared artifact cache: mesh generation,
// operator construction, partitioning and batch-plan construction
// consult it before building. Simulations with distinct configurations
// coexist in one cache; Stats reports this simulation's lookup and hit
// counts.
func WithArtifactCache(c *ArtifactCache) Option {
	return func(s *settings) error {
		if c == nil {
			return optErr("WithArtifactCache", ErrNilArgument, "nil cache")
		}
		s.artifacts = c
		return nil
	}
}

// meshLevels is the cached pair of a generated mesh and its level
// assignment (always derived together: the levels depend only on the
// mesh and the normalised CFL in the key).
type meshLevels struct {
	m  *mesh.Mesh
	lv *mesh.Levels
}

// Canonical artifact keys. Floats print with %.17g so every distinct
// value gets a distinct key (full round-trip precision).
func (s *settings) meshKey() string {
	return fmt.Sprintf("mesh|%s|%.17g|%.17g", s.mesh, s.scale, s.levelCFL())
}

func (s *settings) opKey() string {
	return fmt.Sprintf("op|%s|%.17g|%s|%d", s.mesh, s.scale, s.physics, s.degree)
}

func (s *settings) partKey(k int) string {
	return fmt.Sprintf("part|%s|%.17g|%.17g|%d|%s|%d", s.mesh, s.scale, s.levelCFL(), k, s.partitioner, s.seed)
}

// getMesh returns the (mesh, levels) pair for the settings, cached when
// an artifact cache is attached. counts receives (lookups, hits) deltas.
func getMesh(set *settings, counts *[2]int64) (*mesh.Mesh, *mesh.Levels) {
	build := func() meshLevels {
		m := mesh.Generators[set.mesh](set.scale)
		return meshLevels{m: m, lv: mesh.AssignLevels(m, set.levelCFL(), 0)}
	}
	if set.artifacts == nil {
		ml := build()
		return ml.m, ml.lv
	}
	v, hit, _ := set.artifacts.memo.Get(set.meshKey(), func() (any, error) { return build(), nil })
	counts[0]++
	if hit {
		counts[1]++
	}
	ml := v.(meshLevels)
	return ml.m, ml.lv
}

// getOperator builds (or retrieves) the geometry operator and, when a
// cache is attached, wraps it so batch-plan construction is shared too.
func getOperator(set *settings, m *mesh.Mesh, counts *[2]int64) (geomOperator, error) {
	build := func() (geomOperator, error) {
		switch set.physics {
		case Acoustic:
			return sem.NewAcoustic3D(m, set.degree, false)
		case Elastic:
			return sem.NewElastic3D(m, set.degree, false, 0)
		default:
			return nil, optErr("WithPhysics", ErrUnknownPhysics, "%q", set.physics)
		}
	}
	if set.artifacts == nil {
		return build()
	}
	key := set.opKey()
	v, hit, err := set.artifacts.memo.Get(key, func() (any, error) {
		op, err := build()
		if err != nil {
			return nil, err
		}
		return op, nil
	})
	counts[0]++
	if err != nil {
		return nil, err
	}
	if hit {
		counts[1]++
	}
	return &sharedOp{geomOperator: v.(geomOperator), key: key, memo: set.artifacts.memo}, nil
}

// getPartition assigns (or retrieves) the k-way element partition. The
// cached assignment is copied out on every lookup, so a caller mutating
// its slice can never corrupt another simulation's decomposition.
func getPartition(set *settings, m *mesh.Mesh, lv *mesh.Levels, k int, counts *[2]int64) ([]int32, error) {
	if set.artifacts == nil {
		return partitionAssign(m, lv, k, set)
	}
	v, hit, err := set.artifacts.memo.Get(set.partKey(k), func() (any, error) {
		part, err := partitionAssign(m, lv, k, set)
		if err != nil {
			return nil, err
		}
		return part, nil
	})
	counts[0]++
	if err != nil {
		return nil, err
	}
	if hit {
		counts[1]++
	}
	return append([]int32(nil), v.([]int32)...), nil
}

// sharedOp wraps a cached geometry operator so that batch plans — one
// per stable element set: per LTS level, per engine part — are built
// once per configuration and shared. Plans are immutable and
// concurrent-read-safe, and the embedded operator's AddKuBatch accepts
// any plan it built, so the bitwise contract is preserved exactly.
type sharedOp struct {
	geomOperator
	key  string // owning operator's artifact key, scoping the plan keys
	memo *decomp.Memo[any]
}

// NewBatchPlan implements sem.BatchKernel with memoized construction:
// identical element lists across simulations of one configuration share
// one plan. A fingerprint collision is detected by comparing the plan's
// element list and degrades to an uncached build — never a wrong plan.
func (s *sharedOp) NewBatchPlan(elems []int32) sem.BatchPlan {
	key := "bplan|" + s.key + "|" + strconv.Itoa(len(elems)) + "|" + strconv.FormatUint(hashElems(elems), 16)
	v, _, _ := s.memo.Get(key, func() (any, error) { return s.geomOperator.NewBatchPlan(elems), nil })
	pl, _ := v.(sem.BatchPlan)
	if pl == nil || !sameElems(pl.Elems(), elems) {
		return s.geomOperator.NewBatchPlan(elems)
	}
	return pl
}

// hashElems is FNV-1a over the element ids.
func hashElems(elems []int32) uint64 {
	h := uint64(14695981039346656037)
	for _, e := range elems {
		for sh := 0; sh < 32; sh += 8 {
			h ^= uint64(uint8(e >> sh))
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

var _ geomOperator = (*sharedOp)(nil)
