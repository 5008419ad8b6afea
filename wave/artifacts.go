package wave

import (
	"fmt"
	"strconv"
	"unsafe"

	"golts/internal/decomp"
	"golts/internal/mesh"
	"golts/internal/sem"
	"golts/internal/solver"
	"golts/internal/tune"
)

// DefaultArtifactCacheBytes bounds an ArtifactCache built by
// NewArtifactCache(0): 32 MiB. The four configurations of the serve-warm
// benchmark workload (acoustic LTS trench, scale 0.0046–0.0058, one
// worker) hold 19.8 MiB between them (20 806 322 bytes, 24 artifacts),
// so a service cycling a few hot configurations of that size evicts
// nothing, while one-off configurations stop accumulating.
const DefaultArtifactCacheBytes = 32 << 20

// ArtifactCache shares the expensive, immutable build products of a
// Simulation — the generated mesh with its LTS level assignment, the
// spectral-element operator with its GLL tables, the element partition,
// and the per-element-set batch plans — across Simulations with matching
// configurations. Every artifact is keyed by the canonical string of the
// options that determine it, and concurrent builds of one artifact are
// collapsed into a single construction (decomp.Memo's single-flight),
// which is what lets a job server run the same configuration many times
// while building its operators exactly once.
//
// The cache is bounded in bytes: each artifact is charged the memory it
// owns (artifactBytes), least-recently-used artifacts are evicted until
// the resident bytes fit, and a batch plan leaves with its operator.
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

// NewArtifactCache creates an artifact cache bounded to maxBytes resident
// bytes (maxBytes <= 0 means DefaultArtifactCacheBytes). An artifact
// larger than the whole budget is still cached, alone.
func NewArtifactCache(maxBytes int64) *ArtifactCache {
	if maxBytes <= 0 {
		maxBytes = DefaultArtifactCacheBytes
	}
	return &ArtifactCache{memo: decomp.NewMemo[any](maxBytes, artifactBytes)}
}

// Counters reports the cache's cumulative hit/miss/eviction counters
// across all artifact kinds — the numbers behind a service's cache
// hit-rate metric.
func (c *ArtifactCache) Counters() decomp.MemoCounters { return c.memo.Counters() }

// Len returns the number of cached artifacts.
func (c *ArtifactCache) Len() int { return c.memo.Len() }

// Bytes returns the resident bytes of the cached artifacts.
func (c *ArtifactCache) Bytes() int64 { return c.memo.Bytes() }

// artifactBytes is the memory a cached artifact owns, counted once: a
// mesh's per-element arrays and its level assignment, a partition's
// assignment, an operator's or a batch plan's own tables (Bytes), a
// calibration plan's measurements.
func artifactBytes(v any) int64 {
	switch a := v.(type) {
	case meshLevels:
		m, lv := a.m, a.lv
		floats := len(m.XC) + len(m.YC) + len(m.ZC) + len(m.C) + len(m.Rho)
		return 8*int64(floats) + int64(len(lv.Lvl)) + 8*int64(len(lv.P)+len(lv.Count))
	case []int32:
		return 4 * int64(len(a))
	case interface{ Bytes() int64 }:
		return a.Bytes()
	case *tune.Plan:
		n := int64(unsafe.Sizeof(*a)) + int64(len(a.Measurements))*int64(unsafe.Sizeof(tune.Measurement{}))
		for _, r := range a.Measurements {
			n += 8 * int64(len(r.LevelNanos))
		}
		return n
	}
	panic(fmt.Sprintf("wave: artifact of unknown size: %T", v))
}

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

// lookup builds an artifact through the attached cache under key,
// counting the lookup and a hit into counts (lookups, hits); without a
// cache it just builds.
func lookup(set *settings, key string, counts *[2]int64, build func() (any, error)) (any, error) {
	if set.artifacts == nil {
		return build()
	}
	v, hit, err := set.artifacts.memo.Get(key, build)
	counts[0]++
	if hit {
		counts[1]++
	}
	return v, err
}

// getMesh returns the (mesh, levels) pair for the settings.
func getMesh(set *settings, counts *[2]int64) (*mesh.Mesh, *mesh.Levels, error) {
	v, err := lookup(set, set.meshKey(), counts, func() (any, error) {
		m, lv, err := solver.MeshLevels(set.mesh, set.scale, set.levelCFL())
		return meshLevels{m: m, lv: lv}, err
	})
	if err != nil {
		return nil, nil, err
	}
	ml := v.(meshLevels)
	return ml.m, ml.lv, nil
}

// getOperator builds (or retrieves) the geometry operator and, when a
// cache is attached, wraps it so batch-plan construction is shared too.
func getOperator(set *settings, m *mesh.Mesh, counts *[2]int64) (solver.Operator, error) {
	v, err := lookup(set, set.opKey(), counts, func() (any, error) {
		return solver.NewOperator(m, string(set.physics), set.degree)
	})
	if err != nil {
		return nil, err
	}
	if set.artifacts == nil {
		return v.(solver.Operator), nil
	}
	return shareOperator(set.artifacts.memo, set.opKey(), v.(solver.Operator)), nil
}

// getPartition assigns (or retrieves) the k-way element partition. The
// assignment is copied out on every lookup, so a caller mutating its
// slice can never corrupt another simulation's decomposition.
func getPartition(set *settings, m *mesh.Mesh, lv *mesh.Levels, k int, counts *[2]int64) ([]int32, error) {
	v, err := lookup(set, set.partKey(k), counts, func() (any, error) {
		return partitionAssign(m, lv, k, set)
	})
	if err != nil {
		return nil, err
	}
	return append([]int32(nil), v.([]int32)...), nil
}

// sharedOp wraps a cached geometry operator so that batch plans — one
// per stable element set: per LTS level, per engine part — are built
// once per operator and shared. Plans are immutable and
// concurrent-read-safe, and the embedded operator's AddKuBatch accepts
// any plan it built, so the bitwise contract is preserved exactly.
//
// A plan reads its operator's connectivity, so it is cached owned by the
// operator's entry, and its key carries the operator's address next to
// the operator's key: an operator evicted and rebuilt under one key
// never receives a plan of the other. The address is unique while it
// matters, because a cached or building plan keeps its operator alive.
type sharedOp struct {
	solver.Operator
	key   string // the operator's artifact key: its plans' owner
	plans string // "bplan|<key>|<address>|", the prefix of its plan keys
	memo  *decomp.Memo[any]
}

// shareOperator wraps op, cached under key, so that its batch plans are
// cached too.
func shareOperator(memo *decomp.Memo[any], key string, op solver.Operator) *sharedOp {
	return &sharedOp{Operator: op, key: key, plans: fmt.Sprintf("bplan|%s|%p|", key, op), memo: memo}
}

// NewBatchPlan implements sem.BatchKernel with memoized construction:
// identical element lists across simulations of one operator share one
// plan. A fingerprint collision is detected by comparing the plan's
// element list and degrades to an uncached build — never a wrong plan.
func (s *sharedOp) NewBatchPlan(elems []int32) sem.BatchPlan {
	key := s.plans + strconv.Itoa(len(elems)) + "|" + strconv.FormatUint(hashElems(elems), 16)
	v, _, _ := s.memo.GetOwned(key, s.key, s.Operator, func() (any, error) { return s.Operator.NewBatchPlan(elems), nil })
	pl, _ := v.(sem.BatchPlan)
	if pl == nil || !sameElems(pl.Elems(), elems) {
		return s.Operator.NewBatchPlan(elems)
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

var _ solver.Operator = (*sharedOp)(nil)
