package dist

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"

	"golts/internal/decomp"
	"golts/internal/leakgate"
	"golts/internal/lts"
	"golts/internal/mesh"
	"golts/internal/newmark"
	"golts/internal/parallel"
	"golts/internal/partition"
	"golts/internal/sem"
	"golts/internal/simio"
	"golts/internal/solver"
)

// TestMain is the cooperative re-exec hook: when the coordinator spawns
// this test binary as a rank process, RankMain runs the rank runtime and
// exits instead of re-running the tests. The tests themselves run under
// the package-exit leak gate.
func TestMain(m *testing.M) {
	RankMain()
	os.Exit(leakgate.Run(m))
}

// testConfig assembles a deterministic tiny-trench RunConfig plus the
// locally-built pieces the baseline and owner computations need.
type testConfig struct {
	cfg  RunConfig
	m    *mesh.Mesh
	lv   *mesh.Levels
	geom solver.Operator
	srcs []sem.Source
}

func newTestConfig(t *testing.T, physics string, ltsScheme bool, ranks, parts int) *testConfig {
	return newTestConfigScale(t, physics, ltsScheme, ranks, parts, 0.0005)
}

func newTestConfigScale(t *testing.T, physics string, ltsScheme bool, ranks, parts int, scale float64) *testConfig {
	t.Helper()
	cfg := RunConfig{
		Spec: solver.Spec{
			Mesh:     "trench",
			Scale:    scale,
			Physics:  physics,
			Degree:   4,
			LevelCFL: 0.4 / 16,
			LTS:      ltsScheme,
		},
		Ranks: ranks,
		Parts: parts,
	}
	m, lv, geom, err := cfg.Discretize()
	if err != nil {
		t.Fatalf("Discretize: %v", err)
	}
	part, err := partition.Assign(m, lv, parts, partition.ScotchP, 7)
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	cfg.Part = part

	nc := geom.Comps()
	comp := 0
	if physics == "elastic" {
		comp = 2
	}
	cfg.Sources = []solver.Source{
		{Dof: (geom.NumNodes()/2)*nc + comp, F0: 10, T0: 0.05},
		{Dof: (geom.NumNodes()/3)*nc + 0, F0: 14, T0: 0.03},
	}
	cfg.Receivers = []int{
		0 * nc,
		(geom.NumNodes() / 4) * nc,
		(geom.NumNodes() - 1) * nc,
	}
	if nc > 1 {
		cfg.Receivers = append(cfg.Receivers, (geom.NumNodes()/5)*nc+1)
	}
	// One receiver on each source dof: the far ones stay at zero for the
	// few cycles a test runs, and only these make the comparisons see the
	// wave (requireBitwise checks it).
	for _, s := range cfg.Sources {
		cfg.Receivers = append(cfg.Receivers, s.Dof)
	}
	tc := &testConfig{cfg: cfg, m: m, lv: lv, geom: geom}
	for _, s := range cfg.Sources {
		tc.srcs = append(tc.srcs, sem.Source{Dof: s.Dof, W: sem.Ricker{F0: s.F0, T0: s.T0}})
	}
	return tc
}

// newShared builds the shared-memory baseline's stepper: the parallel
// engine with cfg.Parts rank workers (closed with the test) under the
// scheme, sources and sponge the rank runtime builds. It is composed from
// the lts / newmark / sem calls by hand, not through Spec.NewStepper, so
// the pins compare the rank runtime's build with an independent one.
func newShared(t *testing.T, tc *testConfig) *solver.Stepper {
	t.Helper()
	pop, err := parallel.NewOperator(tc.geom, tc.cfg.Part, tc.cfg.Parts)
	if err != nil {
		t.Fatalf("parallel.NewOperator: %v", err)
	}
	t.Cleanup(pop.Close)
	var sigma []float64
	if sp := tc.cfg.Sponge; sp.Strength > 0 {
		x0, x1, y0, y1, z0, z1 := tc.m.Extent()
		sigma = sem.SpongeProfile(tc.geom.NumNodes(), tc.geom.NodeCoords,
			x0, x1, y0, y1, z0, z1, sp.Faces, sp.Width, sp.Strength)
	}
	if tc.cfg.LTS {
		sch, err := lts.FromMeshLevels(pop, tc.lv, true)
		if err != nil {
			t.Fatalf("lts: %v", err)
		}
		sch.SetSources(tc.srcs)
		sch.Sigma = sigma
		return &solver.Stepper{LTS: sch}
	}
	g := newmark.New(pop, tc.lv.CoarseDt/float64(tc.lv.PMax()))
	g.Sources = tc.srcs
	g.Sigma = sigma
	return &solver.Stepper{Newmark: g, PMax: tc.lv.PMax()}
}

// runShared steps the shared-memory baseline exactly as the rank runtime
// steps, sampled at the configured receivers. Returns per-cycle times and
// samples.
func runShared(t *testing.T, tc *testConfig, cycles int) ([]float64, [][]float64) {
	t.Helper()
	return sampleShared(newShared(t, tc), tc, cycles)
}

func sampleShared(st *solver.Stepper, tc *testConfig, cycles int) ([]float64, [][]float64) {
	var times []float64
	var samples [][]float64
	for c := 0; c < cycles; c++ {
		st.Step()
		u := st.State()
		row := make([]float64, len(tc.cfg.Receivers))
		for i, dof := range tc.cfg.Receivers {
			row[i] = u[dof]
		}
		times = append(times, st.Time())
		samples = append(samples, row)
	}
	return times, samples
}

// runDist runs the distributed backend and returns per-cycle times and
// samples.
func runDist(t *testing.T, tc *testConfig, cycles int, inProcess bool) ([]float64, [][]float64) {
	t.Helper()
	co, err := Start(Config{Run: tc.cfg, InProcess: inProcess})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer func() {
		if err := co.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	owners, err := ReceiverOwnerParts(tc.geom, &tc.cfg)
	if err != nil {
		t.Fatalf("ReceiverOwnerParts: %v", err)
	}
	if err := co.SetReceiverParts(owners); err != nil {
		t.Fatalf("SetReceiverParts: %v", err)
	}
	var times []float64
	var samples [][]float64
	for c := 0; c < cycles; c++ {
		tm, row, err := co.StepCtx(context.Background())
		if err != nil {
			t.Fatalf("Step %d: %v", c, err)
		}
		times = append(times, tm)
		samples = append(samples, append([]float64(nil), row...))
	}
	return times, samples
}

// requireBitwise fails unless two trajectories match bit for bit and
// the reference saw the wave: an all-zero trajectory matches anything
// that also stays at zero, so the comparison would pin nothing.
func requireBitwise(t *testing.T, label string, wantT, gotT []float64, want, got [][]float64) {
	t.Helper()
	if len(wantT) != len(gotT) || len(want) != len(got) {
		t.Fatalf("%s: cycle count mismatch", label)
	}
	if !sawWave(want) {
		t.Fatalf("%s: vacuous reference: no receiver reaches simio.WaveFloor over two nonzero samples", label)
	}
	for c := range want {
		if math.Float64bits(wantT[c]) != math.Float64bits(gotT[c]) {
			t.Fatalf("%s: cycle %d time %v != %v", label, c, gotT[c], wantT[c])
		}
		for i := range want[c] {
			if math.Float64bits(want[c][i]) != math.Float64bits(got[c][i]) {
				t.Fatalf("%s: cycle %d receiver %d: got %v (%#x), want %v (%#x)",
					label, c, i, got[c][i], math.Float64bits(got[c][i]),
					want[c][i], math.Float64bits(want[c][i]))
			}
		}
	}
}

// sawWave reports whether some receiver (a column of rows) recorded the
// wave rather than roundoff (simio.SawWave).
func sawWave(rows [][]float64) bool {
	if len(rows) == 0 {
		return false
	}
	col := make([]float64, len(rows))
	for i := range rows[0] {
		for c, row := range rows {
			col[c] = row[i]
		}
		if simio.SawWave(col) {
			return true
		}
	}
	return false
}

// TestEquivalenceMatrix is the acceptance bar: 2- and 4-rank distributed
// runs produce bitwise-identical seismograms to the shared-memory engine
// with the same decomposition, for both physics and both schemes.
func TestEquivalenceMatrix(t *testing.T) {
	cycles := 4
	rankCounts := []int{2, 4}
	if testing.Short() {
		rankCounts = []int{2}
	}
	for _, physics := range []string{"acoustic", "elastic"} {
		for _, ltsScheme := range []bool{true, false} {
			if testing.Short() && physics == "elastic" && !ltsScheme {
				continue // the slowest corner; covered by the full run
			}
			for _, ranks := range rankCounts {
				name := fmt.Sprintf("%s-lts=%v-ranks=%d", physics, ltsScheme, ranks)
				t.Run(name, func(t *testing.T) {
					tc := newTestConfig(t, physics, ltsScheme, ranks, ranks)
					wantT, want := runShared(t, tc, cycles)
					gotT, got := runDist(t, tc, cycles, true)
					requireBitwise(t, name, wantT, gotT, want, got)
				})
			}
		}
	}
}

// TestRankCountIndependence pins the reproducibility contract: with the
// decomposition width fixed, the seismograms do not depend on how many
// rank processes execute the parts — including the 1-process run.
func TestRankCountIndependence(t *testing.T) {
	const parts, cycles = 4, 3
	base := newTestConfig(t, "acoustic", true, 1, parts)
	wantT, want := runDist(t, base, cycles, true)
	shmT, shm := runShared(t, base, cycles)
	requireBitwise(t, "ranks=1 vs shared-memory", shmT, wantT, shm, want)
	for _, ranks := range []int{2, 4} {
		tc := newTestConfig(t, "acoustic", true, ranks, parts)
		gotT, got := runDist(t, tc, cycles, true)
		requireBitwise(t, fmt.Sprintf("ranks=%d vs ranks=1", ranks), wantT, gotT, want, got)
	}
}

// TestScatteredPartition stresses the halo machinery with a spatially
// scattered (pseudo-random) decomposition: maximal inter-rank surface,
// parts interleaved everywhere, every level exchanging with every rank.
// (The facade-level halo-closure regression lives in
// wave.TestDistributedHaloClosureRegression, at the configuration that
// exposed it.)
func TestScatteredPartition(t *testing.T) {
	tc := newTestConfig(t, "acoustic", true, 2, 2)
	if tc.lv.NumLevels < 2 {
		t.Skip("mesh produced a single level")
	}
	state := uint64(0x9e3779b97f4a7c15)
	for e := range tc.cfg.Part {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		tc.cfg.Part[e] = int32(state % 2)
	}
	wantT, want := runShared(t, tc, 6)
	gotT, got := runDist(t, tc, 6, true)
	requireBitwise(t, "scattered partition", wantT, gotT, want, got)
}

// TestSpawnedProcesses runs the real thing once: rank subprocesses of
// this test binary (via the TestMain RankMain hook), full wire protocol
// across process boundaries.
func TestSpawnedProcesses(t *testing.T) {
	tc := newTestConfig(t, "acoustic", true, 2, 2)
	wantT, want := runShared(t, tc, 3)
	gotT, got := runDist(t, tc, 3, false)
	requireBitwise(t, "spawned", wantT, gotT, want, got)
}

// testSponge absorbs on five faces of the trench (the free surface stays).
var testSponge = solver.Sponge{Width: 0.1, Strength: 50, Faces: [6]bool{true, true, true, true, true, false}}

// TestSpongeEquivalence covers the absorbing-boundary reconstruction on
// the ranks, under both schemes.
func TestSpongeEquivalence(t *testing.T) {
	for _, ltsScheme := range []bool{true, false} {
		name := fmt.Sprintf("lts=%v", ltsScheme)
		t.Run(name, func(t *testing.T) {
			tc := newTestConfig(t, "acoustic", ltsScheme, 2, 2)
			tc.cfg.Sponge = testSponge
			wantT, want := runShared(t, tc, 3)
			gotT, got := runDist(t, tc, 3, true)
			requireBitwise(t, "sponge "+name, wantT, gotT, want, got)
		})
	}
}

// TestStats: the aggregated counters are consistent — every rank applied
// the same number of distributed applies, the scheme work model matches
// the shared-memory scheme, and messages flowed for multi-rank runs.
func TestStats(t *testing.T) {
	tc := newTestConfig(t, "acoustic", true, 2, 2)
	co, err := Start(Config{Run: tc.cfg, InProcess: true})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer co.Close()
	owners, err := ReceiverOwnerParts(tc.geom, &tc.cfg)
	if err != nil {
		t.Fatalf("ReceiverOwnerParts: %v", err)
	}
	if err := co.SetReceiverParts(owners); err != nil {
		t.Fatalf("SetReceiverParts: %v", err)
	}
	for c := 0; c < 3; c++ {
		if _, _, err := co.StepCtx(context.Background()); err != nil {
			t.Fatalf("Step: %v", err)
		}
	}
	stats, err := co.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if len(stats) != 2 {
		t.Fatalf("got %d rank stats", len(stats))
	}
	if stats[0].Cycles != 3 {
		t.Errorf("rank 0 cycles = %d, want 3", stats[0].Cycles)
	}
	for i, st := range stats {
		if st.Applies != stats[0].Applies {
			t.Errorf("rank %d applies = %d, want %d (lockstep)", i, st.Applies, stats[0].Applies)
		}
		if st.ElemApplies != stats[0].ElemApplies {
			t.Errorf("rank %d scheme work %d != rank 0's %d", i, st.ElemApplies, stats[0].ElemApplies)
		}
		if st.Messages == 0 {
			t.Errorf("rank %d sent no halo messages", i)
		}
	}
}

// TestReceiverOwnersCover: every receiver is owned by exactly one valid
// part, and the placement puts that part on a valid rank.
func TestReceiverOwnersCover(t *testing.T) {
	tc := newTestConfig(t, "elastic", true, 3, 3)
	parts, err := ReceiverOwnerParts(tc.geom, &tc.cfg)
	if err != nil {
		t.Fatalf("ReceiverOwnerParts: %v", err)
	}
	if len(parts) != len(tc.cfg.Receivers) {
		t.Fatalf("got %d owner parts for %d receivers", len(parts), len(tc.cfg.Receivers))
	}
	ranks := tc.cfg.partRanks()
	for i, p := range parts {
		if p < 0 || p >= tc.cfg.Parts {
			t.Fatalf("receiver %d owner part %d outside [0,%d)", i, p, tc.cfg.Parts)
		}
		if r := ranks[p]; r < 0 || r >= tc.cfg.Ranks {
			t.Errorf("receiver %d owner part %d placed on rank %d outside [0,%d)", i, p, r, tc.cfg.Ranks)
		}
	}
}

// TestReceiverOwnerPartsDefinition: the one-pass owner search equals its
// definition — decomp.Owners over an all-elements decomposition — at every
// node of a small mesh, under a scattered partition at Parts 2, 3 and 4.
func TestReceiverOwnerPartsDefinition(t *testing.T) {
	tc := newTestConfig(t, "elastic", true, 1, 2)
	nc := tc.geom.Comps()
	rng := rand.New(rand.NewSource(5))
	for _, parts := range []int{2, 3, 4} {
		cfg := tc.cfg
		cfg.Parts = parts
		cfg.Part = make([]int32, tc.geom.NumElements())
		for e := range cfg.Part {
			cfg.Part[e] = int32(rng.Intn(parts))
		}
		cfg.Receivers = make([]int, tc.geom.NumNodes())
		for n := range cfg.Receivers {
			cfg.Receivers[n] = n*nc + n%nc
		}
		got, err := ReceiverOwnerParts(tc.geom, &cfg)
		if err != nil {
			t.Fatalf("parts %d: %v", parts, err)
		}
		dp := decomp.Build(tc.geom, cfg.Part, parts, sem.AllElements(tc.geom))
		want := decomp.Owners(tc.geom.NumNodes(), dp.Touched)
		for n, p := range got {
			if p != int(want[n]) {
				t.Fatalf("parts %d: node %d owned by part %d, definition says %d", parts, n, p, want[n])
			}
		}
	}
}

// TestStartValidation: malformed configurations are rejected before any
// process is spawned.
func TestStartValidation(t *testing.T) {
	tc := newTestConfig(t, "acoustic", true, 2, 2)
	bad := tc.cfg
	bad.Parts = 1 // parts < ranks
	if _, err := Start(Config{Run: bad, InProcess: true}); err == nil {
		t.Error("parts < ranks accepted")
	}
	bad = tc.cfg
	bad.Ranks = 0
	if _, err := Start(Config{Run: bad, InProcess: true}); err == nil {
		t.Error("zero ranks accepted")
	}
	bad = tc.cfg
	bad.Physics = "plasma"
	if _, err := Start(Config{Run: bad, InProcess: true}); err == nil {
		t.Error("unknown physics accepted")
	}
	// Recursive-spawn guard: Start inside a rank environment must refuse.
	t.Setenv(envRank, "0")
	if _, err := Start(Config{Run: tc.cfg, InProcess: true}); err == nil {
		t.Error("Start accepted inside a rank environment")
	}
}

// TestPartRange: the contiguous block mapping covers all parts exactly
// once and keeps each rank's parts consecutive.
func TestPartRange(t *testing.T) {
	for _, tc := range []struct{ parts, ranks int }{
		{1, 1}, {2, 2}, {4, 2}, {5, 2}, {7, 3}, {8, 8}, {9, 4},
	} {
		own := ownerRanks(tc.parts, tc.ranks)
		prev := 0
		for p, r := range own {
			if r < prev {
				t.Errorf("P=%d R=%d: part %d rank %d after rank %d (not ascending)",
					tc.parts, tc.ranks, p, r, prev)
			}
			prev = r
		}
		for r := 0; r < tc.ranks; r++ {
			lo, hi := partRange(r, tc.parts, tc.ranks)
			if hi <= lo {
				t.Errorf("P=%d R=%d: rank %d owns empty part range [%d,%d)", tc.parts, tc.ranks, r, lo, hi)
			}
			for p := lo; p < hi; p++ {
				if own[p] != r {
					t.Errorf("P=%d R=%d: part %d owner %d, range says %d", tc.parts, tc.ranks, p, own[p], r)
				}
			}
		}
	}
}
