package partition

import (
	"math/rand"
	"testing"

	"golts/internal/graph"
	"golts/internal/hypergraph"
	"golts/internal/mesh"
)

func trenchFixture(scale float64) (*mesh.Mesh, *mesh.Levels) {
	m := mesh.Trench(scale)
	lv := mesh.AssignLevels(m, 0.4, 0)
	return m, lv
}

func checkValidPartition(t *testing.T, part []int32, n, k int) {
	t.Helper()
	if len(part) != n {
		t.Fatalf("partition has %d entries for %d elements", len(part), n)
	}
	counts := make([]int, k)
	for e, p := range part {
		if p < 0 || int(p) >= k {
			t.Fatalf("element %d in part %d (K=%d)", e, p, k)
		}
		counts[p]++
	}
	for p, c := range counts {
		if c == 0 {
			t.Errorf("part %d is empty", p)
		}
	}
}

func TestAllMethodsProduceValidPartitions(t *testing.T) {
	m, lv := trenchFixture(0.02)
	for _, method := range Methods {
		for _, k := range []int{2, 4, 7, 16} {
			res, err := PartitionMesh(m, lv, Options{K: k, Method: method, Seed: 1})
			if err != nil {
				t.Fatalf("%s K=%d: %v", method, k, err)
			}
			checkValidPartition(t, res.Part, m.NumElements(), k)
		}
	}
}

func TestPartitionErrors(t *testing.T) {
	m, lv := trenchFixture(0.02)
	if _, err := PartitionMesh(m, lv, Options{K: 0, Method: Scotch}); err == nil {
		t.Error("expected error for K=0")
	}
	if _, err := PartitionMesh(m, lv, Options{K: 2, Method: "bogus"}); err == nil {
		t.Error("expected error for unknown method")
	}
}

func TestSingleConstraintBalancesTotalWork(t *testing.T) {
	m, lv := trenchFixture(0.05)
	res, err := PartitionMesh(m, lv, Options{K: 8, Method: Scotch, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	mt := Evaluate(m, lv, res.Part, 8)
	if mt.TotalImbalance > 25 {
		t.Errorf("scotch total imbalance %.1f%% too high", mt.TotalImbalance)
	}
}

// TestScotchBaselineUnbalancedPerLevel reproduces the paper's central
// observation (Fig. 1, Fig. 6): the single-constraint baseline balances
// total work but leaves individual p-levels badly unbalanced, while the
// LTS-aware methods balance every level.
func TestScotchBaselineUnbalancedPerLevel(t *testing.T) {
	m, lv := trenchFixture(0.1)
	base, err := PartitionMesh(m, lv, Options{K: 8, Method: Scotch, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	mb := Evaluate(m, lv, base.Part, 8)
	for _, method := range []Method{ScotchP, Patoh} {
		res, err := PartitionMesh(m, lv, Options{K: 8, Method: method, Seed: 3, Imbalance: 0.02})
		if err != nil {
			t.Fatal(err)
		}
		ma := Evaluate(m, lv, res.Part, 8)
		if ma.MaxLevelImbalance >= mb.MaxLevelImbalance {
			t.Errorf("%s max level imbalance %.1f%% not better than baseline %.1f%%",
				method, ma.MaxLevelImbalance, mb.MaxLevelImbalance)
		}
		if ma.MaxLevelImbalance > 40 {
			t.Errorf("%s max level imbalance %.1f%% too high", method, ma.MaxLevelImbalance)
		}
	}
}

func TestScotchPBalancesEachLevelTightly(t *testing.T) {
	m, lv := trenchFixture(0.1)
	res, err := PartitionMesh(m, lv, Options{K: 16, Method: ScotchP, Seed: 4, Imbalance: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	mt := Evaluate(m, lv, res.Part, 16)
	// The paper's Fig. 7 reports ~6% for SCOTCH-P; allow headroom for our
	// smaller meshes.
	if mt.MaxLevelImbalance > 35 {
		t.Errorf("scotch-p max level imbalance %.1f%%", mt.MaxLevelImbalance)
	}
}

// TestPatohImbalanceKnob: tightening final_imbal must improve (or at least
// not worsen) balance, the paper's PaToH 0.05 vs 0.01 comparison.
func TestPatohImbalanceKnob(t *testing.T) {
	m, lv := trenchFixture(0.1)
	loose, err := PartitionMesh(m, lv, Options{K: 16, Method: Patoh, Seed: 5, Imbalance: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := PartitionMesh(m, lv, Options{K: 16, Method: Patoh, Seed: 5, Imbalance: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	ml := Evaluate(m, lv, loose.Part, 16)
	mt := Evaluate(m, lv, tight.Part, 16)
	if mt.TotalImbalance > ml.TotalImbalance+10 {
		t.Errorf("tight imbalance %.1f%% much worse than loose %.1f%%",
			mt.TotalImbalance, ml.TotalImbalance)
	}
}

func TestBisectGraphBalance(t *testing.T) {
	m, lv := trenchFixture(0.02)
	g := graph.FromMeshDual(m, lv, false)
	rng := rand.New(rand.NewSource(6))
	part := bisect(graphModel{g}, [2]float64{0.5, 0.5}, 0.05, rng)
	var w [2]int64
	for v := 0; v < g.N; v++ {
		w[part[v]] += int64(g.VW[0][v])
	}
	total := w[0] + w[1]
	dev := float64(w[0]-w[1]) / float64(total)
	if dev < 0 {
		dev = -dev
	}
	if dev > 0.08 {
		t.Errorf("bisection deviation %.3f from 50/50", dev)
	}
	// The cut should be far below the total edge weight (a random split
	// would cut ~half).
	var totalEW int64
	for _, w := range g.EW {
		totalEW += int64(w)
	}
	totalEW /= 2
	cut := g.EdgeCut(toInt32(part))
	if cut*4 > totalEW {
		t.Errorf("bisection cut %d not much better than total %d", cut, totalEW)
	}
}

func toInt32(p []int8) []int32 {
	out := make([]int32, len(p))
	for i, v := range p {
		out[i] = int32(v)
	}
	return out
}

func TestBisectHypergraphBalance(t *testing.T) {
	m, lv := trenchFixture(0.02)
	h := hypergraph.FromMesh(m, lv)
	rng := rand.New(rand.NewSource(7))
	part := bisect(&netModel{h: h}, [2]float64{0.5, 0.5}, 0.05, rng)
	// Per-level balance within tolerance-ish.
	nc := len(h.VW)
	for c := 0; c < nc; c++ {
		var w [2]int64
		for v := 0; v < h.NV; v++ {
			w[part[v]] += int64(h.VW[c][v])
		}
		total := w[0] + w[1]
		if total == 0 {
			continue
		}
		dev := float64(w[0]-w[1]) / float64(total)
		if dev < 0 {
			dev = -dev
		}
		if dev > 0.25 {
			t.Errorf("constraint %d deviation %.3f", c, dev)
		}
	}
}

// TestHypergraphBeatsGraphOnVolume: the PaToH-style partitioner optimises
// true communication volume, so on average it should not lose badly to the
// edge-cut-driven multi-constraint partitioner on that metric (paper Fig.
// 8 shows PaToH winning MPI volume while losing graph cut).
func TestHypergraphVolumeCompetitive(t *testing.T) {
	m, lv := trenchFixture(0.1)
	pat, err := PartitionMesh(m, lv, Options{K: 16, Method: Patoh, Seed: 8, Imbalance: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	met, err := PartitionMesh(m, lv, Options{K: 16, Method: Metis, Seed: 8, Imbalance: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	vp := Evaluate(m, lv, pat.Part, 16).CommVolume
	vm := Evaluate(m, lv, met.Part, 16).CommVolume
	if float64(vp) > 1.3*float64(vm) {
		t.Errorf("patoh volume %d much worse than metis %d", vp, vm)
	}
}

func TestEvaluateMetricsConsistency(t *testing.T) {
	m, lv := trenchFixture(0.02)
	res, err := PartitionMesh(m, lv, Options{K: 4, Method: ScotchP, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	mt := Evaluate(m, lv, res.Part, 4)
	var total int64
	for _, l := range mt.Loads {
		total += l
	}
	if total != lv.WorkPerCycle() {
		t.Errorf("loads sum %d != work per cycle %d", total, lv.WorkPerCycle())
	}
	if len(mt.PerLevelImbalance) != lv.NumLevels {
		t.Errorf("per-level imbalance has %d entries", len(mt.PerLevelImbalance))
	}
	if mt.CommVolume <= 0 || mt.GraphCut <= 0 {
		t.Errorf("metrics zero: cut=%d vol=%d", mt.GraphCut, mt.CommVolume)
	}
}

func TestImbalancePct(t *testing.T) {
	if got := imbalancePct([]int64{10, 10, 10}); got != 0 {
		t.Errorf("uniform imbalance %v", got)
	}
	if got := imbalancePct([]int64{5, 10}); got != 50 {
		t.Errorf("imbalance %v, want 50", got)
	}
	if got := imbalancePct(nil); got != 0 {
		t.Errorf("empty imbalance %v", got)
	}
	if got := imbalancePct([]int64{0, 0}); got != 0 {
		t.Errorf("zero imbalance %v", got)
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	m, lv := trenchFixture(0.02)
	a, _ := PartitionMesh(m, lv, Options{K: 8, Method: Patoh, Seed: 42})
	b, _ := PartitionMesh(m, lv, Options{K: 8, Method: Patoh, Seed: 42})
	for i := range a.Part {
		if a.Part[i] != b.Part[i] {
			t.Fatal("same seed produced different partitions")
		}
	}
}

func BenchmarkPartitionTrenchK16(b *testing.B) {
	m, lv := trenchFixture(0.05)
	for _, method := range Methods {
		b.Run(string(method), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := PartitionMesh(m, lv, Options{K: 16, Method: method, Seed: int64(i)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
