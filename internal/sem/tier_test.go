package sem

import (
	"slices"
	"strings"
	"testing"

	"golts/internal/race"
)

// forceTier forces the named SIMD tier for the duration of the test.
func forceTier(t *testing.T, name string) {
	t.Helper()
	restore, err := ForceSIMDTier(name)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(restore)
}

// tierCase is one subtest of the cross-tier tests: the name it runs under
// and the tier it forces.
type tierCase struct{ name, tier string }

// tierCases lists the cross-tier subtests, widest first: every usable
// assembly tier, then the CPU classes that dispatch a tier named
// otherwise (cpuClasses), then the go tier.
func tierCases() []tierCase {
	tiers := SIMDTiers()
	var cs []tierCase
	for _, tier := range tiers[:len(tiers)-1] {
		cs = append(cs, tierCase{tier, tier})
	}
	cs = append(cs, cpuClasses()...)
	return append(cs, tierCase{"go", "go"})
}

// TestSIMDTierSemantics checks the dispatch bookkeeping: the usable-tier
// list shape, ForceSIMDTier errors, and restore behaviour.
func TestSIMDTierSemantics(t *testing.T) {
	tiers := SIMDTiers()
	if len(tiers) == 0 || tiers[len(tiers)-1] != "go" {
		t.Fatalf("SIMDTiers() = %v, want non-empty list ending in \"go\"", tiers)
	}
	if got := ActiveSIMDTier(); got != tiers[0] {
		t.Fatalf("ActiveSIMDTier() = %q, want widest usable tier %q", got, tiers[0])
	}
	if _, err := ForceSIMDTier("avx1024"); err == nil || !strings.Contains(err.Error(), "unknown SIMD tier") {
		t.Fatalf("ForceSIMDTier(avx1024) = %v, want the unknown-tier error", err)
	}
	// The ladder is avx512 → avx2 → go: the usable list is an ordered
	// subset of it.
	known := KnownSIMDTiers()
	if !slices.Equal(known, []string{"avx512", "avx2", "go"}) {
		t.Fatalf("KnownSIMDTiers() = %v, want [avx512 avx2 go]", known)
	}
	for i, j := 0, 0; i < len(tiers); i, j = i+1, j+1 {
		for j < len(known) && known[j] != tiers[i] {
			j++
		}
		if j == len(known) {
			t.Fatalf("SIMDTiers() = %v, want an ordered subset of %v", tiers, known)
		}
	}
	usable := map[string]bool{}
	for _, name := range tiers {
		usable[name] = true
	}
	for _, name := range known {
		if usable[name] {
			continue
		}
		if _, err := ForceSIMDTier(name); err == nil {
			t.Fatalf("ForceSIMDTier(%q) succeeded but the tier is not usable", name)
		}
	}
	prev := ActiveSIMDTier()
	restore, err := ForceSIMDTier("go")
	if err != nil {
		t.Fatal(err)
	}
	if got := ActiveSIMDTier(); got != "go" {
		restore()
		t.Fatalf("after ForceSIMDTier(go): ActiveSIMDTier() = %q", got)
	}
	restore()
	if got := ActiveSIMDTier(); got != prev {
		t.Fatalf("restore left tier %q, want %q", got, prev)
	}
}

// TestMul5PropertyAllTiers sweeps the mm5 microkernels across every
// usable tier against the pure-Go references, over small n (scalar-tail
// heavy) and odd block counts so the ragged-tail and block-advance logic
// of each vector width is exercised.
func TestMul5PropertyAllTiers(t *testing.T) {
	d := make([]float64, 25)
	randFill(d, 11)
	ns := []int{1, 2, 3, 4, 5, 6, 8, 13, 40, 200}
	blockCounts := []int{1, 3, 7, 17}
	for _, tc := range tierCases() {
		t.Run(tc.name, func(t *testing.T) {
			forceTier(t, tc.tier)
			for _, n := range ns {
				for _, blocks := range blockCounts {
					src := make([]float64, 5*n*blocks)
					randFill(src, uint64(31*n+blocks))
					want := make([]float64, len(src))
					got := make([]float64, len(src))
					mm5go(want, src, d, n, blocks)
					mul5(got, src, d, n, blocks)
					for i := range want {
						if want[i] != got[i] {
							t.Fatalf("mul5 n=%d blocks=%d idx=%d: got %v want %v", n, blocks, i, got[i], want[i])
						}
					}
					randFill(want, uint64(7*n+blocks))
					copy(got, want)
					mm5accgo(want, src, d, n, blocks)
					mul5acc(got, src, d, n, blocks)
					for i := range want {
						if want[i] != got[i] {
							t.Fatalf("mul5acc n=%d blocks=%d idx=%d: got %v want %v", n, blocks, i, got[i], want[i])
						}
					}
				}
			}
		})
	}
}

// TestStress8AllTiers pins the two deg=4 pointwise passes bitwise
// against their pure-Go references under every usable tier.
func TestStress8AllTiers(t *testing.T) {
	const pb = 125 * batchB
	w := make([]float64, 250)
	randPos(w, 13)
	for _, tc := range tierCases() {
		t.Run(tc.name, func(t *testing.T) {
			forceTier(t, tc.tier)
			t.Run("elastic", func(t *testing.T) {
				cst := make([]float64, elCstRows*batchB)
				randPos(cst, 14)
				want := make([]float64, 9*pb)
				randFill(want, 15)
				got := append([]float64(nil), want...)
				elStressN(want, cst, w, 125)
				elStress8(got, cst, w)
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("idx %d: got %v want %v", i, got[i], want[i])
					}
				}
			})
			t.Run("acoustic", func(t *testing.T) {
				cst := make([]float64, acCstRows*batchB)
				randPos(cst, 16)
				want := make([]float64, 3*pb)
				randFill(want, 17)
				got := append([]float64(nil), want...)
				acStressN(want, cst, w, 125)
				acStress8(got, cst, w)
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("idx %d: got %v want %v", i, got[i], want[i])
					}
				}
			})
		})
	}
}

// TestAddKuBatchTiersBitwise runs the full batched stiffness application
// at deg=4 (the degree that hits all four dispatched primitives) under
// every usable tier and requires the outputs to be bitwise identical to
// the go-tier result.
func TestAddKuBatchTiersBitwise(t *testing.T) {
	m := batchMesh(t)
	for _, tc := range batchOps(t, m, 4, false) {
		nd := tc.op.NDof()
		u := make([]float64, nd)
		pseudoField(u)
		base := make([]float64, nd)
		randFill(base, 23)
		plan := tc.op.NewBatchPlan(AllElements(tc.op))
		var bs BatchScratch
		want := make([]float64, nd)
		{
			restore, err := ForceSIMDTier("go")
			if err != nil {
				t.Fatal(err)
			}
			copy(want, base)
			tc.op.AddKuBatch(want, u, plan, &bs)
			restore()
		}
		for _, tier := range SIMDTiers() {
			restore, err := ForceSIMDTier(tier)
			if err != nil {
				t.Fatal(err)
			}
			got := append([]float64(nil), base...)
			tc.op.AddKuBatch(got, u, plan, &bs)
			restore()
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("%s tier=%s dof=%d: %v != go-tier %v", tc.name, tier, i, got[i], want[i])
				}
			}
		}
	}
}

// TestAddKuBatchZeroAllocsAllTiers extends the zero-allocation pin — on
// the same ragged 36-element plan — to every usable tier, including the
// pure-Go fallback entries.
func TestAddKuBatchZeroAllocsAllTiers(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector instrumentation allocates")
	}
	m := batchMesh(t)
	for _, tier := range tierCases() {
		t.Run(tier.name, func(t *testing.T) {
			forceTier(t, tier.tier)
			for _, tc := range batchOps(t, m, 4, false) {
				u := make([]float64, tc.op.NDof())
				pseudoField(u)
				dst := make([]float64, tc.op.NDof())
				plan := tc.op.NewBatchPlan(AllElements(tc.op))
				var bs BatchScratch
				tc.op.AddKuBatch(dst, u, plan, &bs) // warm the arena
				if n := testing.AllocsPerRun(5, func() {
					tc.op.AddKuBatch(dst, u, plan, &bs)
				}); n != 0 {
					t.Errorf("%s tier=%s: AddKuBatch allocates %v per op, want 0", tc.name, tier.name, n)
				}
			}
		})
	}
}

// TestSIMDCap checks the GODEBUG ladder parsing (amd64 builds; the
// noasm build has no cap to parse).
func TestSIMDCap(t *testing.T) {
	testSIMDCap(t)
}
