package sem

import (
	"testing"
)

// randFill fills v with a deterministic pseudo-random field in (-1, 1),
// offset by seed so distinct buffers differ.
func randFill(v []float64, seed uint64) {
	s := seed*2654435761 + 12345
	for i := range v {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		v[i] = float64(int64(s)) / float64(1<<63)
	}
}

// randPos fills v with positive values in (0.5, 1.5).
func randPos(v []float64, seed uint64) {
	randFill(v, seed)
	for i := range v {
		v[i] = 1 + v[i]/2
	}
}

// TestMul5MatchesReference pins the dispatch microkernels (asm on amd64)
// bitwise against the pure-Go references for row lengths exercising the
// quad, pair and scalar-tail loops.
func TestMul5MatchesReference(t *testing.T) {
	d := make([]float64, 25)
	randFill(d, 1)
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 13, 40, 200} {
		for _, blocks := range []int{1, 2, 25} {
			src := make([]float64, 5*n*blocks)
			randFill(src, uint64(n))
			want := make([]float64, len(src))
			got := make([]float64, len(src))
			mm5go(want, src, d, n, blocks)
			mul5(got, src, d, n, blocks)
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("mul5 n=%d blocks=%d idx=%d: got %v want %v", n, blocks, i, got[i], want[i])
				}
			}
			randFill(want, uint64(7*n))
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
}

// TestStress8MatchesReference pins the two deg=4 pointwise passes (asm
// on amd64) bitwise against their generic pure-Go references.
func TestStress8MatchesReference(t *testing.T) {
	const pb = 125 * batchB
	w := make([]float64, 250)
	randPos(w, 3)
	t.Run("elastic", func(t *testing.T) {
		cst := make([]float64, elCstRows*batchB)
		randPos(cst, 4)
		want := make([]float64, 9*pb)
		randFill(want, 5)
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
		randPos(cst, 6)
		want := make([]float64, 3*pb)
		randFill(want, 7)
		got := append([]float64(nil), want...)
		acStressN(want, cst, w, 125)
		acStress8(got, cst, w)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("idx %d: got %v want %v", i, got[i], want[i])
			}
		}
	})
}
