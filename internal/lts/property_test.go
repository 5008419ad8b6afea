package lts

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: for random 1-D graded meshes and random consistent level
// assignments, the optimised engine equals the reference engine, and both
// equal the dense no-masking oracle. This sweeps level topologies (fine
// regions at boundaries, adjacent jumps > 1, multiple islands) that the
// hand-written cases may miss.
func TestRandomLevelsEnginesAgreeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ne := 4 + rng.Intn(6)
		maxL := 1 + rng.Intn(3)
		levels := make([]uint8, ne)
		has1 := false
		for i := range levels {
			levels[i] = uint8(1 + rng.Intn(maxL))
			if levels[i] == 1 {
				has1 = true
			}
		}
		if !has1 {
			levels[rng.Intn(ne)] = 1
		}
		nlv := 1
		for _, l := range levels {
			if int(l) > nlv {
				nlv = int(l)
			}
		}
		op, lv, _ := graded1D(levels, 1, 1, 3)
		dt := coarseDt(1, 1, 3)
		u0 := make([]float64, op.NDof())
		for i := range u0 {
			u0[i] = rng.NormFloat64()
		}
		ref, err := New(op, lv, nlv, dt, false)
		if err != nil {
			t.Log(err)
			return false
		}
		opt, err := New(op, lv, nlv, dt, true)
		if err != nil {
			t.Log(err)
			return false
		}
		oracle := newDenseOracle(op, lv, nlv, dt)
		copy(oracle.u, u0)
		if err := ref.SetInitial(u0, make([]float64, op.NDof())); err != nil {
			return false
		}
		if err := opt.SetInitial(u0, make([]float64, op.NDof())); err != nil {
			return false
		}
		for n := 0; n < 6; n++ {
			ref.Step()
			opt.Step()
			oracle.step()
		}
		scale := 1.0
		for _, v := range oracle.u {
			scale = math.Max(scale, math.Abs(v))
		}
		return maxAbsDiff(ref.U, oracle.u) < 1e-9*scale &&
			maxAbsDiff(opt.U, oracle.u) < 1e-9*scale &&
			maxAbsDiff(opt.V, ref.V) < 1e-9*scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: work accounting identities hold for random level assignments:
// ideal <= actual <= non-LTS, and the model speedup matches Eq. 9 computed
// directly.
func TestWorkIdentitiesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ne := 4 + rng.Intn(12)
		levels := make([]uint8, ne)
		levels[0] = 1
		maxL := 1 + rng.Intn(4)
		for i := 1; i < ne; i++ {
			levels[i] = uint8(1 + rng.Intn(maxL))
		}
		nlv := 1
		for _, l := range levels {
			if int(l) > nlv {
				nlv = int(l)
			}
		}
		op, lv, _ := graded1D(levels, 1, 1, 2)
		s, err := New(op, lv, nlv, 0.01, true)
		if err != nil {
			return false
		}
		ideal := s.IdealElemStepsPerCycle()
		actual := s.ActualElemStepsPerCycle()
		non := s.NonLTSElemStepsPerCycle()
		if !(ideal <= actual && actual <= non*int64(nlv)) {
			return false
		}
		// Eq. 9 directly.
		var sum int64
		for _, l := range levels {
			sum += int64(1) << (l - 1)
		}
		pmax := int64(1) << (nlv - 1)
		want := float64(pmax*int64(ne)) / float64(sum)
		return math.Abs(s.ModelSpeedup()-want) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: the active sets partition correctly — every node appears in
// exactly one levelNodes list and one stepNodesAt list, and stepLvl >=
// nodeLevel.
func TestSetInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ne := 3 + rng.Intn(10)
		levels := make([]uint8, ne)
		levels[0] = 1
		for i := 1; i < ne; i++ {
			levels[i] = uint8(1 + rng.Intn(4))
		}
		nlv := 1
		for _, l := range levels {
			if int(l) > nlv {
				nlv = int(l)
			}
		}
		op, lv, _ := graded1D(levels, 1, 1, 2)
		st, err := buildSets(op, lv, nlv, true)
		if err != nil {
			return false
		}
		nn := op.NumNodes()
		seenL := make([]int, nn)
		seenS := make([]int, nn)
		for li := 0; li < nlv; li++ {
			for _, n := range st.levelNodes[li] {
				seenL[n]++
			}
			for _, n := range st.stepNodesAt[li] {
				seenS[n]++
			}
		}
		for n := 0; n < nn; n++ {
			if seenL[n] != 1 || seenS[n] != 1 {
				return false
			}
			if st.stepLvl[n] < st.nodeLevel[n] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
