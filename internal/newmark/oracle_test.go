package newmark

import (
	"math"
	"testing"

	"golts/internal/mesh"
	"golts/internal/sem"
	"golts/internal/simio"
)

// gaussianPulse is a smooth single-signed source time function, the
// formula of the sem package's test-only GaussianPulse: both sides of the
// oracle comparison inject it.
type gaussianPulse struct {
	T0, Sigma, Scale float64
}

func (g gaussianPulse) Amp(t float64) float64 {
	s := g.Scale
	if s == 0 {
		s = 1
	}
	d := (t - g.T0) / g.Sigma
	return s * math.Exp(-d*d/2)
}

// fivePass is the oracle: the global Newmark step as five separate
// NDof-long passes after the stiffness batch — clear accel, scale by
// -M⁻¹, add M⁻¹F(t) source by source, kick V then apply the sponge, drift
// U. Stepper.Step fuses them into one sweep and must reproduce these bits.
type fivePass struct {
	op      sem.BatchKernel
	plan    sem.BatchPlan
	scr     sem.BatchScratch
	dt      float64
	sources []sem.Source
	sigma   []float64

	u, v, a []float64
	t       float64
	started bool
}

func newFivePass(op sem.BatchKernel, dt float64) *fivePass {
	n := op.NDof()
	return &fivePass{
		op: op, plan: op.NewBatchPlan(sem.AllElements(op)), dt: dt,
		u: make([]float64, n), v: make([]float64, n), a: make([]float64, n),
	}
}

func (o *fivePass) step() {
	a := o.a
	for i := range a {
		a[i] = 0
	}
	o.op.AddKuBatch(a, o.u, o.plan, &o.scr)
	minv := o.op.MInv()
	nc := o.op.Comps()
	for n := 0; n < o.op.NumNodes(); n++ {
		mi := minv[n]
		for c := 0; c < nc; c++ {
			a[n*nc+c] *= -mi
		}
	}
	for _, s := range o.sources {
		a[s.Dof] += s.W.Amp(o.t) * minv[s.Dof/nc]
	}
	dt := o.dt
	if !o.started {
		for i := range o.v {
			o.v[i] += dt / 2 * a[i]
		}
		o.started = true
	} else {
		for i := range o.v {
			o.v[i] += dt * a[i]
		}
	}
	for n, sg := range o.sigma {
		if sg == 0 {
			continue
		}
		f := 1 / (1 + sg*dt)
		for c := 0; c < nc; c++ {
			o.v[n*nc+c] *= f
		}
	}
	for i := range o.u {
		o.u[i] += dt * o.v[i]
	}
	o.t += dt
}

// oracleCase is a small 3-D operator with three sources (two of them, with
// different wavelets, on the same dof), a sponge over the x < 0.4 slab and
// a receiver dof outside both source nodes.
type oracleCase struct {
	name    string
	op      sem.BatchKernel
	sources []sem.Source
	sigma   []float64
	rec     int
}

func oracleCases(t *testing.T) []oracleCase {
	t.Helper()
	m := mesh.Uniform(3, 3, 3, 1.0/3, 1)
	ac, err := sem.NewAcoustic3D(m, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	el, err := sem.NewElastic3D(m, 3, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	type placed interface {
		sem.BatchKernel
		NearestNode(x, y, z float64) int32
		NodeCoords(n int32) (x, y, z float64)
	}
	mk := func(name string, op placed, comp int) oracleCase {
		nc := op.Comps()
		d0 := int(op.NearestNode(0.5, 0.5, 0.5))*nc + comp
		d1 := int(op.NearestNode(0.3, 0.6, 0.5)) * nc
		c := oracleCase{
			name: name, op: op,
			sources: []sem.Source{
				{Dof: d0, W: sem.Ricker{F0: 6, T0: 0.2}},
				{Dof: d1, W: sem.Ricker{F0: 5, T0: 0.25, Scale: 0.5}},
				{Dof: d0, W: gaussianPulse{T0: 0.1, Sigma: 0.05, Scale: 0.3}},
			},
			sigma: make([]float64, op.NumNodes()),
			rec:   int(op.NearestNode(0.7, 0.4, 0.6))*nc + comp,
		}
		for n := range c.sigma {
			if x, _, _ := op.NodeCoords(int32(n)); x < 0.4 {
				c.sigma[n] = 20 * (0.4 - x)
			}
		}
		return c
	}
	return []oracleCase{mk("acoustic", ac, 0), mk("elastic", el, 2)}
}

// TestStepMatchesFivePassOracle pins the one-sweep Step against the
// five-pass oracle by Float64bits of U and V after every step, from the
// first half-step on. The receiver trace must clear the non-vacuity floor
// (simio.SawWave) before the comparison counts.
func TestStepMatchesFivePassOracle(t *testing.T) {
	const steps = 40
	for _, c := range oracleCases(t) {
		dt := 0.5 * EstimateCriticalDt(c.op, 60)
		t.Run(c.name, func(t *testing.T) {
			s := New(c.op, dt)
			s.Sources, s.Sigma = c.sources, c.sigma
			o := newFivePass(c.op, dt)
			o.sources, o.sigma = c.sources, c.sigma
			trace := make([]float64, 0, steps)
			for n := 1; n <= steps; n++ {
				s.Step()
				o.step()
				sameBits(t, n, "U", s.U, o.u)
				sameBits(t, n, "V", s.V, o.v)
				trace = append(trace, s.U[c.rec])
			}
			if !simio.SawWave(trace) {
				t.Fatal("receiver trace below simio.WaveFloor over two nonzero samples: the comparison is vacuous")
			}
		})
	}
}

func sameBits(t *testing.T, step int, name string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("step %d: %s[%d] = %v, oracle %v (bitwise)", step, name, i, got[i], want[i])
		}
	}
}

// TestAccelZeroBetweenSteps interleaves Energy, ConservedEnergy and a
// View + Restore between steps: the run must match an uninterrupted one
// bit for bit, i.e. every diagnostic leaves the acceleration buffer zero.
func TestAccelZeroBetweenSteps(t *testing.T) {
	c := oracleCases(t)[1]
	dt := 0.5 * EstimateCriticalDt(c.op, 60)
	mk := func() *Stepper {
		s := New(c.op, dt)
		s.Sources, s.Sigma = c.sources, c.sigma
		return s
	}
	ref, s := mk(), mk()
	for n := 1; n <= 30; n++ {
		ref.Step()
		switch n % 3 {
		case 0:
			s.Energy()
		case 1:
			s.ConservedEnergy()
		case 2:
			if err := s.Restore(saved(s.View())); err != nil {
				t.Fatal(err)
			}
		}
		s.Step()
		sameBits(t, n, "U", s.U, ref.U)
		sameBits(t, n, "V", s.V, ref.V)
	}
	for i, a := range s.accel {
		if a != 0 {
			t.Fatalf("accel[%d] = %v after a step, want 0", i, a)
		}
	}
}
