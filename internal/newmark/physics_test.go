package newmark

import (
	"math"
	"testing"

	"golts/internal/sem"
)

// TestInterfaceReflectionCoefficient: quantitative validation of
// heterogeneous materials. A rightward pulse hitting an impedance contrast
// Z = ρc reflects with amplitude R = (Z1 - Z2)/(Z1 + Z2) and transmits
// with T = 2 Z1/(Z1 + Z2) (displacement convention, normal incidence).
func TestInterfaceReflectionCoefficient(t *testing.T) {
	const (
		l   = 20.0
		ne  = 200
		c1  = 1.0
		c2  = 2.0
		rho = 1.0
	)
	xc := make([]float64, ne+1)
	cs := make([]float64, ne)
	rh := make([]float64, ne)
	for i := range xc {
		xc[i] = l * float64(i) / float64(ne)
	}
	for i := range cs {
		rh[i] = rho
		if xc[i] < l/2 {
			cs[i] = c1
		} else {
			cs[i] = c2
		}
	}
	op, err := sem.NewOp1D(xc, cs, rh, 4, sem.FreeBC, sem.FreeBC)
	if err != nil {
		t.Fatal(err)
	}
	dt := 0.2 * (l / ne) / c2 / 16
	s := New(op, dt)
	// Rightward-travelling Gaussian: u = f(x - c t), v = -c f'(x).
	u0 := make([]float64, op.NDof())
	v0 := make([]float64, op.NDof())
	const x0, w = 5.0, 0.5
	for i := range u0 {
		x := op.NodeX(i)
		u0[i] = math.Exp(-(x - x0) * (x - x0) / (2 * w * w))
		v0[i] = c1 * (x - x0) / (w * w) * u0[i]
	}
	if err := s.SetInitial(u0, v0); err != nil {
		t.Fatal(err)
	}
	// Run until the pulse has split at the interface: it needs 5 units to
	// reach x=10, then ~3 more to separate.
	for s.Time() < 7.5 {
		s.Step()
	}
	// Reflected peak in x < 10 (travelling left), transmitted in x > 10.
	var refl, trans float64
	for i := range s.U {
		x := op.NodeX(i)
		a := math.Abs(s.U[i])
		if x < l/2-1 && a > refl {
			refl = a
		}
		if x > l/2+1 && a > trans {
			trans = a
		}
	}
	z1, z2 := rho*c1, rho*c2
	wantR := math.Abs(z1-z2) / (z1 + z2) // 1/3
	wantT := 2 * z1 / (z1 + z2)          // 2/3
	if math.Abs(refl-wantR) > 0.05*wantR {
		t.Errorf("reflection amplitude %.4f, want %.4f (Z contrast)", refl, wantR)
	}
	if math.Abs(trans-wantT) > 0.05*wantT {
		t.Errorf("transmission amplitude %.4f, want %.4f", trans, wantT)
	}
}

// TestAttenuationOffConservesEnergy: without attenuation or sponge the
// unforced scheme conserves its discrete energy to roundoff.
func TestAttenuationOffConservesEnergy(t *testing.T) {
	op := uniform1D(10, 1, 1, 4)
	s := New(op, 1e-4)
	u0 := make([]float64, op.NDof())
	for i := range u0 {
		u0[i] = math.Sin(2 * math.Pi * op.NodeX(i))
	}
	if err := s.SetInitial(u0, make([]float64, op.NDof())); err != nil {
		t.Fatal(err)
	}
	s.Step()
	e0 := s.ConservedEnergy()
	s.Run(500)
	if math.Abs(s.ConservedEnergy()-e0) > 1e-10*e0 {
		t.Errorf("energy drifted without attenuation")
	}
}
