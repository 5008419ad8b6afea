package sem

import (
	"math"
	"testing"

	"golts/internal/mesh"
)

// GaussianPulse is a smooth single-signed pulse, useful for travel-time
// tests.
type GaussianPulse struct {
	T0, Sigma, Scale float64
}

// Amp evaluates the pulse.
func (g GaussianPulse) Amp(t float64) float64 {
	s := g.Scale
	if s == 0 {
		s = 1
	}
	d := (t - g.T0) / g.Sigma
	return s * math.Exp(-d*d/2)
}

func TestGaussianPulse(t *testing.T) {
	g := GaussianPulse{T0: 1, Sigma: 0.2}
	if got := g.Amp(1); math.Abs(got-1) > 1e-12 {
		t.Errorf("peak %v, want 1", got)
	}
	if got := g.Amp(1.2); math.Abs(got-math.Exp(-0.5)) > 1e-12 {
		t.Errorf("one sigma %v, want %v", got, math.Exp(-0.5))
	}
	g2 := GaussianPulse{T0: 0, Sigma: 1, Scale: 3}
	if got := g2.Amp(0); math.Abs(got-3) > 1e-12 {
		t.Errorf("scaled peak %v, want 3", got)
	}
}

func TestReceiverFirstArrivalEmpty(t *testing.T) {
	r := &Receiver{Dof: 0}
	if r.FirstArrival(0.5) != 0 || r.PeakTime() != 0 {
		t.Error("empty receiver should report 0")
	}
	r.Record(1, []float64{0})
	if r.FirstArrival(0.5) != 0 {
		t.Error("all-zero trace should report 0")
	}
}

func TestEnergySkipsFixedNodes(t *testing.T) {
	op := uniform1D(4, 1, 1, 3, FixedBC, FixedBC)
	u := make([]float64, op.NDof())
	v := make([]float64, op.NDof())
	// Large velocity at fixed nodes must not contribute kinetic energy.
	v[0] = 1e9
	v[op.NumNodes()-1] = 1e9
	e := Energy(op, u, v, AllElements(op), nil)
	if e != 0 {
		t.Errorf("fixed-node energy leak: %v", e)
	}
}

func TestElastic3DNodeCoords(t *testing.T) {
	op := mustElastic(mustMesh(t), 2, false)
	x, y, z := op.NodeCoords(0)
	if x != 0 || y != 0 || z != 0 {
		t.Errorf("node 0 at (%v,%v,%v)", x, y, z)
	}
	last := int32(op.NumNodes() - 1)
	x, y, z = op.NodeCoords(last)
	if math.Abs(x-2) > 1e-12 || math.Abs(y-2) > 1e-12 || math.Abs(z-2) > 1e-12 {
		t.Errorf("last node at (%v,%v,%v), want (2,2,2)", x, y, z)
	}
	// Lame parameters: Poisson solid default has lambda = mu.
	lam, mu := op.Lame(0)
	if math.Abs(lam-mu) > 1e-9 {
		t.Errorf("Poisson solid should have lambda = mu: %v vs %v", lam, mu)
	}
}

func TestOperatorStringers(t *testing.T) {
	m := mustMesh(t)
	a := mustAcoustic(m, 2, true)
	e := mustElastic(m, 2, false)
	if a.String() == "" || e.String() == "" {
		t.Error("empty String()")
	}
}

func mustMesh(t testing.TB) *mesh.Mesh {
	t.Helper()
	return mesh.Uniform(2, 2, 2, 1, 1)
}
