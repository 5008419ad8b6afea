package newmark

import (
	"math"
	"testing"

	"golts/internal/mesh"
	"golts/internal/sem"
)

func uniform1D(ne int, l, c float64, deg int) *sem.Op1D {
	xc := make([]float64, ne+1)
	cs := make([]float64, ne)
	rho := make([]float64, ne)
	for i := range xc {
		xc[i] = l * float64(i) / float64(ne)
	}
	for i := range cs {
		cs[i] = c
		rho[i] = 1
	}
	op, err := sem.NewOp1D(xc, cs, rho, deg, sem.FreeBC, sem.FreeBC)
	if err != nil {
		panic(err)
	}
	return op
}

// standingWaveError runs the free-free 1-D bar with initial condition
// u = cos(kπx/L) to time T and returns the max error against the exact
// solution cos(kπx/L) cos(ωt).
func standingWaveError(op *sem.Op1D, l, c float64, dt float64, T float64) float64 {
	k := math.Pi / l
	s := New(op, dt)
	u0 := make([]float64, op.NDof())
	for i := range u0 {
		u0[i] = math.Cos(k * op.NodeX(i))
	}
	copy(s.U, u0)
	steps := int(math.Round(T / dt))
	s.Run(steps)
	tEnd := float64(steps) * dt
	maxErr := 0.0
	for i := range u0 {
		want := math.Cos(k*op.NodeX(i)) * math.Cos(c*k*tEnd)
		if e := math.Abs(s.U[i] - want); e > maxErr {
			maxErr = e
		}
	}
	return maxErr
}

func TestStandingWaveAccuracy(t *testing.T) {
	const l, c = 1.0, 1.0
	op := uniform1D(16, l, c, 5)
	err := standingWaveError(op, l, c, 1e-3, 1.0)
	if err > 2e-5 {
		t.Errorf("standing wave error %v too large", err)
	}
}

// TestSecondOrderConvergenceInTime: halving Δt must reduce the error by
// ~4x once spatial error is negligible.
func TestSecondOrderConvergenceInTime(t *testing.T) {
	const l, c = 1.0, 1.0
	op := uniform1D(20, l, c, 6) // spectral spatial accuracy: error is time-dominated
	// Measure at T = 0.75 where ωT = 3π/4, so the leap-frog phase error is
	// visible (at T = 1 the mode sits at an extremum and the sensitivity
	// to phase error vanishes).
	e1 := standingWaveError(op, l, c, 1e-3, 0.75)
	e2 := standingWaveError(op, l, c, 5e-4, 0.75)
	ratio := e1 / e2
	if ratio < 3.3 || ratio > 4.7 {
		t.Errorf("time convergence ratio %v, want ~4 (errors %v, %v)", ratio, e1, e2)
	}
}

func TestEnergyConservation(t *testing.T) {
	op := uniform1D(12, 1, 1, 4)
	dt := 0.25 * (1.0 / 12) / 1 / 16 // well below CFL for deg 4
	s := New(op, dt)
	u0 := make([]float64, op.NDof())
	for i := range u0 {
		x := op.NodeX(i)
		u0[i] = math.Exp(-50 * (x - 0.5) * (x - 0.5))
	}
	copy(s.U, u0)
	s.Step()
	e0 := s.ConservedEnergy()
	var emin, emax = e0, e0
	var imin, imax = s.Energy(), s.Energy()
	for i := 0; i < 2000; i++ {
		s.Step()
		e := s.ConservedEnergy()
		emin = math.Min(emin, e)
		emax = math.Max(emax, e)
		ie := s.Energy()
		imin = math.Min(imin, ie)
		imax = math.Max(imax, ie)
	}
	// The staggered energy is conserved to roundoff...
	if (emax-emin)/e0 > 1e-10 {
		t.Errorf("conserved energy drift %.3e relative, want < 1e-10 (e0=%v emin=%v emax=%v)",
			(emax-emin)/e0, e0, emin, emax)
	}
	// ...while the instantaneous energy only oscillates within O(Δt²).
	if (imax-imin)/e0 > 0.05 {
		t.Errorf("instantaneous energy oscillation %.3e relative, want < 5%%", (imax-imin)/e0)
	}
}

func TestCFLViolationBlowsUp(t *testing.T) {
	op := uniform1D(16, 1, 1, 4)
	// Way above any plausible stability limit.
	s := New(op, 0.5)
	u0 := make([]float64, op.NDof())
	for i := range u0 {
		u0[i] = math.Sin(3 * math.Pi * op.NodeX(i))
	}
	copy(s.U, u0)
	s.Run(50)
	norm := 0.0
	for _, v := range s.U {
		norm += v * v
	}
	if !(norm > 1e6) && !math.IsNaN(norm) {
		t.Errorf("expected blow-up above CFL, |u|² = %v", norm)
	}
}

// TestAcousticPlaneWave3D: periodic cube, standing wave
// u = cos(2πx/L) cos(ωt), ω = c·2π/L.
func TestAcousticPlaneWave3D(t *testing.T) {
	const L, c = 2.0, 1.0
	m := mesh.Uniform(4, 2, 2, L/4, c)
	op, err := sem.NewAcoustic3D(m, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	k := 2 * math.Pi / L
	dt := 2e-3
	s := New(op, dt)
	u0 := make([]float64, op.NDof())
	for n := 0; n < op.NumNodes(); n++ {
		x, _, _ := op.NodeCoords(int32(n))
		u0[n] = math.Cos(k * x)
	}
	copy(s.U, u0)
	steps := 250
	s.Run(steps)
	tEnd := float64(steps) * dt
	for n := 0; n < op.NumNodes(); n++ {
		x, _, _ := op.NodeCoords(int32(n))
		want := math.Cos(k*x) * math.Cos(c*k*tEnd)
		if math.Abs(s.U[n]-want) > 5e-4 {
			t.Fatalf("node %d: u = %v, want %v", n, s.U[n], want)
		}
	}
}

// TestElasticPAndSWaves3D: periodic cube; a longitudinal standing mode
// oscillates at ω = c_p k and a transverse one at ω = c_s k.
func TestElasticPAndSWaves3D(t *testing.T) {
	const L = 2.0
	const cp = 1.0
	m := mesh.Uniform(4, 2, 2, L/4, cp)
	op, err := sem.NewElastic3D(m, 4, true, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	cs := 0.5 * cp
	k := 2 * math.Pi / L
	cases := []struct {
		name  string
		comp  int
		speed float64
	}{
		{"P (longitudinal)", 0, cp},
		{"S (transverse)", 1, cs},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dt := 1e-3
			s := New(op, dt)
			u0 := make([]float64, op.NDof())
			for n := 0; n < op.NumNodes(); n++ {
				x, _, _ := op.NodeCoords(int32(n))
				u0[3*n+tc.comp] = math.Cos(k * x)
			}
			copy(s.U, u0)
			steps := 300
			s.Run(steps)
			tEnd := float64(steps) * dt
			for n := 0; n < op.NumNodes(); n++ {
				x, _, _ := op.NodeCoords(int32(n))
				want := math.Cos(k*x) * math.Cos(tc.speed*k*tEnd)
				if math.Abs(s.U[3*n+tc.comp]-want) > 1e-3 {
					t.Fatalf("node %d: u = %v, want %v", n, s.U[3*n+tc.comp], want)
				}
			}
		})
	}
}

// firstArrival returns the first time |value| reaches frac times the
// receiver's peak amplitude — a threshold picker robust against later
// reflections — or 0 for an all-zero trace.
func firstArrival(r *sem.Receiver, frac float64) float64 {
	peak := 0.0
	for _, v := range r.Values {
		peak = math.Max(peak, math.Abs(v))
	}
	for i, v := range r.Values {
		if peak > 0 && math.Abs(v) >= frac*peak {
			return r.Times[i]
		}
	}
	return 0
}

// TestSourceInjectionPropagates: a Ricker source in a 1-D bar produces a
// disturbance that arrives at a receiver at distance d after ~d/c.
func TestSourceInjectionPropagates(t *testing.T) {
	const l, c = 10.0, 2.0
	op := uniform1D(100, l, c, 4)
	dt := 0.2 * (l / 100) / c / 16
	s := New(op, dt)
	srcNode := op.NumNodes() / 10
	s.Sources = []sem.Source{{Dof: srcNode, W: sem.Ricker{F0: 2, T0: 0.6}}}
	rcvNode := op.NumNodes() * 7 / 10
	dist := op.NodeX(rcvNode) - op.NodeX(srcNode)
	rcv := &sem.Receiver{Dof: rcvNode}
	tMax := 0.6 + dist/c + 0.4 // stop before boundary reflections arrive
	for s.Time() < tMax {
		s.Step()
		rcv.Record(s.Time(), s.U)
	}
	arrival := firstArrival(rcv, 0.3) - 0.6 // subtract wavelet delay
	want := dist / c
	if math.Abs(arrival-want) > 0.15*want {
		t.Errorf("arrival at %v, want ~%v", arrival, want)
	}
}

// TestSpongeAbsorbsEnergy: with a sponge layer the energy decays; without
// it, the wave reflects and energy persists.
func TestSpongeAbsorbsEnergy(t *testing.T) {
	op := uniform1D(60, 6, 1, 4)
	dt := 0.1 / 16 * 0.5
	run := func(withSponge bool) float64 {
		s := New(op, dt)
		if withSponge {
			sigma := make([]float64, op.NumNodes())
			for n := range sigma {
				x := op.NodeX(n)
				for _, edge := range []float64{x, 6 - x} {
					if edge < 1.5 {
						r := 1 - edge/1.5
						sigma[n] = math.Max(sigma[n], 30*r*r)
					}
				}
			}
			s.Sigma = sigma
		}
		u0 := make([]float64, op.NDof())
		for i := range u0 {
			x := op.NodeX(i)
			u0[i] = math.Exp(-8 * (x - 3) * (x - 3))
		}
		copy(s.U, u0)
		// Run long enough for the wave to reach the boundaries twice.
		for s.Time() < 12 {
			s.Step()
		}
		return s.Energy()
	}
	e0 := run(false)
	e1 := run(true)
	if e1 > 0.05*e0 {
		t.Errorf("sponge left %.3e of %.3e energy (want < 5%%)", e1, e0)
	}
}

func BenchmarkNewmarkStep1D(b *testing.B) {
	op := uniform1D(512, 1, 1, 4)
	s := New(op, 1e-5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

func BenchmarkNewmarkStep3DAcoustic(b *testing.B) {
	m := mesh.Uniform(6, 6, 6, 1, 1)
	op, err := sem.NewAcoustic3D(m, 4, false)
	if err != nil {
		b.Fatal(err)
	}
	s := New(op, 1e-4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}
