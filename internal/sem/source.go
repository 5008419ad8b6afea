package sem

import "math"

// Wavelet is a source time function.
type Wavelet interface {
	// Amp returns the source amplitude at time t.
	Amp(t float64) float64
}

// Ricker is the Ricker wavelet (second derivative of a Gaussian), the
// standard seismic source time function.
type Ricker struct {
	// F0 is the dominant frequency.
	F0 float64
	// T0 is the time shift; a common choice is 1.2/F0 so the wavelet
	// starts near zero.
	T0 float64
	// Scale multiplies the amplitude (default treated as 1 when zero).
	Scale float64
}

// Amp evaluates the wavelet: (1 - 2a) e^{-a}, a = (π f0 (t - t0))².
func (r Ricker) Amp(t float64) float64 {
	s := r.Scale
	if s == 0 {
		s = 1
	}
	a := math.Pi * r.F0 * (t - r.T0)
	a *= a
	return s * (1 - 2*a) * math.Exp(-a)
}

// Source is a point force applied to a single degree of freedom (the f(x_s,
// t) term of Eq. 1 collocated at a GLL node).
type Source struct {
	// Dof is the global degree of freedom (node*Comps + comp).
	Dof int
	// W is the source time function.
	W Wavelet
}

// Receiver records the value of one degree of freedom over time.
type Receiver struct {
	// Dof is the recorded degree of freedom.
	Dof int
	// Times and Values accumulate the seismogram samples.
	Times, Values []float64
}

// Record appends a sample.
func (r *Receiver) Record(t float64, u []float64) {
	r.Times = append(r.Times, t)
	r.Values = append(r.Values, u[r.Dof])
}
