package wave_test

import (
	"math"

	"golts/wave"
)

// sawWave reports whether some trace recorded the wave rather than the
// rounding tail of its onset: a peak of at least 1e-24 per unit source
// gain (the facade's sources are unit forces) and at least two nonzero
// samples — the floor of distrun -require-nonzero.
func sawWave(set *wave.Seismograms) bool {
	for _, tr := range set.Traces {
		peak, nonzero := 0.0, 0
		for _, v := range tr.Values {
			peak = max(peak, math.Abs(v))
			if v != 0 {
				nonzero++
			}
		}
		if peak >= 1e-24 && nonzero >= 2 {
			return true
		}
	}
	return false
}
