package wave

import (
	"bytes"
	"context"

	"golts/internal/ckpt"
	"golts/internal/solver"
)

// Stepper is the unified time-stepping interface over the two schemes:
// one Step advances one coarse cycle Δt. The LTS scheme substeps its fine
// levels internally; the global Newmark scheme performs p_max fine
// steps. Time reports the simulation time after the last completed cycle
// and State exposes the live displacement field (read-only).
type Stepper interface {
	Step() error
	Time() float64
	State() []float64
}

// ctxStepper is the optional context-aware step a backend may provide.
// Run prefers it over Step so cancelling the run context can abort work
// that blocks inside a single cycle — the distributed coordinator uses it
// to kill and reap its rank processes promptly instead of waiting out the
// wire step timeout.
type ctxStepper interface {
	StepCtx(ctx context.Context) error
}

// schemeStepper is what a Simulation holds: a Stepper that also carries
// its scheme's state and work counters, so Checkpoint, Resume and Stats
// go through the stepper instead of switching on the scheme or backend.
type schemeStepper interface {
	Stepper
	// save writes the live state as state frames back to back (package
	// ckpt: one full frame, or one footprint frame per rank); restore
	// installs the state frames make up, time included.
	save() ([]byte, error)
	restore(frames [][]byte) error
	// stats fills the scheme's and backend's counters of st; Cycles
	// counts coarse cycles on every scheme.
	stats(st *Stats)
}

// localStepper adapts the solver's cycle stepper, which both schemes
// share with the distributed ranks, to the facade: one facade cycle is
// one solver cycle.
type localStepper struct{ *solver.Stepper }

func (a localStepper) Step() error {
	a.Stepper.Step()
	return nil
}

// save writes one full frame straight from the live arrays.
func (a localStepper) save() ([]byte, error) {
	st := a.View()
	b := bytes.NewBuffer(make([]byte, 0, 16*len(st.U)+4096)) // U, V and the header
	_, err := ckpt.WriteFrame(b, st, len(st.U), a.Comps(), nil, true)
	return b.Bytes(), err
}

// restore overlays frames onto the live arrays — they must cover every
// node — and installs their scalars.
func (a localStepper) restore(frames [][]byte) error {
	st := a.View()
	o := ckpt.NewOverlay(st, len(st.U), a.Comps(), nil)
	for _, frame := range frames {
		if err := o.Add(frame); err != nil {
			return err
		}
	}
	if err := o.Done(); err != nil {
		return err
	}
	return a.Restore(st)
}

func (a localStepper) stats(st *Stats) {
	w := a.Work()
	st.Cycles, st.ElemApplies = w.Cycles, w.ElemApplies
	st.EffectiveSpeedup, st.Efficiency = w.EffectiveSpeedup, w.Efficiency
	for li, n := range w.LevelNanos {
		st.LevelTimes = append(st.LevelTimes, LevelStats{Level: li, RankNanos: []int64{n}})
	}
}

var _ schemeStepper = localStepper{}
