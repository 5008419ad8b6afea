package wave

import (
	"context"

	"golts/internal/ckpt"
	"golts/internal/lts"
	"golts/internal/newmark"
)

// Stepper is the unified time-stepping interface over the two schemes:
// one Step advances one coarse cycle Δt. The LTS scheme substeps its fine
// levels internally; the global Newmark adapter performs p_max fine
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
	// save snapshots the live state (a copy the caller owns); restore
	// installs one, time included.
	save() (*ckpt.StepperState, error)
	restore(st *ckpt.StepperState) error
	// stats fills the scheme's and backend's counters of st; Cycles
	// counts coarse cycles on every scheme.
	stats(st *Stats)
}

// ltsStepper adapts lts.Scheme: one facade cycle is one LTS cycle.
type ltsStepper struct{ s *lts.Scheme }

func (a ltsStepper) Step() error {
	a.s.Step()
	return nil
}
func (a ltsStepper) Time() float64                       { return a.s.Time() }
func (a ltsStepper) State() []float64                    { return a.s.U }
func (a ltsStepper) save() (*ckpt.StepperState, error)   { return a.s.Save(), nil }
func (a ltsStepper) restore(st *ckpt.StepperState) error { return a.s.Restore(st) }

func (a ltsStepper) stats(st *Stats) {
	st.Cycles = a.s.CycleCount()
	st.ElemApplies = a.s.Work.ElemApplies
	st.EffectiveSpeedup = a.s.EffectiveSpeedup()
	st.Efficiency = a.s.Efficiency()
	if a.s.Telemetry {
		for li, n := range a.s.Work.LevelNanos {
			st.LevelTimes = append(st.LevelTimes, LevelStats{Level: li, RankNanos: []int64{n}})
		}
	}
}

// newmarkStepper adapts newmark.Stepper: one facade cycle is pmax fine
// steps, so both schemes sample receivers on the same time axis.
type newmarkStepper struct {
	s    *newmark.Stepper
	pmax int
}

func (a newmarkStepper) Step() error {
	a.s.Run(a.pmax)
	return nil
}
func (a newmarkStepper) Time() float64                       { return a.s.Time() }
func (a newmarkStepper) State() []float64                    { return a.s.U }
func (a newmarkStepper) save() (*ckpt.StepperState, error)   { return a.s.Save(), nil }
func (a newmarkStepper) restore(st *ckpt.StepperState) error { return a.s.Restore(st) }

func (a newmarkStepper) stats(st *Stats) {
	st.Cycles = a.s.StepCount() / int64(a.pmax)
	st.ElemApplies = a.s.ElementSteps
}

var (
	_ schemeStepper = ltsStepper{}
	_ schemeStepper = newmarkStepper{}
)
