// Package solver is the one place a configuration becomes a runnable
// solver: the benchmark mesh with its LTS level assignment, the
// spectral-element operator of the chosen physics, and the cycle stepper
// over the LTS or the global Newmark scheme with its sources and sponge.
//
// Every backend builds through it. The facade (package wave) builds the
// local run from it, around the sequential operator or the shared-memory
// engine, and every rank of the distributed backend (package dist) builds
// its share of the run from it, around its distributed operator. The
// calls are deterministic, so the same Spec gives bitwise-equal steppers
// wherever it is built.
package solver

import (
	"fmt"
	"slices"

	"golts/internal/ckpt"
	"golts/internal/lts"
	"golts/internal/mesh"
	"golts/internal/newmark"
	"golts/internal/sem"
)

// Source is one collocated Ricker point force at a global degree of
// freedom.
type Source struct {
	Dof    int
	F0, T0 float64
}

// Sponge configures the absorbing boundary layer; a zero Strength
// disables it.
type Sponge struct {
	// Width is the layer thickness; Strength the peak damping coefficient.
	Width, Strength float64
	// Faces selects absorbing faces in x0, x1, y0, y1, z0, z1 order.
	Faces [6]bool
}

// Spec is the physics of a run: everything that fixes the discretization
// and the trajectory, and nothing about how the run is executed.
type Spec struct {
	// Mesh names a registered benchmark mesh generator; Scale its size.
	Mesh  string
	Scale float64
	// Physics is "acoustic" or "elastic".
	Physics string
	// Degree is the SEM polynomial degree.
	Degree int
	// LevelCFL is the normalised Courant number handed to
	// mesh.AssignLevels (cfl/degree²).
	LevelCFL float64
	// LTS selects the multi-level scheme; false runs global Newmark with
	// p_max substeps per coarse cycle.
	LTS bool
	// Sources are the resolved point forces, applied in this order.
	Sources []Source
	// Sponge configures absorbing boundaries; zero disables.
	Sponge Sponge
}

// Operator is a spectral-element operator together with the geometry the
// builders read: flat connectivity for the engines, node coordinates for
// the sponge profile and the nearest-node search that places sources and
// receivers. Both 3-D operators provide it.
type Operator interface {
	sem.BatchKernel
	sem.Connectivity
	NodeCoords(n int32) (x, y, z float64)
	NearestNode(x, y, z float64) int32
}

// MeshLevels generates the named benchmark mesh at scale and assigns its
// LTS levels at the normalised Courant number levelCFL.
func MeshLevels(name string, scale, levelCFL float64) (*mesh.Mesh, *mesh.Levels, error) {
	gen, ok := mesh.Generators[name]
	if !ok {
		return nil, nil, fmt.Errorf("unknown mesh %q", name)
	}
	m := gen(scale)
	return m, mesh.AssignLevels(m, levelCFL, 0), nil
}

// NewOperator builds the operator of the given physics and degree on m.
func NewOperator(m *mesh.Mesh, physics string, degree int) (Operator, error) {
	switch physics {
	case "acoustic":
		return sem.NewAcoustic3D(m, degree, false)
	case "elastic":
		return sem.NewElastic3D(m, degree, false, 0)
	}
	return nil, fmt.Errorf("unknown physics %q", physics)
}

// Discretize builds the Spec's mesh, levels and operator.
func (s *Spec) Discretize() (*mesh.Mesh, *mesh.Levels, Operator, error) {
	m, lv, err := MeshLevels(s.Mesh, s.Scale, s.LevelCFL)
	if err != nil {
		return nil, nil, nil, err
	}
	op, err := NewOperator(m, s.Physics, s.Degree)
	if err != nil {
		return nil, nil, nil, err
	}
	return m, lv, op, nil
}

// NewStepper builds the Spec's scheme over step — geom itself, or an
// engine wrapped around it — with the sources and the sponge profile of
// geom's nodes on m's extent. telemetry turns on the LTS scheme's
// per-level kernel timers. When step declares a footprint (sem.Footprint:
// a dist rank), the stepper holds that footprint only, in its compact
// numbering (sem.StepperPlan): the sources on it and the sponge profile
// are translated into it here, once; the others are the other ranks'.
func (s *Spec) NewStepper(step sem.BatchKernel, geom Operator, m *mesh.Mesh, lv *mesh.Levels, telemetry bool) (*Stepper, error) {
	fp, nc := sem.FootprintOf(step), geom.Comps()
	var srcs []sem.Source
	for _, src := range s.Sources {
		dof := src.Dof
		if fp != nil {
			i, ok := slices.BinarySearch(fp, int32(dof/nc))
			if !ok {
				continue
			}
			dof = i*nc + dof%nc
		}
		srcs = append(srcs, sem.Source{Dof: dof, W: sem.Ricker{F0: src.F0, T0: src.T0}})
	}
	var sigma []float64
	if sp := s.Sponge; sp.Strength > 0 {
		nn, coords := geom.NumNodes(), geom.NodeCoords
		if fp != nil {
			nn, coords = len(fp), func(i int32) (x, y, z float64) { return geom.NodeCoords(fp[i]) }
		}
		x0, x1, y0, y1, z0, z1 := m.Extent()
		sigma = sem.SpongeProfile(nn, coords, x0, x1, y0, y1, z0, z1, sp.Faces, sp.Width, sp.Strength)
	}
	if s.LTS {
		sch, err := lts.FromMeshLevels(step, lv, true)
		if err != nil {
			return nil, err
		}
		sch.Telemetry = telemetry
		sch.SetSources(srcs)
		sch.Sigma = sigma
		return &Stepper{LTS: sch}, nil
	}
	g := newmark.New(step, lv.CoarseDt/float64(lv.PMax()))
	g.Sources = srcs
	g.Sigma = sigma
	return &Stepper{Newmark: g, PMax: lv.PMax()}, nil
}

// Stepper advances one coarse cycle Δt per Step over exactly one of the
// two schemes: the LTS scheme substeps its fine levels internally, global
// Newmark runs PMax fine steps, so both sample on the same time axis.
type Stepper struct {
	// LTS is the multi-level scheme; nil when Newmark steps.
	LTS *lts.Scheme
	// Newmark is the global scheme; nil when LTS steps.
	Newmark *newmark.Stepper
	// PMax is the Newmark fine steps per cycle.
	PMax int
}

// Step advances one coarse cycle.
func (s *Stepper) Step() {
	if s.LTS != nil {
		s.LTS.Step()
		return
	}
	s.Newmark.Run(s.PMax)
}

// scheme is the stepping scheme behind the clock and checkpoint methods.
func (s *Stepper) scheme() interface {
	Time() float64
	View() *ckpt.StepperState
	Restore(*ckpt.StepperState) error
} {
	if s.LTS != nil {
		return s.LTS
	}
	return s.Newmark
}

// Time returns the simulation time after the last completed cycle.
func (s *Stepper) Time() float64 { return s.scheme().Time() }

// State returns the live displacement field (read-only), in the stepper's
// numbering (see NewStepper).
func (s *Stepper) State() []float64 {
	if s.LTS != nil {
		return s.LTS.U
	}
	return s.Newmark.U
}

// View captures the state with U and V aliasing the live arrays, valid
// until the next Step or Restore.
func (s *Stepper) View() *ckpt.StepperState { return s.scheme().View() }

// Restore installs a state captured by View, time included.
func (s *Stepper) Restore(st *ckpt.StepperState) error { return s.scheme().Restore(st) }

// Comps is the number of field components per node.
func (s *Stepper) Comps() int {
	if s.LTS != nil {
		return s.LTS.Op.Comps()
	}
	return s.Newmark.Op.Comps()
}

// Work is a stepper's work model: coarse cycles and element stiffness
// applications on both schemes, plus the LTS scheme's work-based speedup
// over global Newmark and its efficiency (zero for global Newmark), and
// its per-level kernel nanoseconds (telemetry only).
type Work struct {
	Cycles, ElemApplies          int64
	EffectiveSpeedup, Efficiency float64
	LevelNanos                   []int64
}

// Work returns the stepper's work counters; LevelNanos aliases the
// scheme's live counters.
func (s *Stepper) Work() Work {
	if sch := s.LTS; sch != nil {
		w := Work{Cycles: sch.CycleCount(), ElemApplies: sch.Work.ElemApplies,
			EffectiveSpeedup: sch.EffectiveSpeedup(), Efficiency: sch.Efficiency()}
		if sch.Telemetry {
			w.LevelNanos = sch.Work.LevelNanos
		}
		return w
	}
	return Work{Cycles: s.Newmark.StepCount() / int64(s.PMax), ElemApplies: s.Newmark.ElementSteps}
}
