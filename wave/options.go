package wave

import (
	"errors"
	"fmt"
	"math"
	"time"

	"golts/internal/mesh"
	"golts/internal/partition"
)

// Sentinel errors returned (wrapped in *OptionError where applicable) by
// the configuration surface. Match them with errors.Is.
var (
	// ErrUnknownMesh is returned for a mesh name with no registered
	// benchmark generator.
	ErrUnknownMesh = errors.New("unknown mesh")
	// ErrUnknownPhysics is returned for a physics other than Acoustic or
	// Elastic.
	ErrUnknownPhysics = errors.New("unknown physics")
	// ErrUnknownPartitioner is returned for an unrecognised partitioner
	// name.
	ErrUnknownPartitioner = errors.New("unknown partitioner")
	// ErrDegreeRange is returned for a SEM polynomial degree outside
	// [1, 12].
	ErrDegreeRange = errors.New("degree outside [1, 12]")
	// ErrScaleRange is returned for a non-positive mesh scale.
	ErrScaleRange = errors.New("scale must be positive")
	// ErrCFLRange is returned for a non-positive Courant number.
	ErrCFLRange = errors.New("CFL must be positive")
	// ErrCyclesRange is returned for a non-positive cycle count.
	ErrCyclesRange = errors.New("cycles must be positive")
	// ErrWorkersRange is returned for a negative worker count.
	ErrWorkersRange = errors.New("workers must be non-negative")
	// ErrComponentRange is returned when a source or receiver component is
	// negative, above 2, or beyond what the selected physics provides
	// (acoustic fields have a single component 0).
	ErrComponentRange = errors.New("component out of range")
	// ErrSourceSpec is returned for a malformed source (non-positive F0,
	// or a non-finite position or wavelet parameter).
	ErrSourceSpec = errors.New("invalid source")
	// ErrReceiverSpec is returned for a receiver with a non-finite position.
	ErrReceiverSpec = errors.New("invalid receiver")
	// ErrSpongeSpec is returned for a malformed sponge layer.
	ErrSpongeSpec = errors.New("invalid sponge")
	// ErrPartsRange is returned for a partition request with fewer than one
	// part.
	ErrPartsRange = errors.New("parts must be >= 1")
	// ErrBackendSpec is returned for a nil or foreign Backend value.
	ErrBackendSpec = errors.New("invalid backend")
	// ErrRanksRange is returned for a Distributed backend with fewer than
	// one rank.
	ErrRanksRange = errors.New("ranks must be >= 1")
	// ErrBackendConflict is returned at build time for options that
	// cannot be combined with the selected backend (e.g. WithWorkers > 1
	// with Distributed).
	ErrBackendConflict = errors.New("option incompatible with backend")
	// ErrCheckpointSpec is returned for a malformed WithCheckpointEvery
	// request (empty path or non-positive interval).
	ErrCheckpointSpec = errors.New("invalid checkpoint spec")
	// ErrCheckpointMismatch is returned by Resume when the checkpoint
	// file was written by a run with a different result-determining
	// configuration (mesh, physics, decomposition width, sources, ...).
	ErrCheckpointMismatch = errors.New("checkpoint does not match configuration")
	// ErrTuneSpec is returned for a malformed WithAutoTune request
	// (non-positive budget).
	ErrTuneSpec = errors.New("invalid auto-tune spec")
	// ErrNilArgument is returned when an option receives a nil sink or
	// probe.
	ErrNilArgument = errors.New("nil argument")
	// ErrClosed is returned when a Simulation is used after Close.
	ErrClosed = errors.New("simulation is closed")
)

// OptionError reports which option rejected its argument; it unwraps to
// one of the sentinel errors above.
type OptionError struct {
	// Option is the name of the offending option, e.g. "WithDegree".
	Option string
	// Err is the underlying cause.
	Err error
}

func (e *OptionError) Error() string { return "wave: " + e.Option + ": " + e.Err.Error() }

// Unwrap returns the underlying cause.
func (e *OptionError) Unwrap() error { return e.Err }

func optErr(option string, sentinel error, format string, args ...any) error {
	return &OptionError{Option: option, Err: fmt.Errorf("%w: "+format, append([]any{sentinel}, args...)...)}
}

// Physics selects the wave equation.
type Physics string

// The two discretized physics.
const (
	// Acoustic is the scalar acoustic wave equation (1 component per node).
	Acoustic Physics = "acoustic"
	// Elastic is the isotropic elastic wave equation (3 components per
	// node).
	Elastic Physics = "elastic"
)

// Partitioner names an element-partitioning strategy for the parallel
// engine (paper §III-B).
type Partitioner string

// The partitioning strategies. ScotchP — each p-level partitioned
// separately, then merged onto processors — is the paper's best performer
// and the default.
const (
	Scotch     Partitioner = "scotch"
	ScotchP    Partitioner = "scotch-p"
	Metis      Partitioner = "metis"
	Patoh      Partitioner = "patoh"
	ScotchPM   Partitioner = "scotch-pm"
	CoarseOnly Partitioner = "coarse-only"
)

// Partitioners lists the paper's four benchmarked strategies in
// presentation order.
var Partitioners = []Partitioner{Scotch, ScotchP, Metis, Patoh}

// partitionerMethods maps facade names onto internal methods; it also
// serves as the validation set.
var partitionerMethods = map[Partitioner]partition.Method{
	Scotch:     partition.Scotch,
	ScotchP:    partition.ScotchP,
	Metis:      partition.Metis,
	Patoh:      partition.Patoh,
	ScotchPM:   partition.ScotchPM,
	CoarseOnly: partition.CoarseOnly,
}

// Source is a collocated Ricker point force: the f(x_s, t) term of the
// wave equation applied to the GLL node nearest (X, Y, Z).
type Source struct {
	// X, Y, Z is the physical position; the source snaps to the nearest
	// GLL node.
	X, Y, Z float64
	// Comp is the force component (always 0 for acoustic; 0..2 for
	// elastic).
	Comp int
	// F0 is the Ricker dominant frequency (must be positive); T0 the time
	// shift.
	F0, T0 float64
}

// Receiver is a recording station: it samples one component of the field
// at the GLL node nearest (X, Y, Z) once per cycle.
type Receiver struct {
	// Name labels the trace in seismogram output; empty names are
	// auto-assigned ("st0", "st1", ...).
	Name string
	// X, Y, Z is the physical position; the receiver snaps to the nearest
	// GLL node.
	X, Y, Z float64
	// Comp is the recorded component (always 0 for acoustic; 0..2 for
	// elastic).
	Comp int
}

// Sponge configures the absorbing boundary layer; a zero value disables
// it.
type Sponge struct {
	// Width is the layer thickness; Strength the peak damping coefficient.
	Width, Strength float64
	// Faces selects absorbing faces in x0, x1, y0, y1, z0, z1 order; the
	// typical seismology setup absorbs everything except the free surface.
	Faces [6]bool
}

// settings is the resolved configuration a Simulation is built from.
type settings struct {
	mesh        string
	scale       float64
	physics     Physics
	degree      int
	cfl         float64
	lts         bool
	cycles      int
	workers     int
	partitioner Partitioner
	backend     Backend
	seed        int64
	sources     []Source
	srcComp     int
	receivers   []Receiver
	sponge      Sponge
	sinks       []Sink
	probes      []Probe
	artifacts   *ArtifactCache
	ckptPath    string
	ckptEvery   int
	telemetry   bool
	autoTune    time.Duration
}

// levelCFL is the normalised Courant number handed to mesh.AssignLevels:
// the configured CFL scaled for the GLL node spacing of the configured
// degree. Both backends must derive the level structure from this one
// expression — a drift between them would break the distributed ≡ local
// bitwise contract.
func (s *settings) levelCFL() float64 { return s.cfl / float64(s.degree*s.degree) }

func defaultSettings() *settings {
	return &settings{
		mesh:        "trench",
		scale:       0.02,
		physics:     Acoustic,
		degree:      4,
		cfl:         0.4,
		lts:         true,
		cycles:      20,
		workers:     1,
		partitioner: ScotchP,
		backend:     Local,
		seed:        1,
	}
}

// Option configures a Simulation. Options validate their arguments
// eagerly: New returns the first option's error (an *OptionError wrapping
// a sentinel) instead of silently clamping values.
type Option func(*settings) error

// Validate applies the options to a default configuration and returns the
// first error, without generating a mesh, building operators, or spawning
// rank processes. It is the cheap upfront check for CLIs and services
// that want to reject impossible flags (ranks > parts, nonpositive
// cycles, an unknown physics) before committing to an expensive build.
// Cross-option and mesh-dependent checks (component vs. physics, parts
// vs. element count) still happen in New.
func Validate(opts ...Option) error {
	set := defaultSettings()
	for _, o := range opts {
		if err := o(set); err != nil {
			return err
		}
	}
	return nil
}

// WithMesh selects a benchmark mesh by name ("trench", "trench-big",
// "embedding", "crust") at the given scale factor.
func WithMesh(name string, scale float64) Option {
	return func(s *settings) error {
		if _, ok := mesh.Generators[name]; !ok {
			return optErr("WithMesh", ErrUnknownMesh, "%q", name)
		}
		if scale <= 0 {
			return optErr("WithMesh", ErrScaleRange, "got %g", scale)
		}
		s.mesh = name
		s.scale = scale
		return nil
	}
}

// WithPhysics selects the wave equation (Acoustic or Elastic).
func WithPhysics(p Physics) Option {
	return func(s *settings) error {
		if p != Acoustic && p != Elastic {
			return optErr("WithPhysics", ErrUnknownPhysics, "%q", p)
		}
		s.physics = p
		return nil
	}
}

// WithDegree sets the SEM polynomial degree (default 4, the paper's
// 125-node elements).
func WithDegree(d int) Option {
	return func(s *settings) error {
		if d < 1 || d > 12 {
			return optErr("WithDegree", ErrDegreeRange, "got %d", d)
		}
		s.degree = d
		return nil
	}
}

// WithCFL sets the Courant number used for the LTS level assignment and
// the stable step (default 0.4; normalised internally for the GLL
// spacing).
func WithCFL(c float64) Option {
	return func(s *settings) error {
		if c <= 0 {
			return optErr("WithCFL", ErrCFLRange, "got %g", c)
		}
		s.cfl = c
		return nil
	}
}

// WithLTS selects the multi-level LTS-Newmark scheme (the default): fine
// regions substep locally and the whole mesh synchronises every coarse
// Δt.
func WithLTS() Option {
	return func(s *settings) error {
		s.lts = true
		return nil
	}
}

// WithGlobalNewmark selects the global leap-frog reference scheme: the
// whole mesh steps at the finest level's rate. One facade cycle still
// spans one coarse Δt (p_max substeps), so receiver sampling cadence
// matches the LTS scheme exactly.
func WithGlobalNewmark() Option {
	return func(s *settings) error {
		s.lts = false
		return nil
	}
}

// WithCycles sets the default cycle count used by Run(ctx, 0) and by the
// default source's wavelet duration (default 20).
func WithCycles(n int) Option {
	return func(s *settings) error {
		if n < 1 {
			return optErr("WithCycles", ErrCyclesRange, "got %d", n)
		}
		s.cycles = n
		return nil
	}
}

// WithWorkers sets the number of workers of the parallel engine: 1 (the
// default) runs sequentially, 0 means one worker per GOMAXPROCS slot.
// With n > 1 the stepping goroutine is worker 0 and n-1 persistent
// goroutines join it; an LTS cycle runs on all n — each owns a part of
// the elements for the stiffness kernels and an even share of every
// pointwise loop — and wakes them once per cycle. Results are bitwise
// reproducible for a fixed (workers, partitioner, seed), so the 0 default
// varies in the last floating-point digits across hosts with different
// core counts.
func WithWorkers(n int) Option {
	return func(s *settings) error {
		if n < 0 {
			return optErr("WithWorkers", ErrWorkersRange, "got %d", n)
		}
		s.workers = n
		return nil
	}
}

// WithPartitioner selects the element-partitioning strategy used when
// WithWorkers enables the parallel engine (default ScotchP).
func WithPartitioner(p Partitioner) Option {
	return func(s *settings) error {
		if _, ok := partitionerMethods[p]; !ok {
			return optErr("WithPartitioner", ErrUnknownPartitioner, "%q", p)
		}
		s.partitioner = p
		return nil
	}
}

// WithSeed sets the partitioner seed (default 1).
func WithSeed(seed int64) Option {
	return func(s *settings) error {
		s.seed = seed
		return nil
	}
}

// WithSource adds a point source. Like WithReceiver, the option
// accumulates: each call appends one source, and every source is
// injected at its node's LTS level at that level's local substep times.
// Without any WithSource a default Ricker source is placed at the
// horizontal centre, a quarter of the depth above the bottom, with a
// duration matched to the configured cycle count. Components are
// validated against the physics when the simulation is built.
func WithSource(src Source) Option {
	return func(s *settings) error {
		if src.F0 <= 0 {
			return optErr("WithSource", ErrSourceSpec, "F0 must be positive, got %g", src.F0)
		}
		if !finite(src.X, src.Y, src.Z, src.F0, src.T0) {
			return optErr("WithSource", ErrSourceSpec, "X, Y, Z, F0 and T0 must be finite, got %+v", src)
		}
		if src.Comp < 0 || src.Comp > 2 {
			return optErr("WithSource", ErrComponentRange, "source %d: got %d", len(s.sources), src.Comp)
		}
		s.sources = append(s.sources, src)
		return nil
	}
}

// WithSourceComponent sets the force component used by the *default*
// source placement without fixing its position or wavelet — e.g. a
// vertical default force for elastic runs. It has no effect when
// WithSource provides a full source. The component is validated against
// the physics when the simulation is built.
func WithSourceComponent(comp int) Option {
	return func(s *settings) error {
		if comp < 0 || comp > 2 {
			return optErr("WithSourceComponent", ErrComponentRange, "got %d", comp)
		}
		s.srcComp = comp
		return nil
	}
}

// WithReceiver adds a recording station. Without any receivers a default
// station is placed on the surface near the source. The component is
// validated against the physics when the simulation is built.
func WithReceiver(rcv Receiver) Option {
	return func(s *settings) error {
		if rcv.Comp < 0 || rcv.Comp > 2 {
			return optErr("WithReceiver", ErrComponentRange, "receiver %q: got %d", rcv.Name, rcv.Comp)
		}
		if !finite(rcv.X, rcv.Y, rcv.Z) {
			return optErr("WithReceiver", ErrReceiverSpec, "receiver %q: X, Y and Z must be finite, got (%g, %g, %g)",
				rcv.Name, rcv.X, rcv.Y, rcv.Z)
		}
		s.receivers = append(s.receivers, rcv)
		return nil
	}
}

// finite reports whether no value is NaN or ±Inf: a non-finite position
// compares false against every distance and would land on node 0.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// WithSponge enables the absorbing boundary layer.
func WithSponge(sp Sponge) Option {
	return func(s *settings) error {
		if sp.Strength < 0 {
			return optErr("WithSponge", ErrSpongeSpec, "negative strength %g", sp.Strength)
		}
		if sp.Strength > 0 && sp.Width <= 0 {
			return optErr("WithSponge", ErrSpongeSpec, "width must be positive, got %g", sp.Width)
		}
		s.sponge = sp
		return nil
	}
}

// WithCheckpointEvery makes Run write a restartable checkpoint of the
// full simulation state to path after every n-th completed cycle,
// atomically (write-to-temp + rename), overwriting the previous one.
// Sinks and probes observe a cycle before its checkpoint is written, so
// on resume the external record is always at least as advanced as the
// restored state. Resume the run with Resume(path, sameOptions...); the
// continuation is bitwise identical to the uninterrupted run.
func WithCheckpointEvery(path string, n int) Option {
	return func(s *settings) error {
		if path == "" {
			return optErr("WithCheckpointEvery", ErrCheckpointSpec, "empty path")
		}
		if n < 1 {
			return optErr("WithCheckpointEvery", ErrCheckpointSpec, "interval must be >= 1, got %d", n)
		}
		s.ckptPath = path
		s.ckptEvery = n
		return nil
	}
}

// WithSink attaches a streaming output sink (see CSVSink, JSONSink,
// FileSink). Sinks are opened on the first Run and flushed by Close.
func WithSink(sink Sink) Option {
	return func(s *settings) error {
		if sink == nil {
			return optErr("WithSink", ErrNilArgument, "nil sink")
		}
		s.sinks = append(s.sinks, sink)
		return nil
	}
}

// WithProbe attaches a probe invoked after every cycle of every Run, in
// addition to any probes passed to Run itself (progress callbacks,
// snapshot hooks — see SnapshotEvery).
func WithProbe(p Probe) Option {
	return func(s *settings) error {
		if p == nil {
			return optErr("WithProbe", ErrNilArgument, "nil probe")
		}
		s.probes = append(s.probes, p)
		return nil
	}
}
