package wave

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"golts/internal/tune"
)

// WithTelemetry enables the per-level, per-worker timing counters on the
// local backend (the distributed backend has its own knob,
// Distributed.Telemetry). The counters are two monotonic clock reads per
// kernel invocation — cheap, but not free, so they are off by default.
// Stats reports them through LevelTimes and WorkerBusyNanos.
func WithTelemetry() Option {
	return func(s *settings) error {
		s.telemetry = true
		return nil
	}
}

// WithAutoTune makes New calibrate the deployment shape before building
// the simulation: short probe runs (a few coarse cycles each) sweep a
// candidate grid — worker counts on the local backend, rank counts on
// the distributed one — until the wall budget is spent, and the fastest
// measured shape is applied to the configuration. The resulting plan,
// including the table of measurements behind the choice, is available
// from Simulation.TunePlan, and is cached in the attached ArtifactCache
// by configuration key so a job server calibrates each configuration
// once.
//
// Auto-tuned worker counts depend on the host (like WithWorkers(0)), so
// results are bitwise reproducible per (configuration, plan) — not
// across machines with different calibration outcomes. Distributed
// tuning only moves the rank count; the decomposition width Parts stays
// fixed, so those results do not change at all.
func WithAutoTune(budget time.Duration) Option {
	return func(s *settings) error {
		if budget <= 0 {
			return optErr("WithAutoTune", ErrTuneSpec, "budget must be positive, got %v", budget)
		}
		s.autoTune = budget
		return nil
	}
}

// tuneProbeCycles is the length of each calibration probe run.
const tuneProbeCycles = 3

// tuneKey is the calibration plan's artifact-cache key: every option
// that changes what the probes measure (mesh, discretization, scheme,
// partitioner, backend family and its fixed decomposition width).
func (s *settings) tuneKey() string {
	shape := "local"
	if be, ok := s.backend.(Distributed); ok {
		shape = fmt.Sprintf("dist%d", be.parts())
	}
	return fmt.Sprintf("tune|%s|%.17g|%.17g|%s|%d|%t|%s|%d|%s|%d",
		s.mesh, s.scale, s.cfl, s.physics, s.degree, s.lts,
		s.partitioner, s.seed, shape, runtime.GOMAXPROCS(0))
}

// applyAutoTune resolves (or retrieves) the calibration plan for the
// settings and applies its best shape in place. Called at the top of
// build; probe runs recurse into build with autoTune cleared.
func applyAutoTune(set *settings) (*tune.Plan, error) {
	resolve := func() (*tune.Plan, error) {
		return tune.Calibrate(tuneCandidates(set), set.autoTune, tuneProbeCycles, tuneRunner(set))
	}
	var plan *tune.Plan
	var err error
	if set.artifacts != nil {
		var v any
		v, _, err = set.artifacts.memo.Get(set.tuneKey(), func() (any, error) { return resolve() })
		if err == nil {
			plan = v.(*tune.Plan)
		}
	} else {
		plan, err = resolve()
	}
	if err != nil {
		return nil, fmt.Errorf("wave: auto-tune: %w", err)
	}
	best := plan.Best
	if be, ok := set.backend.(Distributed); ok {
		// Parts stays fixed: only the process count moves, which the
		// decomposition-pinned assembly order makes bitwise-invisible.
		be.Parts = be.parts()
		be.Ranks = best.Ranks
		set.backend = be
	} else {
		set.workers = best.Workers
	}
	return plan, nil
}

// tuneCandidates builds the probe grid. Local: worker counts 1, 2, 4,
// ... up to GOMAXPROCS (capped at 8). Distributed: rank counts
// {1, Ranks} at fixed Parts.
func tuneCandidates(set *settings) []tune.Candidate {
	if be, ok := set.backend.(Distributed); ok {
		cands := []tune.Candidate{{Ranks: 1}}
		if be.Ranks > 1 {
			cands = append(cands, tune.Candidate{Ranks: be.Ranks})
		}
		return cands
	}
	var cands []tune.Candidate
	for w := 1; w <= min(runtime.GOMAXPROCS(0), 8); w *= 2 {
		cands = append(cands, tune.Candidate{Workers: w})
	}
	return cands
}

// tuneRunner returns the probe executor: each probe builds a stripped
// copy of the configuration (no sinks, probes or checkpoints; telemetry
// on) under the candidate shape and runs tuneProbeCycles coarse cycles
// against the wall clock.
func tuneRunner(set *settings) tune.Runner {
	return func(c tune.Candidate, cycles int) (tune.Result, error) {
		probe := *set
		probe.autoTune = 0
		probe.telemetry = true
		probe.sinks = nil
		probe.probes = nil
		probe.ckptPath = ""
		probe.ckptEvery = 0
		probe.cycles = cycles
		if be, ok := set.backend.(Distributed); ok {
			be.Parts = be.parts()
			be.Ranks = c.Ranks
			be.Telemetry = true
			probe.backend = be
		} else {
			probe.workers = c.Workers
			probe.backend = Local
		}

		sim, err := build(&probe)
		if err != nil {
			return tune.Result{}, err
		}
		defer sim.Close()
		start := time.Now()
		if err := sim.Run(context.Background(), cycles); err != nil {
			return tune.Result{}, err
		}
		wall := time.Since(start)

		res := tune.Result{CycleNanos: float64(wall.Nanoseconds()) / float64(cycles)}
		st := sim.Stats()
		for _, lt := range st.LevelTimes {
			var n int64
			for _, rn := range lt.RankNanos {
				n += rn
			}
			res.LevelNanos = append(res.LevelNanos, n)
		}
		return res, nil
	}
}

// TunePlan returns the calibration plan applied by WithAutoTune (nil
// without it): the selected shape plus the measurements behind the
// choice.
func (s *Simulation) TunePlan() *tune.Plan { return s.tunePlan }
