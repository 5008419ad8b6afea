package tune

import (
	"fmt"
	"time"
)

// Candidate is one deployment shape of the calibration grid. Ranks == 0
// probes the shared-memory backend with Workers workers; Ranks > 0
// probes the distributed backend. (Plans serialised while the grid still
// had a "kernel" axis, or while measurements carried a cluster-model
// prediction, decode with those fields ignored.)
type Candidate struct {
	Workers int `json:"workers"`
	Ranks   int `json:"ranks"`
}

func (c Candidate) String() string {
	if c.Ranks > 0 {
		return fmt.Sprintf("ranks=%d", c.Ranks)
	}
	return fmt.Sprintf("workers=%d", c.Workers)
}

// Result is what a probe run reports back to Calibrate: measured wall
// time per coarse cycle and the per-level kernel telemetry.
type Result struct {
	CycleNanos float64
	LevelNanos []int64
}

// Runner executes one probe: a short run of the caller's configuration
// under candidate c for the given number of coarse cycles. The wave
// facade supplies it — this package never builds simulations itself.
type Runner func(c Candidate, cycles int) (Result, error)

// Measurement is one candidate's calibration row, the table
// BENCH_tune.json publishes.
type Measurement struct {
	Candidate
	CycleNanos float64 `json:"cycle_ns"`
	LevelNanos []int64 `json:"level_ns,omitempty"`
	Err        string  `json:"error,omitempty"`
}

// Plan is the calibration outcome: the winning shape plus every
// measurement behind the choice.
type Plan struct {
	Best         Candidate     `json:"best"`
	ProbeCycles  int           `json:"probe_cycles"`
	Measurements []Measurement `json:"measurements"`
}

// Valid reports whether the plan selects an executable shape.
func (p *Plan) Valid() bool {
	return p != nil && (p.Best.Workers > 0 || p.Best.Ranks > 0)
}

// Calibrate probes the candidate grid with short runs and returns the
// plan. Each candidate runs probeCycles coarse cycles; once the wall
// budget is spent, remaining candidates are skipped (at least one
// always runs — a zero or tiny budget degenerates to probing the first
// candidate only). The winner is the lowest measured per-cycle time.
func Calibrate(cands []Candidate, budget time.Duration, probeCycles int, run Runner) (*Plan, error) {
	if len(cands) == 0 {
		return nil, fmt.Errorf("tune: no candidates")
	}
	if run == nil {
		return nil, fmt.Errorf("tune: nil runner")
	}
	if probeCycles < 1 {
		probeCycles = 3
	}
	start := time.Now()
	plan := &Plan{ProbeCycles: probeCycles}
	ran := 0
	for _, c := range cands {
		if ran > 0 && budget > 0 && time.Since(start) >= budget {
			break
		}
		m := Measurement{Candidate: c}
		res, err := run(c, probeCycles)
		if err != nil {
			m.Err = err.Error()
		} else {
			m.CycleNanos = res.CycleNanos
			m.LevelNanos = res.LevelNanos
		}
		plan.Measurements = append(plan.Measurements, m)
		ran++
	}
	best := -1
	for i, m := range plan.Measurements {
		if m.Err == "" && (best < 0 || m.CycleNanos < plan.Measurements[best].CycleNanos) {
			best = i
		}
	}
	if best < 0 {
		return nil, fmt.Errorf("tune: every probe failed (first: %s)", plan.Measurements[0].Err)
	}
	plan.Best = plan.Measurements[best].Candidate
	return plan, nil
}
