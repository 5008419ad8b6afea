package main

import (
	"context"
	"fmt"
	"time"

	"golts/wave"
)

// facadeRun is one simulation driven through the wave facade: built,
// warmed up, then stepped in timed blocks of cycles.
type facadeRun struct {
	sim     *wave.Simulation
	buildS  float64   // wave.New alone
	setupS  float64   // wave.New plus the warm-up cycles
	cycleMs []float64 // timed cycles, in order
	rows    int       // rows the sink received
}

// startFacade builds the simulation from opts and steps the untimed
// warm-up cycles.
func startFacade(opts []wave.Option) (*facadeRun, error) {
	r := &facadeRun{}
	opts = append(opts, wave.WithSink(wave.RowCSVSink(func([]byte) error { r.rows++; return nil })))
	t0 := time.Now()
	sim, err := wave.New(opts...)
	if err != nil {
		return nil, err
	}
	r.sim = sim
	r.buildS = time.Since(t0).Seconds()
	if err := sim.Run(context.Background(), warmCycles); err != nil {
		sim.Close()
		return nil, err
	}
	r.setupS = time.Since(t0).Seconds()
	return r, nil
}

// block steps blockCycles timed cycles. A probe takes the per-cycle
// times, that is after receivers and sinks have seen the cycle.
func (r *facadeRun) block() error {
	last := time.Now()
	return r.sim.Run(context.Background(), blockCycles, func(wave.Frame) error {
		now := time.Now()
		r.cycleMs = append(r.cycleMs, float64(now.Sub(last).Nanoseconds())/1e6)
		last = now
		return nil
	})
}

// stepFacade builds, warms up and then steps whole blocks until seconds
// have passed and at least minTimed cycles are done.
func stepFacade(opts []wave.Option, seconds float64, minTimed int) (*facadeRun, error) {
	r, err := startFacade(opts)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for len(r.cycleMs) < minTimed || time.Since(start).Seconds() < seconds {
		if err := r.block(); err != nil {
			r.sim.Close()
			return nil, err
		}
	}
	return r, nil
}

// prefix returns the first checkCycles samples of every receiver.
func prefix(sg *wave.Seismograms) [][]float64 {
	var out [][]float64
	for _, tr := range sg.Traces {
		n := len(tr.Values)
		if n > checkCycles {
			n = checkCycles
		}
		out = append(out, tr.Values[:n])
	}
	return out
}

// runSolver is the end-to-end round of a solver workload.
func runSolver(w workload, spec roundSpec) (*roundResult, error) {
	pl, err := place(w.Scale, w.Physics, spec.Seed)
	if err != nil {
		return nil, err
	}
	run, err := stepFacade(w.options(pl, spec.Seed), spec.Seconds, checkCycles-warmCycles)
	if err != nil {
		return nil, err
	}
	res := &roundResult{
		SetupS: run.setupS, BuildS: run.buildS,
		OpMs: run.cycleMs, WallMs: sum(run.cycleMs),
		PeakRSSMB: peakRSSMB(), // before Close reaps the rank processes
	}
	st := run.sim.Stats()
	traces := prefix(run.sim.Seismograms())
	if err := run.sim.Close(); err != nil {
		return nil, err
	}
	res.Digest, res.Live = digestFloats(traces), tracesLive(traces)
	res.Elements, res.SIMD = st.Elements, st.SIMD
	if st.Cycles > 0 {
		res.ElemAppliesCycle = st.ElemApplies / st.Cycles
	}
	cycles := warmCycles + len(run.cycleMs)
	if run.rows != cycles+1 {
		res.Problems = append(res.Problems, fmt.Sprintf("sink received %d rows for %d cycles", run.rows, cycles))
	}
	if int(st.Cycles) != cycles {
		res.Problems = append(res.Problems, fmt.Sprintf("Stats.Cycles = %d after %d cycles", st.Cycles, cycles))
	}
	return res, nil
}
