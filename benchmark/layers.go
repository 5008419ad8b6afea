package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"golts/internal/lts"
	"golts/internal/mesh"
	"golts/internal/newmark"
	"golts/internal/parallel"
	"golts/internal/partition"
	"golts/internal/sem"
	"golts/wave"
)

// Computed cost of one deg-4 element stiffness application, from the loop
// structure of internal/sem's batched kernels (125 points, 5-point
// contractions) and the sizes of the arrays one element touches. Flops:
// a gradient sweep is 3 planes x 125 points x (5 mul + 4 add); a
// transposed sweep is 125 x (9 + 10 + 10); the pointwise stress pass is 9
// (acoustic) or 39 (isotropic elastic) per point; the scatter adds one
// per value. Bytes are compulsory traffic with no reuse between
// elements: the connectivity row read by gather and by scatter (2 x 125 x
// 4), u gathered (125 x comps x 8), dst read and written (125 x comps x
// 16), and the element's packed plan constants. Cache misses are not in
// it; the numbers are labelled computed wherever they are printed.
func kernelCost(physics wave.Physics) (flops, bytes float64) {
	const grad, trans, pts = 3 * 125 * 9, 125 * 29, 125
	if physics == wave.Elastic {
		return 3*grad + pts*39 + 3*trans + 3*pts, 2*pts*4 + 3*pts*8 + 3*pts*16 + 6*8
	}
	return grad + pts*9 + trans + pts, 2*pts*4 + pts*8 + pts*16 + 3*8
}

// geomOp is what the composed pipeline needs from the concrete
// operators: the stiffness kernels plus node coordinates for placement.
type geomOp interface {
	sem.BatchKernel
	sem.Connectivity
	NodeCoords(n int32) (x, y, z float64)
}

// timedOp is the timing decorator the traced run inserts below the
// stepper and below the parallel engine. It forwards every call
// unchanged (plans are the wrapped operator's own, so results keep their
// bits) and records a span plus busy time and element count per
// stiffness application. Calls may arrive concurrently from the engine's
// workers, hence the atomics.
type timedOp struct {
	sem.BatchKernel
	tr    *tracer
	name  string
	busy  atomic.Int64 // ns inside the wrapped kernel
	elems atomic.Int64 // element stiffness applications
	plans atomic.Int64 // ns building batch plans
}

func (o *timedOp) record(start time.Time, elems int) {
	end := time.Now()
	o.busy.Add(end.Sub(start).Nanoseconds())
	o.elems.Add(int64(elems))
	o.tr.add(o.name, underOpen, start, end)
}

func (o *timedOp) AddKuBatch(dst, u []float64, plan sem.BatchPlan, bs *sem.BatchScratch) {
	start := time.Now()
	o.BatchKernel.AddKuBatch(dst, u, plan, bs)
	o.record(start, len(plan.Elems()))
}

func (o *timedOp) AddKuScratch(dst, u []float64, elems []int32, sc *sem.Scratch) {
	start := time.Now()
	o.BatchKernel.AddKuScratch(dst, u, elems, sc)
	o.record(start, len(elems))
}

func (o *timedOp) AddKu(dst, u []float64, elems []int32) {
	start := time.Now()
	o.BatchKernel.AddKu(dst, u, elems)
	o.record(start, len(elems))
}

func (o *timedOp) NewBatchPlan(elems []int32) sem.BatchPlan {
	start := time.Now()
	pl := o.BatchKernel.NewBatchPlan(elems)
	end := time.Now()
	o.plans.Add(end.Sub(start).Nanoseconds())
	o.tr.add("plan_build", underOpen, start, end)
	return pl
}

func (o *timedOp) ConnTable() ([]int32, int) { return sem.ConnOf(o.BatchKernel) }
func (o *timedOp) Prepare(elems []int32)     { sem.Prepare(o.BatchKernel, elems) }

var (
	_ sem.BatchKernel  = (*timedOp)(nil)
	_ sem.Connectivity = (*timedOp)(nil)
	_ sem.Preparer     = (*timedOp)(nil)
)

// pipeline is the solver composed from the layers' public constructors,
// the same sequence wave.build runs: mesh.Trench -> mesh.AssignLevels ->
// operator -> partition.Assign -> parallel.NewOperator ->
// lts.FromMeshLevels / newmark.New. With a tracer, every constructor
// call is a span and timedOp decorators sit below the stepper and below
// the engine; without one the layers are wired directly, which gives the
// untraced reference the tracing overhead is measured against.
type pipeline struct {
	tr     *tracer
	kernel *timedOp // below the engine (or the only one when sequential)
	apply  *timedOp // below the stepper, above the engine; nil when sequential
	pop    *parallel.PartitionedOperator
	ltsS   *lts.Scheme
	gS     *newmark.Stepper
	pmax   int
	recs   []*sem.Receiver
}

func (p *pipeline) span(name string, fn func()) {
	if p.tr == nil {
		fn()
		return
	}
	id := p.tr.begin(name)
	fn()
	p.tr.end(id)
}

// nearestNode mirrors the facade's placement rule (brute-force nearest
// GLL node, ties to the lowest id), so the composed pipeline drives the
// same dofs and must reproduce the facade's seismogram bit for bit.
func nearestNode(op geomOp, x, y, z float64) int {
	best, bd := 0, math.Inf(1)
	for n := 0; n < op.NumNodes(); n++ {
		nx, ny, nz := op.NodeCoords(int32(n))
		if d := (nx-x)*(nx-x) + (ny-y)*(ny-y) + (nz-z)*(nz-z); d < bd {
			best, bd = n, d
		}
	}
	return best
}

func buildPipeline(w workload, pl placement, seed int64, tr *tracer) (*pipeline, error) {
	p := &pipeline{tr: tr}
	var err error
	var m *mesh.Mesh
	var lv *mesh.Levels
	var geom geomOp
	p.span("mesh_build", func() { m = mesh.Trench(w.Scale) })
	p.span("levels", func() { lv = mesh.AssignLevels(m, cfl/(degree*degree), 0) })
	p.span("operator_build", func() {
		if w.Physics == wave.Elastic {
			geom, err = sem.NewElastic3D(m, degree, false, 0)
		} else {
			geom, err = sem.NewAcoustic3D(m, degree, false)
		}
	})
	if err != nil {
		return nil, err
	}
	var inner sem.BatchKernel = geom
	if tr != nil {
		p.kernel = &timedOp{BatchKernel: geom, tr: tr, name: "kernel"}
		inner = p.kernel
	}
	step := inner
	// The width of the decomposition: the distributed workload's composed
	// stand-in is the shared-memory pipeline of the same width, which is
	// bitwise-equal to it by the backends' contract.
	if k := max(w.Workers, w.Ranks); k > 1 {
		var part []int32
		p.span("partition", func() { part, err = partition.Assign(m, lv, k, partition.ScotchP, seed) })
		if err != nil {
			return nil, err
		}
		p.span("engine_build", func() { p.pop, err = parallel.NewOperator(inner, part, k) })
		if err != nil {
			return nil, err
		}
		p.pop.SetTelemetry(tr != nil)
		step = p.pop
		if tr != nil {
			p.apply = &timedOp{BatchKernel: p.pop, tr: tr, name: "shm_apply"}
			step = p.apply
		}
	}
	nc := geom.Comps()
	src := []sem.Source{{
		Dof: nearestNode(geom, pl.Source.X, pl.Source.Y, pl.Source.Z)*nc + pl.Source.Comp,
		W:   sem.Ricker{F0: pl.Source.F0, T0: pl.Source.T0},
	}}
	p.pmax = lv.PMax()
	p.span("stepper_build", func() {
		if w.LTS {
			if p.ltsS, err = lts.FromMeshLevels(step, lv, true); err == nil {
				p.ltsS.SetSources(src)
			}
		} else {
			p.gS = newmark.New(step, lv.CoarseDt/float64(p.pmax))
			p.gS.Sources = src
		}
	})
	if err != nil {
		p.close()
		return nil, err
	}
	for _, r := range pl.Receivers {
		p.recs = append(p.recs, &sem.Receiver{Dof: nearestNode(geom, r.X, r.Y, r.Z)*nc + r.Comp})
	}
	return p, nil
}

func (p *pipeline) close() {
	if p.pop != nil {
		p.pop.Close()
	}
}

// cycle advances one coarse step and records the receivers, as the
// facade's Run loop does.
func (p *pipeline) cycle() {
	var t float64
	var u []float64
	p.span("step", func() {
		if p.ltsS != nil {
			p.ltsS.Step()
			t, u = p.ltsS.Time(), p.ltsS.U
		} else {
			p.gS.Run(p.pmax)
			t, u = p.gS.Time(), p.gS.U
		}
	})
	for _, r := range p.recs {
		r.Record(t, u)
	}
}

// run steps n cycles and returns their wall times.
func (p *pipeline) run(n int) []float64 {
	ms := make([]float64, n)
	for i := range ms {
		t := time.Now()
		p.cycle()
		ms[i] = msSince(t)
	}
	return ms
}

func (p *pipeline) digest() (string, bool) {
	var traces [][]float64
	for _, r := range p.recs {
		n := len(r.Values)
		if n > checkCycles {
			n = checkCycles
		}
		traces = append(traces, r.Values[:n])
	}
	return digestFloats(traces), tracesLive(traces)
}

// layerUnits is every per-layer metric with its unit: the traced round
// of any workload reports all of them, zero where the layer is not on
// the workload's path.
var layerUnits = map[string]string{
	"mesh_build_ms": "ms", "levels_ms": "ms", "operator_build_ms": "ms", "partition_ms": "ms",
	"engine_build_ms": "ms", "stepper_build_ms": "ms", "plan_build_ms": "ms",
	"kernel_ms_per_cycle": "ms", "kernel_elem_applies_per_cycle": "count", "kernel_ns_per_elem": "ns",
	"flops_per_elem": "flop", "bytes_per_elem": "B", "kernel_gflops": "GFLOP/s", "flops_per_byte": "flop/B",
	"lts_self_ms_per_cycle": "ms", "lts_work_saving": "ratio", "eq9_speedup": "ratio", "lts_wall_speedup": "ratio",
	"parallel_wall_speedup":     "ratio",
	"newmark_self_ms_per_cycle": "ms",
	"shm_apply_ms_per_cycle":    "ms", "shm_worker_busy_max_ms": "ms", "shm_imbalance": "ratio",
	"shm_self_ms_per_cycle": "ms", "shm_messages_per_cycle": "count", "shm_volume_per_cycle": "count",
	"dist_step_ms_per_cycle": "ms", "dist_snapshot_ms": "ms", "dist_rank_kernel_max_ms": "ms",
	"dist_overhead_ms_per_cycle": "ms", "halo_msgs_per_cycle": "count", "halo_values_per_cycle": "count",
	"rank_spawn_s":             "s",
	"facade_self_ms_per_cycle": "ms", "ckpt_write_ms": "ms", "ckpt_bytes": "B",
	"submit_ms": "ms", "first_row_ms": "ms", "stream_ms": "ms", "cache_hit_rate": "ratio", "queue_depth_max": "count",
	"unattributed_pct": "%", "trace_overhead_pct": "%",
}

// layerSet collects per-layer values and fills the rest with zeros.
type layerSet map[string]metric

func (l layerSet) put(name string, v float64) {
	unit, ok := layerUnits[name]
	if !ok {
		panic("benchmark: unknown per-layer metric " + name)
	}
	l[name] = metric{v, unit}
}

func (l layerSet) fill() {
	for name, unit := range layerUnits {
		if _, ok := l[name]; !ok {
			l[name] = metric{0, unit}
		}
	}
}

func spanMs(tot map[string]spanTotals, name string) float64 { return float64(tot[name].Dur) / 1e6 }

// splitCycles separates the timed cycles of a distributed run into
// ordinary ones and those that end with the coordinator's state snapshot
// (every 4th cycle of the run under the facade's default recovery
// settings; the warm-up is one full interval).
func splitCycles(cycleMs []float64) (ordinary, snapshot []float64) {
	for i, ms := range cycleMs {
		if (i+1)%4 == 0 {
			snapshot = append(snapshot, ms)
		} else {
			ordinary = append(ordinary, ms)
		}
	}
	return ordinary, snapshot
}

func mean(v []float64) float64 { return meanPerOp(sum(v), len(v)) }

// traceSolver is the traced round of a solver workload. Four runs of the
// same inputs are alive at once and are stepped in turn, one block of
// cycles each, so that drift of the machine falls on all of them alike:
// the facade run (untraced: the end-to-end reference and its seismogram
// digest), for the distributed workload a second facade run with the
// ranks' kernel telemetry on, the composed pipeline without decorators,
// and the composed pipeline with them. Short reference runs follow:
// global Newmark for the LTS workloads, one worker for the parallel ones.
func traceSolver(w workload, spec roundSpec) (*roundResult, error) {
	pl, err := place(w.Scale, w.Physics, spec.Seed)
	if err != nil {
		return nil, err
	}
	res := &roundResult{}
	ls := layerSet{}
	problem := func(format string, args ...any) {
		res.Problems = append(res.Problems, fmt.Sprintf(format, args...))
	}

	fac, err := startFacade(w.options(pl, spec.Seed))
	if err != nil {
		return nil, err
	}
	defer fac.sim.Close()
	var tel *facadeRun
	if w.Ranks > 0 {
		// The ranks are other processes and cannot be decorated; their own
		// kernel telemetry stands in for the trace.
		tel, err = startFacade(append(w.options(pl, spec.Seed),
			wave.WithBackend(wave.Distributed{Ranks: w.Ranks, Parts: w.Ranks, Telemetry: true})))
		if err != nil {
			return nil, err
		}
		defer tel.sim.Close()
	}
	plain, err := buildPipeline(w, pl, spec.Seed, nil)
	if err != nil {
		return nil, err
	}
	defer plain.close()
	plain.run(warmCycles)
	tr := newTracer(w.Name)
	comp, err := buildPipeline(w, pl, spec.Seed, tr)
	if err != nil {
		return nil, err
	}
	defer comp.close()
	comp.run(warmCycles) // builds the lazy batch plans
	planNs := comp.kernel.plans.Load()
	if comp.apply != nil {
		planNs = comp.apply.plans.Load() // spans the per-rank plans built beneath it
	}
	setup := totalsByName(tr.spans)
	setupSpans := len(tr.spans)
	busy0, elems0 := comp.kernel.busy.Load(), comp.kernel.elems.Load()
	var worker0 []int64
	var eng0 parallel.Stats
	if comp.pop != nil {
		worker0, eng0 = comp.pop.WorkerBusyNanos(), comp.pop.Stats()
	}

	var plainMs, compMs []float64
	for start := time.Now(); len(compMs) < checkCycles-warmCycles || time.Since(start).Seconds() < 0.7*spec.Seconds; {
		if err := fac.block(); err != nil {
			return nil, err
		}
		if tel != nil {
			if err := tel.block(); err != nil {
				return nil, err
			}
		}
		plainMs = append(plainMs, plain.run(blockCycles)...)
		compMs = append(compMs, comp.run(blockCycles)...)
	}
	n := float64(len(compMs))

	facStats := fac.sim.Stats()
	traces := prefix(fac.sim.Seismograms())
	res.Digest, res.Live = digestFloats(traces), tracesLive(traces)
	res.OpMs, res.WallMs = fac.cycleMs, sum(fac.cycleMs)
	res.SetupS, res.BuildS = fac.setupS, fac.buildS
	res.Elements, res.SIMD = facStats.Elements, facStats.SIMD
	res.ElemAppliesCycle = facStats.ElemApplies / facStats.Cycles
	res.PeakRSSMB = peakRSSMB()
	plainDigest, _ := plain.digest()
	compDigest, _ := comp.digest()
	if plainDigest != res.Digest || compDigest != res.Digest {
		problem("trace rejected: composed pipeline digests %.12s and %.12s, the facade's is %.12s", plainDigest, compDigest, res.Digest)
	}
	busy := float64(comp.kernel.busy.Load() - busy0)
	elems := float64(comp.kernel.elems.Load() - elems0)
	if int64(elems) != res.ElemAppliesCycle*int64(n) {
		problem("kernel decorator saw %d element applies in %d cycles, the facade's Stats say %d per cycle", int64(elems), int64(n), res.ElemAppliesCycle)
	}

	ckptPath := filepath.Join(spec.TmpDir, fmt.Sprintf("ckpt-%s-%d", w.Name, os.Getpid()))
	t := time.Now()
	if err := fac.sim.Checkpoint(ckptPath); err != nil {
		return nil, err
	}
	ls.put("ckpt_write_ms", msSince(t))
	if fi, err := os.Stat(ckptPath); err == nil {
		ls.put("ckpt_bytes", float64(fi.Size()))
	}
	os.Remove(ckptPath)

	ls.put("mesh_build_ms", spanMs(setup, "mesh_build"))
	ls.put("levels_ms", spanMs(setup, "levels"))
	ls.put("operator_build_ms", spanMs(setup, "operator_build"))
	ls.put("partition_ms", spanMs(setup, "partition"))
	ls.put("engine_build_ms", spanMs(setup, "engine_build"))
	ls.put("stepper_build_ms", spanMs(setup, "stepper_build"))
	ls.put("plan_build_ms", float64(planNs)/1e6)
	flops, bytes := kernelCost(w.Physics)
	ls.put("kernel_ms_per_cycle", busy/1e6/n)
	ls.put("kernel_elem_applies_per_cycle", elems/n)
	ls.put("kernel_ns_per_elem", busy/elems)
	ls.put("flops_per_elem", flops)
	ls.put("bytes_per_elem", bytes)
	ls.put("kernel_gflops", flops*elems/busy)
	ls.put("flops_per_byte", flops/bytes)
	steady := totalsByName(tr.spans[setupSpans:])
	stepSelf := float64(steady["step"].Self) / 1e6 / n
	if w.LTS {
		ls.put("lts_self_ms_per_cycle", stepSelf)
		ls.put("lts_work_saving", facStats.EffectiveSpeedup)
		ls.put("eq9_speedup", facStats.TheoreticalSpeedup)
	} else {
		ls.put("newmark_self_ms_per_cycle", stepSelf)
	}
	// The critical path through the kernels: all of the kernel time when
	// sequential, the busiest worker when the engine runs them side by
	// side.
	critical, shmSelf := busy/1e6/n, 0.0
	if comp.pop != nil {
		wb := comp.pop.WorkerBusyNanos()
		maxB, sumB := 0.0, 0.0
		for i := range wb {
			d := float64(wb[i] - worker0[i])
			sumB += d
			maxB = math.Max(maxB, d)
		}
		applyMs := float64(steady["shm_apply"].Dur) / 1e6 / n
		critical = maxB / 1e6 / n
		shmSelf = applyMs - critical
		if w.Ranks == 0 { // on the distributed workload the engine is only the stand-in
			eng := comp.pop.Stats()
			ls.put("shm_apply_ms_per_cycle", applyMs)
			ls.put("shm_worker_busy_max_ms", critical)
			ls.put("shm_imbalance", maxB/(sumB/float64(len(wb))))
			ls.put("shm_self_ms_per_cycle", shmSelf)
			ls.put("shm_messages_per_cycle", float64(eng.Messages-eng0.Messages)/n)
			ls.put("shm_volume_per_cycle", float64(eng.Volume-eng0.Volume)/n)
		}
	}
	ls.put("unattributed_pct", 100*(mean(compMs)-critical-shmSelf-stepSelf)/mean(compMs))
	ls.put("trace_overhead_pct", 100*(median(compMs)-median(plainMs))/median(plainMs))
	if tel == nil {
		ls.put("facade_self_ms_per_cycle", median(fac.cycleMs)-median(plainMs))
	} else {
		if d := digestFloats(prefix(tel.sim.Seismograms())); d != res.Digest {
			problem("distributed run with telemetry: digest %.12s, without %.12s", d, res.Digest)
		}
		local := spanMs(setup, "mesh_build") + spanMs(setup, "levels") + spanMs(setup, "operator_build") + spanMs(setup, "partition")
		ls.put("rank_spawn_s", fac.buildS-local/1e3)
		ls.putDist(fac, tel, facStats, stepSelf)
	}

	// reference steps a variant of the workload for a few cycles and
	// returns how many times slower than the facade run it is per cycle.
	reference := func(ref workload) (float64, error) {
		g, err := stepFacade(ref.options(pl, spec.Seed), 0, blockCycles)
		if err != nil {
			return 0, err
		}
		g.sim.Close()
		return mean(g.cycleMs) / mean(fac.cycleMs), nil
	}
	if w.LTS {
		ref := w
		ref.LTS = false
		x, err := reference(ref)
		if err != nil {
			return nil, err
		}
		ls.put("lts_wall_speedup", x)
	}
	if max(w.Workers, w.Ranks) > 1 {
		ref := w
		ref.Workers, ref.Ranks = 1, 0
		x, err := reference(ref)
		if err != nil {
			return nil, err
		}
		ls.put("parallel_wall_speedup", x)
	}

	if spec.TraceOut != "" {
		if err := writeSpans(spec.TraceOut, tr.spans); err != nil {
			return nil, err
		}
	}
	ls.fill()
	res.Layer = ls
	return res, nil
}

// putDist reports the distributed backend's layers from two facade runs
// of one configuration, without (fac) and with (tel) the ranks' kernel
// telemetry. stepSelf is the stepper's own time per cycle in the composed
// pipeline of the same width; what an ordinary cycle takes beyond it and
// the busiest rank's kernel is exchange and control.
func (ls layerSet) putDist(fac, tel *facadeRun, facStats wave.Stats, stepSelf float64) {
	st := tel.sim.Stats()
	ordinary, snapshot := splitCycles(tel.cycleMs)
	untraced, _ := splitCycles(fac.cycleMs)
	rankMax := 0.0
	for r := range st.LevelTimes[0].RankNanos {
		ns := 0.0
		for _, lvl := range st.LevelTimes {
			ns += float64(lvl.RankNanos[r])
		}
		rankMax = math.Max(rankMax, ns/1e6/float64(st.Cycles))
	}
	ls.put("dist_step_ms_per_cycle", mean(ordinary))
	ls.put("dist_snapshot_ms", mean(snapshot)-mean(ordinary))
	ls.put("dist_rank_kernel_max_ms", rankMax)
	ls.put("dist_overhead_ms_per_cycle", mean(ordinary)-rankMax-stepSelf)
	ls.put("halo_msgs_per_cycle", float64(facStats.Engine.Messages)/float64(facStats.Cycles))
	ls.put("halo_values_per_cycle", float64(facStats.Engine.Volume)/float64(facStats.Cycles))
	// The telemetry's cost, in place of the decorators'.
	ls.put("trace_overhead_pct", 100*(median(ordinary)-median(untraced))/median(untraced))
}

// traceServe is the traced round of a serve workload: the end-to-end
// round again with client-side spans per job and the queue depth polled,
// plus one composed build of the first job's configuration for the
// set-up layers.
func traceServe(w workload, spec roundSpec) (*roundResult, error) {
	tr := newTracer(w.Name)
	res, err := runServe(w, spec, tr)
	if err != nil {
		return nil, err
	}
	ls := layerSet(res.Layer)

	pl, err := place(w.JobScales[0], wave.Acoustic, spec.Seed)
	if err != nil {
		return nil, err
	}
	btr := newTracer(w.Name)
	job := workload{Physics: wave.Acoustic, LTS: true, Scale: w.JobScales[0], Workers: 1}
	comp, err := buildPipeline(job, pl, spec.Seed, btr)
	if err != nil {
		return nil, err
	}
	comp.cycle()
	comp.close()
	setup := totalsByName(btr.spans)
	ls.put("mesh_build_ms", spanMs(setup, "mesh_build"))
	ls.put("levels_ms", spanMs(setup, "levels"))
	ls.put("operator_build_ms", spanMs(setup, "operator_build"))
	ls.put("stepper_build_ms", spanMs(setup, "stepper_build"))
	ls.put("plan_build_ms", float64(comp.kernel.plans.Load())/1e6)

	if spec.TraceOut != "" {
		if err := writeSpans(spec.TraceOut, tr.spans); err != nil {
			return nil, err
		}
	}
	ls.fill()
	return res, nil
}
