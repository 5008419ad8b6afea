// Command benchmark is the repository's end-to-end benchmark: six named
// workloads over the wave facade and the job service, end-to-end metrics
// measured with tracing off, and a separate traced run that attributes a
// cycle (or a job) to the layers. See README.md in this directory.
//
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
//	bash benchmark/run.sh -seed 1 -out report.json -trace-out spans
//	bash benchmark/run.sh -aa
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"

	"golts/internal/sem"
	"golts/wave"
)

// rounds is how many child processes measure one workload in a run: each
// pays set-up from scratch, so setup_s and peak_rss_mb are medians over
// rounds, and ms_per_op is the median of the rounds' means.
const rounds = 3

// goldenJSON pins, per workload, the digest of the correctness prefix for
// -seed 1 on amd64 (every SIMD tier is bitwise-equal, so one value serves
// all of them).
//
//go:embed golden.json
var goldenJSON []byte

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	out      string
	traceOut string
	aa       bool
	quick    bool
}

func main() {
	wave.RankMain()
	childMain()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var cfg config
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "", "run only this workload and end with the driver's one-line JSON result (default: all workloads, both runs)")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: source position, partitioner seed, serve job sequence")
	fs.Float64Var(&cfg.seconds, "seconds", 15, "timed seconds per workload and run, split over the rounds")
	fs.IntVar(&cfg.trace, "trace", 0, "with -workload: 0 measures the end-to-end metrics, 1 the per-layer metrics")
	fs.StringVar(&cfg.out, "out", "", "write the full report as JSON to this file")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "write the traced runs' spans to <prefix>.<workload>.trace.json")
	fs.BoolVar(&cfg.aa, "aa", false, "A/A: measure every workload twice and fail if two medians differ by more than the metric's bound")
	fs.BoolVar(&cfg.quick, "quick", false, "tiny sizes; for tests, the timings mean nothing")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintln(stderr, "benchmark: unexpected argument", fs.Arg(0))
		return 2
	}
	b, err := newBench(cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(b.tmp)
	switch {
	case cfg.aa:
		err = b.runAA()
	case cfg.workload != "":
		err = b.runOne()
	default:
		err = b.runSuite()
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// bench is one invocation of the harness.
type bench struct {
	cfg       config
	out       io.Writer
	tmp       string
	golden    map[string]string
	spec      *benchmarkSpec
	workloads []workload // the table, shrunk under -quick
}

func newBench(cfg config, out io.Writer) (*bench, error) {
	b := &bench{cfg: cfg, out: out}
	if err := json.Unmarshal(goldenJSON, &b.golden); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	var err error
	if b.spec, err = loadSpec(); err != nil {
		return nil, err
	}
	for _, w := range workloads {
		if cfg.quick {
			w = w.quickened()
		}
		b.workloads = append(b.workloads, w)
	}
	base := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	b.tmp, err = os.MkdirTemp(base, "run-")
	return b, err
}

func (b *bench) printf(format string, args ...any) { fmt.Fprintf(b.out, format, args...) }

func (b *bench) round(w workload, trace bool) roundSpec {
	s := roundSpec{Workload: w.Name, Seed: b.cfg.seed, Quick: b.cfg.quick, Trace: trace, TmpDir: b.tmp}
	if trace {
		s.Seconds = b.cfg.seconds
		if b.cfg.traceOut != "" {
			s.TraceOut = fmt.Sprintf("%s.%s.trace.json", b.cfg.traceOut, w.Name)
		}
	} else {
		s.Seconds = b.cfg.seconds / rounds
	}
	return s
}

// result is one workload's outcome from one kind of run.
type result struct {
	Workload string
	Seed     int64
	Metrics  map[string]metric
	// Quartiles are over the rounds' own values of each end-to-end metric.
	Quartiles map[string][3]float64 `json:",omitempty"`
	Attempted int                   // operations, pooled over the rounds
	Failed    int
	Correct   bool
	Checks    []string
	Digest    string
	Info      string
	Rounds    []*roundResult
	// NeedsTwoCPUs marks workloads whose wall-clock metrics mean nothing
	// on a single CPU.
	NeedsTwoCPUs bool
}

// measure runs the end-to-end rounds of the given workloads, interleaved
// (round 1 of every workload, then round 2, ...) so that slow drift of
// the machine spreads over all of them.
func (b *bench) measure(ws []workload) (map[string][]*roundResult, error) {
	out := make(map[string][]*roundResult)
	for r := 0; r < rounds; r++ {
		for _, w := range ws {
			res, err := runChild(b.round(w, false))
			if err != nil {
				return nil, err
			}
			out[w.Name] = append(out[w.Name], res)
		}
	}
	return out, nil
}

// endToEnd folds the rounds of one workload into its end-to-end metrics.
// The tail is reported relative to the median: on a shared machine whose
// speed drifts over minutes both percentiles move together, and their
// ratio repeats far better than the 90th percentile itself.
func endToEnd(rs []*roundResult) (map[string]metric, map[string][3]float64) {
	per := map[string][]float64{}
	var pooled []float64
	for _, r := range rs {
		per["ms_per_op"] = append(per["ms_per_op"], meanPerOp(r.WallMs, len(r.OpMs)))
		per["op_p50_ms"] = append(per["op_p50_ms"], median(r.OpMs))
		per["op_p90_over_p50"] = append(per["op_p90_over_p50"], percentile(r.OpMs, 90)/median(r.OpMs))
		per["setup_s"] = append(per["setup_s"], r.SetupS)
		per["peak_rss_mb"] = append(per["peak_rss_mb"], r.PeakRSSMB)
		pooled = append(pooled, r.OpMs...)
	}
	m := map[string]metric{
		"ms_per_op":       {median(per["ms_per_op"]), "ms"},
		"op_p50_ms":       {median(pooled), "ms"},
		"op_p90_over_p50": {percentile(pooled, 90) / median(pooled), "ratio"},
		"setup_s":         {median(per["setup_s"]), "s"},
		"peak_rss_mb":     {median(per["peak_rss_mb"]), "MB"},
	}
	q := map[string][3]float64{}
	for name, v := range per {
		q[name] = quartiles(v)
	}
	return m, q
}

func (res *result) setEndToEnd(rs []*roundResult) {
	res.Metrics, res.Quartiles = endToEnd(rs)
	res.Info += fmt.Sprintf(", op_p90 %.4g ms", res.Metrics["op_p90_over_p50"].Value*res.Metrics["op_p50_ms"].Value)
}

// verify applies the correctness gate to a workload's rounds. refDigest,
// if not empty, is the digest a bitwise-equal backend produced for the
// same inputs. A failed check fails every operation of the workload.
func (b *bench) verify(w workload, rs []*roundResult, refDigest string) *result {
	res := &result{Workload: w.Name, Seed: b.cfg.seed, Correct: true, Digest: rs[0].Digest, Rounds: rs,
		NeedsTwoCPUs: max(w.Workers, w.Ranks) > 1}
	check := func(ok bool, name, detail string) {
		if ok {
			res.Checks = append(res.Checks, "ok "+name)
		} else {
			res.Checks = append(res.Checks, "FAIL "+name+": "+detail)
			res.Correct = false
		}
	}
	var problems []string
	live, agree := true, true
	for _, r := range rs {
		res.Attempted += len(r.OpMs)
		res.Failed += r.Failed
		problems = append(problems, r.Problems...)
		live = live && r.Live
		agree = agree && r.Digest == rs[0].Digest
		for i, d := range r.JobDigests {
			if d0, ok := rs[0].JobDigests[i]; ok && d0 != d {
				agree = false
			}
		}
	}
	check(len(problems) == 0, "run", strings.Join(problems, "; "))
	// Every comparison below is refused unless each trace carries a finite
	// nonzero sample: equal digests of all-zero seismograms prove nothing.
	check(live, "nonzero", "a receiver trace is all zero or not finite within the checked prefix")
	if live {
		check(agree, "rounds-agree", "rounds of one configuration produced different outputs")
		if refDigest != "" {
			check(res.Digest == refDigest, "cross-backend", fmt.Sprintf("digest %.12s, the bitwise-equal backend's is %.12s", res.Digest, refDigest))
		}
		switch {
		case b.cfg.seed != 1 || b.cfg.quick || runtime.GOARCH != "amd64":
			res.Checks = append(res.Checks, "skipped golden (pinned for -seed 1 on amd64 at full size)")
		default:
			check(res.Digest == b.golden[w.Name], "golden", fmt.Sprintf("digest %s, golden.json has %q", res.Digest, b.golden[w.Name]))
		}
	}
	if !res.Correct {
		res.Failed = res.Attempted
	}
	r0 := rs[0]
	if w.Serve {
		res.Info = fmt.Sprintf("%d clients closed loop, %d cycles per job, cache hit rate %.3f", serveClients, w.JobCycles, r0.CacheHitRate)
	} else {
		res.Info = fmt.Sprintf("%d elements, %d elem-applies/cycle, simd %s", r0.Elements, r0.ElemAppliesCycle, r0.SIMD)
		if ms := meanPerOp(r0.WallMs, len(r0.OpMs)); ms > 0 {
			res.Info += fmt.Sprintf(", %.3g elem-applies/s", float64(r0.ElemAppliesCycle)/ms*1e3)
		}
	}
	return res
}

// shmTwin is the shared-memory workload the distributed one must equal
// bit for bit: the same configuration with Workers = Ranks on the local
// backend.
const shmTwin = "shm2-lts-elastic"

// reference returns the digest of a short run of w's shared-memory twin
// (empty for a workload that has none).
func (b *bench) reference(w workload) (string, error) {
	if w.Ranks == 0 {
		return "", nil
	}
	spec := b.round(w, false)
	spec.Workload = shmTwin
	spec.Seconds = 0
	r, err := runChild(spec)
	if err != nil {
		return "", err
	}
	return r.Digest, nil
}

func (b *bench) report(res *result, defs []metricDef) {
	b.printf("== %s  seed %d  %s\n", res.Workload, res.Seed, res.Info)
	unresolved := res.NeedsTwoCPUs && runtime.NumCPU() < 2
	zeros := 0
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok {
			continue
		}
		if m.Value == 0 { // a layer that is not on this workload's path
			zeros++
			continue
		}
		val := fmt.Sprintf("%.6g %s", m.Value, m.Unit)
		if unresolved && (m.Unit == "ms" || m.Unit == "s") {
			val = "unresolved (num_cpu < 2)"
		}
		b.printf("  %-30s %s", d.Name, val)
		if q, ok := res.Quartiles[d.Name]; ok {
			b.printf("   rounds q1 %.6g med %.6g q3 %.6g", q[0], q[1], q[2])
		}
		b.printf("\n")
	}
	if zeros > 0 {
		b.printf("  (%d metrics of layers not on this workload's path are 0)\n", zeros)
	}
	b.printf("  failed_ops %d / attempted_ops %d   %s\n", res.Failed, res.Attempted, strings.Join(res.Checks, "; "))
}

// metricDef is one entry of BENCHMARK.json's metric lists.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchmarkSpec is BENCHMARK.json, which lies in the directory above
// this package and is the single place metric bounds are written down.
type benchmarkSpec struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []metricDef                  `json:"end_to_end"`
	PerLayer  []metricDef                  `json:"per_layer"`
}

func loadSpec() (*benchmarkSpec, error) {
	var raw []byte
	var err error
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		if raw, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	return &s, json.Unmarshal(raw, &s)
}

// traced runs the traced round of w and applies the correctness gate to
// it.
func (b *bench) traced(w workload, refDigest string) (*result, error) {
	r, err := runChild(b.round(w, true))
	if err != nil {
		return nil, err
	}
	res := b.verify(w, []*roundResult{r}, refDigest)
	res.Metrics = r.Layer
	return res, nil
}

// runOne is the driver's entry: one workload, one kind of run, and as
// the last line of output the result object.
func (b *bench) runOne() error {
	w, ok := findWorkload(b.cfg.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", b.cfg.workload)
	}
	if b.cfg.quick {
		w = w.quickened()
	}
	b.environment()
	ref, err := b.reference(w)
	if err != nil {
		return err
	}
	var res *result
	defs := b.spec.PerLayer
	if b.cfg.trace == 0 {
		defs = b.spec.EndToEnd
		rs, err := b.measure([]workload{w})
		if err != nil {
			return err
		}
		res = b.verify(w, rs[w.Name], ref)
		res.setEndToEnd(rs[w.Name])
	} else if res, err = b.traced(w, ref); err != nil {
		return err
	}
	b.report(res, defs)
	b.printf("load average after: %s\n", loadAvg())
	if err := b.writeOut(map[string]any{"environment": environmentMap(), "result": res}); err != nil {
		return err
	}
	line, _ := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": res.Metrics,
	})
	b.printf("%s\n", line)
	if !res.Correct {
		return fmt.Errorf("%s: correctness check failed", w.Name)
	}
	return nil
}

// suite measures every workload end to end; digests of bitwise-equal
// backends are compared with each other inside it.
func (b *bench) suite() ([]*result, error) {
	rs, err := b.measure(b.workloads)
	if err != nil {
		return nil, err
	}
	var out []*result
	for _, w := range b.workloads {
		ref := ""
		if w.Ranks > 0 {
			ref = rs[shmTwin][0].Digest
		}
		res := b.verify(w, rs[w.Name], ref)
		res.setEndToEnd(rs[w.Name])
		out = append(out, res)
	}
	return out, nil
}

// runSuite is the one command: every workload end to end, then every
// workload traced, all metrics printed by name with units.
func (b *bench) runSuite() error {
	b.environment()
	e2e, err := b.suite()
	if err != nil {
		return err
	}
	ok := true
	b.printf("\n-- end to end (tracing off, %d rounds of %.3g s per workload)\n", rounds, b.cfg.seconds/rounds)
	for _, res := range e2e {
		b.report(res, b.spec.EndToEnd)
		ok = ok && res.Correct
	}
	b.printf("\n-- per layer (one traced round per workload)\n")
	digests := map[string]string{}
	for _, res := range e2e {
		digests[res.Workload] = res.Digest
	}
	var layers []*result
	for _, w := range b.workloads {
		ref := ""
		if w.Ranks > 0 {
			ref = digests[shmTwin]
		}
		res, err := b.traced(w, ref)
		if err != nil {
			return err
		}
		b.report(res, b.spec.PerLayer)
		if !w.Serve {
			b.budget(w, res.Rounds[0])
		}
		layers = append(layers, res)
		ok = ok && res.Correct
	}
	b.printf("load average after: %s\n", loadAvg())
	if err := b.writeOut(map[string]any{"environment": environmentMap(), "end_to_end": e2e, "per_layer": layers}); err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("correctness check failed")
	}
	return nil
}

// writeOut writes the full report to the -out file, if one was asked for.
func (b *bench) writeOut(report map[string]any) error {
	if b.cfg.out == "" {
		return nil
	}
	raw, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(b.cfg.out, append(raw, '\n'), 0o644)
}

// budget prints where a cycle of the traced run went: the layers' self
// times against the cycle, and what is left over.
func (b *bench) budget(w workload, r *roundResult) {
	l := r.Layer
	v := func(name string) float64 { return l[name].Value }
	kernel := v("kernel_ms_per_cycle")
	if v("shm_worker_busy_max_ms") > 0 {
		kernel = v("shm_worker_busy_max_ms")
	}
	step := v("lts_self_ms_per_cycle") + v("newmark_self_ms_per_cycle")
	b.printf("  budget: kernel %.3f + engine %.3f + stepper %.3f ms of the composed cycle, unattributed %.2f %%; "+
		"facade adds %.3f ms; facade cycle %.3f ms\n",
		kernel, v("shm_self_ms_per_cycle"), step, v("unattributed_pct"),
		v("facade_self_ms_per_cycle"), meanPerOp(r.WallMs, len(r.OpMs)))
	if w.Ranks > 0 {
		b.printf("  budget (distributed): rank kernel %.3f + stepper %.3f + exchange and control %.3f = ordinary cycle %.3f ms; "+
			"snapshot cycles add %.3f ms\n",
			v("dist_rank_kernel_max_ms"), step, v("dist_overhead_ms_per_cycle"), v("dist_step_ms_per_cycle"), v("dist_snapshot_ms"))
	}
}

// runAA measures the whole set twice on the same binary and fails if
// any end-to-end metric's two values differ by more than its bound.
func (b *bench) runAA() error {
	b.environment()
	first, err := b.suite()
	if err != nil {
		return err
	}
	second, err := b.suite()
	if err != nil {
		return err
	}
	ok := true
	for i, a := range first {
		b.printf("== %s\n", a.Workload)
		for _, d := range b.spec.EndToEnd {
			x, y := a.Metrics[d.Name].Value, second[i].Metrics[d.Name].Value
			diff := (y - x) / x
			verdict := "ok"
			if diff > d.Bound || -diff > d.Bound {
				verdict, ok = "FAIL", false
			}
			b.printf("  %-14s %12.6g %12.6g %s  %+6.2f %% (bound %.0f %%) %s\n", d.Name, x, y, d.Unit, 100*diff, 100*d.Bound, verdict)
		}
		ok = ok && a.Correct && second[i].Correct
	}
	b.printf("load average after: %s\n", loadAvg())
	if !ok {
		return fmt.Errorf("A/A: two runs of the same binary disagree beyond the bounds")
	}
	return nil
}

func environmentMap() map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"go": runtime.Version(), "commit": commit, "goos": runtime.GOOS, "goarch": runtime.GOARCH,
		"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "simd": sem.ActiveSIMDTier(),
		"load_average": loadAvg(),
	}
}

func (b *bench) environment() {
	e := environmentMap()
	b.printf("environment: %s %s/%s commit %s num_cpu %d gomaxprocs %d simd %s load average before: %s\n",
		e["go"], e["goos"], e["goarch"], e["commit"], e["num_cpu"], e["gomaxprocs"], e["simd"], e["load_average"])
}
