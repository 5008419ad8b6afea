// Command wavedload exercises a waved service and reports its numbers.
//
// Two modes:
//
//	wavedload -smoke [-addr host:port]
//	    Acceptance smoke: submits two identical jobs and checks their
//	    streamed CSV rows are byte-identical with artifact-cache hits on
//	    the second, then submits-and-cancels a job and checks it lands
//	    in the cancelled state. Exit status 0 only if all checks pass.
//
//	wavedload [-jobs 32] [-clients 4] [-addr host:port]
//	    Load generation: -clients concurrent submitters push -jobs total
//	    jobs through the service and the run reports throughput (jobs/s),
//	    p50/p99 job latency and the artifact-cache hit rate, written as
//	    JSON to -out (default BENCH_serve.json) and echoed to stdout.
//
//	wavedload -restart-smoke [-out BENCH_fault.json] [-dist-report F]
//	    Durability smoke: runs a reference job on a spool-less service,
//	    then interrupts the same job mid-run on a spooled service (graceful
//	    shutdown), restarts the service on the same spool and checks the
//	    replayed job resumes from its checkpoint and delivers a row stream
//	    byte-identical to the uninterrupted reference. Writes restart /
//	    resume latency numbers to -out; -dist-report embeds a distrun
//	    -report JSON so one artifact carries both recovery paths.
//
//	wavedload -degraded-smoke [-out BENCH_degraded.json] [-scale 0.015]
//	    Degraded-mode smoke: runs a local reference job (with nonzero
//	    receiver amplitude, enforced), then the same configuration as a
//	    distributed job whose rank 1 is killed in generation 0 and again
//	    during the recovery replay, exhausting max_recoveries=1. The
//	    service must finish the job degraded (the dead rank retired, its
//	    parts redistributed), report degraded_ranks in the job JSON and
//	    /stats, and deliver rows byte-identical to the local reference.
//
// With no -addr, an in-process service is started on a loopback port so
// the tool is self-contained (the CI serve-smoke and fault-smoke jobs run
// it this way); requests still travel through real HTTP.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"golts/internal/serve"
	"golts/wave"
)

func main() {
	// The -degraded-smoke service runs distributed jobs, whose rank
	// processes are re-execs of this binary.
	wave.RankMain()
	addr := flag.String("addr", "", "waved address (empty: start an in-process service)")
	smoke := flag.Bool("smoke", false, "run the acceptance smoke instead of load generation")
	jobs := flag.Int("jobs", 32, "total jobs to submit in load mode")
	clients := flag.Int("clients", 4, "concurrent submitters in load mode")
	distinct := flag.Int("distinct", 4, "distinct configurations cycled through in load mode")
	scale := flag.Float64("scale", 0.0005, "mesh scale of the generated jobs")
	cycles := flag.Int("cycles", 2, "coarse cycles per job")
	out := flag.String("out", "BENCH_serve.json", "load-mode report path")
	restart := flag.Bool("restart-smoke", false, "run the checkpoint/restart durability smoke (owns its own services; ignores -addr)")
	distReport := flag.String("dist-report", "", "distrun -report JSON to embed in the -restart-smoke report")
	degraded := flag.Bool("degraded-smoke", false, "run the degraded-mode smoke: a distributed job survives permanent rank loss byte-identically (owns its own service; ignores -addr)")
	flag.Parse()

	if *restart {
		runRestartSmoke(*out, *distReport, *scale)
		return
	}
	if *degraded {
		runDegradedSmoke(*out, *scale)
		return
	}

	base := *addr
	if base == "" {
		srv, err := serve.New(serve.Config{Concurrency: 2, WorkerBudget: 2, MaxQueue: 1 << 16})
		if err != nil {
			fatal("serve: %v", err)
		}
		defer srv.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fatal("listen: %v", err)
		}
		go http.Serve(ln, srv.Handler())
		base = ln.Addr().String()
		fmt.Fprintf(os.Stderr, "wavedload: in-process service on %s\n", base)
	}
	url := "http://" + base

	if *smoke {
		runSmoke(url, *scale, *cycles)
		return
	}
	runLoad(url, *out, *jobs, *clients, *distinct, *scale, *cycles)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "wavedload: "+format+"\n", args...)
	os.Exit(1)
}

func config(scale float64, cycles, seed int) map[string]any {
	return map[string]any{
		"mesh":   "trench",
		"scale":  scale,
		"lts":    true,
		"cycles": cycles,
		"seed":   int64(seed),
	}
}

// jobStatus mirrors the service's job snapshot wire form.
type jobStatus struct {
	ID            string `json:"id"`
	Hash          string `json:"hash"`
	State         string `json:"state"`
	Error         string `json:"error"`
	Rows          int    `json:"rows"`
	DegradedRanks int    `json:"degraded_ranks"`
}

func submit(url string, cfg map[string]any) (jobStatus, error) {
	body, _ := json.Marshal(cfg)
	resp, err := http.Post(url+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return jobStatus{}, err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		return jobStatus{}, fmt.Errorf("submit: status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var st jobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		return jobStatus{}, err
	}
	return st, nil
}

// streamRows blocks until the job completes, returning its full CSV
// byte stream.
func streamRows(url, id string) ([]byte, error) {
	resp, err := http.Get(url + "/jobs/" + id + "/rows")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

func getStatus(url, id string) (jobStatus, error) {
	resp, err := http.Get(url + "/jobs/" + id)
	if err != nil {
		return jobStatus{}, err
	}
	defer resp.Body.Close()
	var st jobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

func waitState(url, id string, timeout time.Duration) (jobStatus, error) {
	deadline := time.Now().Add(timeout)
	for {
		st, err := getStatus(url, id)
		if err != nil {
			return st, err
		}
		switch st.State {
		case "done", "failed", "cancelled":
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("job %s stuck in %s", id, st.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func serviceStats(url string) (serve.StatsResponse, error) {
	resp, err := http.Get(url + "/stats")
	if err != nil {
		return serve.StatsResponse{}, err
	}
	defer resp.Body.Close()
	var st serve.StatsResponse
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

func runSmoke(url string, scale float64, cycles int) {
	// Two identical jobs: byte-identical rows, cache hits on the second.
	cfg := config(scale, cycles, 1)
	a, err := submit(url, cfg)
	if err != nil {
		fatal("%v", err)
	}
	rowsA, err := streamRows(url, a.ID)
	if err != nil {
		fatal("rows A: %v", err)
	}
	stA, err := waitState(url, a.ID, 5*time.Minute)
	if err != nil || stA.State != "done" {
		fatal("job A: %+v (%v)", stA, err)
	}
	b, err := submit(url, cfg)
	if err != nil {
		fatal("%v", err)
	}
	rowsB, err := streamRows(url, b.ID)
	if err != nil {
		fatal("rows B: %v", err)
	}
	if a.Hash != b.Hash {
		fatal("identical configs hashed differently: %s vs %s", a.Hash, b.Hash)
	}
	if len(rowsA) == 0 || !bytes.Equal(rowsA, rowsB) {
		fatal("cached rerun is not byte-identical to the cold run (%d vs %d bytes)", len(rowsA), len(rowsB))
	}
	stats, err := serviceStats(url)
	if err != nil {
		fatal("stats: %v", err)
	}
	if stats.Cache.Hits == 0 {
		fatal("no artifact-cache hits after an identical rerun: %+v", stats.Cache)
	}

	// Cancellation: a queued long job deleted right away lands cancelled.
	long := config(scale, 1000000, 1)
	c, err := submit(url, long)
	if err != nil {
		fatal("%v", err)
	}
	req, _ := http.NewRequest(http.MethodDelete, url+"/jobs/"+c.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err != nil {
		fatal("cancel: %v", err)
	} else {
		resp.Body.Close()
	}
	stC, err := waitState(url, c.ID, time.Minute)
	if err != nil || stC.State != "cancelled" {
		fatal("cancelled job state: %+v (%v)", stC, err)
	}

	fmt.Printf("smoke ok: %d identical bytes across cold+cached runs, %d cache hits, cancel works\n",
		len(rowsA), stats.Cache.Hits)
}

// report is the BENCH_serve.json schema.
type report struct {
	Jobs         int     `json:"jobs"`
	Clients      int     `json:"clients"`
	Distinct     int     `json:"distinct_configs"`
	Cycles       int     `json:"cycles"`
	Scale        float64 `json:"scale"`
	WallSeconds  float64 `json:"wall_seconds"`
	JobsPerSec   float64 `json:"jobs_per_sec"`
	P50LatencyMS float64 `json:"p50_latency_ms"`
	P99LatencyMS float64 `json:"p99_latency_ms"`
	CacheHits    int64   `json:"cache_hits"`
	CacheMisses  int64   `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	NumCPU       int     `json:"num_cpu"`
	GoMaxProcs   int     `json:"gomaxprocs"`
}

func runLoad(url, out string, jobs, clients, distinct int, scale float64, cycles int) {
	if clients < 1 {
		clients = 1
	}
	if distinct < 1 {
		distinct = 1
	}
	latencies := make([]time.Duration, jobs)
	errs := make([]error, jobs)
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= jobs {
					return
				}
				t0 := time.Now()
				st, err := submit(url, config(scale, cycles, 1+i%distinct))
				if err == nil {
					var fin jobStatus
					fin, err = waitState(url, st.ID, 10*time.Minute)
					if err == nil && fin.State != "done" {
						err = fmt.Errorf("job %s: %s (%s)", fin.ID, fin.State, fin.Error)
					}
				}
				latencies[i] = time.Since(t0)
				errs[i] = err
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	for _, err := range errs {
		if err != nil {
			fatal("load job failed: %v", err)
		}
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pct := func(p float64) float64 {
		idx := int(p * float64(len(latencies)-1))
		return float64(latencies[idx]) / float64(time.Millisecond)
	}
	stats, err := serviceStats(url)
	if err != nil {
		fatal("stats: %v", err)
	}
	rep := report{
		Jobs:         jobs,
		Clients:      clients,
		Distinct:     distinct,
		Cycles:       cycles,
		Scale:        scale,
		WallSeconds:  wall.Seconds(),
		JobsPerSec:   float64(jobs) / wall.Seconds(),
		P50LatencyMS: pct(0.50),
		P99LatencyMS: pct(0.99),
		CacheHits:    stats.Cache.Hits,
		CacheMisses:  stats.Cache.Misses,
		NumCPU:       runtime.NumCPU(),
		GoMaxProcs:   runtime.GOMAXPROCS(0),
	}
	if total := stats.Cache.Hits + stats.Cache.Misses; total > 0 {
		rep.CacheHitRate = float64(stats.Cache.Hits) / float64(total)
	}
	raw, _ := json.MarshalIndent(rep, "", "  ")
	raw = append(raw, '\n')
	if err := os.WriteFile(out, raw, 0o644); err != nil {
		fatal("write %s: %v", out, err)
	}
	os.Stdout.Write(raw)
}

// faultReport is the BENCH_fault.json schema: the waved restart/resume
// path, plus (when -dist-report is given) the distributed rank-recovery
// numbers from distrun -report.
type faultReport struct {
	Scale         float64         `json:"scale"`
	Cycles        int             `json:"cycles"`
	InterruptRows int             `json:"interrupt_rows"`
	TotalRows     int             `json:"total_rows"`
	RowsBytes     int             `json:"rows_bytes"`
	ResumeWallS   float64         `json:"resume_wall_seconds"`
	Replayed      int64           `json:"replayed"`
	Resumed       int64           `json:"resumed"`
	Checkpoints   int64           `json:"checkpoints"`
	ByteIdentical bool            `json:"byte_identical"`
	NumCPU        int             `json:"num_cpu"`
	GoMaxProcs    int             `json:"gomaxprocs"`
	Dist          json.RawMessage `json:"dist,omitempty"`
}

// startService runs an in-process serve.Server behind a real loopback
// HTTP listener, returning its base URL and a stop function.
func startService(cfg serve.Config) (*serve.Server, string, func()) {
	srv, err := serve.New(cfg)
	if err != nil {
		fatal("serve: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatal("listen: %v", err)
	}
	go http.Serve(ln, srv.Handler())
	stop := func() {
		ln.Close()
		srv.Close()
	}
	return srv, "http://" + ln.Addr().String(), stop
}

// csvHasNonzeroSample reports whether any sample column (every column
// after the leading time) of a CSV row stream holds a nonzero value.
func csvHasNonzeroSample(rows []byte) bool {
	for i, line := range strings.Split(string(rows), "\n") {
		if i == 0 { // header
			continue
		}
		fields := strings.Split(line, ",")
		for _, f := range fields[1:] {
			if v, err := strconv.ParseFloat(strings.TrimSpace(f), 64); err == nil && v != 0 {
				return true
			}
		}
	}
	return false
}

// runRestartSmoke checks the waved durability path end to end: a spooled
// job interrupted by a graceful shutdown replays on the next service
// instance, resumes from its checkpoint, and its delivered CSV stream is
// byte-identical to an uninterrupted run of the same configuration.
func runRestartSmoke(out, distReport string, scale float64) {
	const cycles = 40
	const interruptAt = cycles / 2
	cfg := config(scale, cycles, 1)

	// Uninterrupted reference on a spool-less service.
	_, refURL, stopRef := startService(serve.Config{Concurrency: 1, WorkerBudget: 1})
	ref, err := submit(refURL, cfg)
	if err != nil {
		fatal("reference submit: %v", err)
	}
	refRows, err := streamRows(refURL, ref.ID)
	if err != nil {
		fatal("reference rows: %v", err)
	}
	if st, err := waitState(refURL, ref.ID, 10*time.Minute); err != nil || st.State != "done" {
		fatal("reference job: %+v (%v)", st, err)
	}
	stopRef()
	// Anti-vacuity guard: a byte-comparison of all-zero sample columns
	// cannot distinguish a correct resume from one that resets the
	// wavefield, so the reference stream must carry nonzero samples
	// (run at -scale 0.015 or larger for the wave to reach a receiver).
	if !csvHasNonzeroSample(refRows) {
		fatal("vacuous reference: every sample in the row stream is zero (raise -scale)")
	}

	spool, err := os.MkdirTemp("", "wavedload-spool-")
	if err != nil {
		fatal("spool dir: %v", err)
	}
	defer os.RemoveAll(spool)

	// Interrupted run: spooled service, checkpoint every 2 cycles, shut
	// down mid-job once enough rows (and therefore checkpoints) exist.
	durable := serve.Config{Concurrency: 1, WorkerBudget: 1, SpoolDir: spool, CheckpointEvery: 2}
	_, bURL, stopB := startService(durable)
	job, err := submit(bURL, cfg)
	if err != nil {
		fatal("durable submit: %v", err)
	}
	var interruptRows int
	for deadline := time.Now().Add(10 * time.Minute); ; {
		st, err := getStatus(bURL, job.ID)
		if err != nil {
			fatal("durable status: %v", err)
		}
		if st.State != "queued" && st.State != "running" {
			fatal("job finished before the interrupt (state %s); raise cycles", st.State)
		}
		if st.Rows >= interruptAt {
			interruptRows = st.Rows
			break
		}
		if time.Now().After(deadline) {
			fatal("job never reached the interrupt threshold")
		}
		time.Sleep(10 * time.Millisecond)
	}
	stopB() // graceful: parks the running job, spool preserved

	// Restarted service on the same spool: the job replays and resumes.
	t0 := time.Now()
	_, cURL, stopC := startService(durable)
	defer stopC()
	gotRows, err := streamRows(cURL, job.ID)
	if err != nil {
		fatal("resumed rows: %v", err)
	}
	if st, err := waitState(cURL, job.ID, 10*time.Minute); err != nil || st.State != "done" {
		fatal("resumed job: %+v (%v)", st, err)
	}
	resumeWall := time.Since(t0)
	stats, err := serviceStats(cURL)
	if err != nil {
		fatal("stats: %v", err)
	}

	identical := bytes.Equal(refRows, gotRows)
	rep := faultReport{
		Scale:         scale,
		Cycles:        cycles,
		InterruptRows: interruptRows,
		TotalRows:     1 + cycles,
		RowsBytes:     len(gotRows),
		ResumeWallS:   resumeWall.Seconds(),
		Replayed:      stats.Replayed,
		Resumed:       stats.Resumed,
		Checkpoints:   stats.Checkpoints,
		ByteIdentical: identical,
		NumCPU:        runtime.NumCPU(),
		GoMaxProcs:    runtime.GOMAXPROCS(0),
	}
	if distReport != "" {
		raw, err := os.ReadFile(distReport)
		if err != nil {
			fatal("dist report: %v", err)
		}
		rep.Dist = json.RawMessage(bytes.TrimSpace(raw))
	}
	raw, _ := json.MarshalIndent(rep, "", "  ")
	raw = append(raw, '\n')
	if err := os.WriteFile(out, raw, 0o644); err != nil {
		fatal("write %s: %v", out, err)
	}
	os.Stdout.Write(raw)

	switch {
	case !identical:
		fatal("resumed stream differs from the uninterrupted reference (%d vs %d bytes)", len(gotRows), len(refRows))
	case stats.Replayed < 1:
		fatal("restarted service replayed no jobs")
	case stats.Resumed < 1:
		fatal("replayed job did not resume from its checkpoint")
	}
	fmt.Printf("restart smoke ok: %d rows byte-identical after interrupt at %d, resume took %.2fs\n",
		1+cycles, interruptRows, resumeWall.Seconds())
}

// degradedReport is the BENCH_degraded.json schema.
type degradedReport struct {
	Scale         float64 `json:"scale"`
	Cycles        int     `json:"cycles"`
	Ranks         int     `json:"ranks"`
	MinRanks      int     `json:"min_ranks"`
	DegradedRanks int     `json:"degraded_ranks"`
	RowsBytes     int     `json:"rows_bytes"`
	ByteIdentical bool    `json:"byte_identical"`
	HashEqual     bool    `json:"hash_equal"`
	WallSeconds   float64 `json:"wall_seconds"`
	NumCPU        int     `json:"num_cpu"`
	GoMaxProcs    int     `json:"gomaxprocs"`
}

// runDegradedSmoke checks the service's degraded-mode path end to end: a
// distributed job whose rank is killed past its recovery budget must
// finish on the survivor, mark itself degraded in the job JSON and
// /stats, and stream rows byte-identical to the local reference.
func runDegradedSmoke(out string, scale float64) {
	const cycles, workers, ranks, minRanks = 40, 4, 2, 1
	_, url, stop := startService(serve.Config{Concurrency: 1, WorkerBudget: workers})
	defer stop()

	// Local reference at the same decomposition width (workers parts),
	// before the fault plan enters the environment.
	refCfg := config(scale, cycles, 1)
	refCfg["workers"] = workers
	ref, err := submit(url, refCfg)
	if err != nil {
		fatal("reference submit: %v", err)
	}
	refRows, err := streamRows(url, ref.ID)
	if err != nil {
		fatal("reference rows: %v", err)
	}
	if st, err := waitState(url, ref.ID, 10*time.Minute); err != nil || st.State != "done" {
		fatal("reference job: %+v (%v)", st, err)
	}
	if !csvHasNonzeroSample(refRows) {
		fatal("vacuous reference: every sample in the row stream is zero (raise -scale)")
	}

	// Kill rank 1 in generation 0, then again during the recovery replay
	// (gen=1 plan; rank-local cycle counters reset per generation), so
	// MaxRecoveries=1 is exhausted and the coordinator must degrade. The
	// spawned rank processes inherit this process's environment.
	os.Setenv("GOLTS_FAULT", "kill:rank=1,cycle=20,substep=1;kill:rank=1,cycle=1,substep=1,gen=1")
	defer os.Unsetenv("GOLTS_FAULT")
	degCfg := config(scale, cycles, 1)
	degCfg["workers"] = workers
	degCfg["ranks"] = ranks
	degCfg["min_ranks"] = minRanks
	degCfg["max_recoveries"] = 1
	t0 := time.Now()
	deg, err := submit(url, degCfg)
	if err != nil {
		fatal("degraded submit: %v", err)
	}
	degRows, err := streamRows(url, deg.ID)
	if err != nil {
		fatal("degraded rows: %v", err)
	}
	st, err := waitState(url, deg.ID, 10*time.Minute)
	if err != nil || st.State != "done" {
		fatal("degraded job: %+v (%v)", st, err)
	}
	wall := time.Since(t0)
	stats, err := serviceStats(url)
	if err != nil {
		fatal("stats: %v", err)
	}

	identical := bytes.Equal(refRows, degRows)
	rep := degradedReport{
		Scale:         scale,
		Cycles:        cycles,
		Ranks:         ranks,
		MinRanks:      minRanks,
		DegradedRanks: st.DegradedRanks,
		RowsBytes:     len(degRows),
		ByteIdentical: identical,
		HashEqual:     ref.Hash == deg.Hash,
		WallSeconds:   wall.Seconds(),
		NumCPU:        runtime.NumCPU(),
		GoMaxProcs:    runtime.GOMAXPROCS(0),
	}
	raw, _ := json.MarshalIndent(rep, "", "  ")
	raw = append(raw, '\n')
	if err := os.WriteFile(out, raw, 0o644); err != nil {
		fatal("write %s: %v", out, err)
	}
	os.Stdout.Write(raw)

	switch {
	case ref.Hash != deg.Hash:
		fatal("rank count leaked into the canonical hash: %s vs %s", ref.Hash, deg.Hash)
	case st.DegradedRanks != 1:
		fatal("job JSON degraded_ranks = %d, want 1 (fault did not fire or degrade?)", st.DegradedRanks)
	case stats.DegradedRanks < 1:
		fatal("/stats degraded_ranks = %d, want >= 1", stats.DegradedRanks)
	case !identical:
		fatal("degraded stream differs from the local reference (%d vs %d bytes)", len(degRows), len(refRows))
	}
	fmt.Printf("degraded smoke ok: rank retired past its recovery budget, %d rows byte-identical in %.2fs\n",
		1+cycles, wall.Seconds())
}
