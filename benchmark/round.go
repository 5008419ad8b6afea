package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
)

// roundEnv carries a roundSpec to a child process. Each round runs in a
// fresh re-exec of this binary, so set-up is paid from a cold heap every
// time and peak memory is per round; an environment variable rather than
// a flag, so that a test binary can be the child too.
const roundEnv = "GOLTS_BENCH_ROUND"

// roundSpec asks a child for one round of one workload.
type roundSpec struct {
	Workload string
	Seed     int64
	// Seconds is the timed window; the round always completes at least
	// the operations the correctness prefix needs.
	Seconds float64
	Quick   bool
	// Trace selects the traced round (per-layer metrics) instead of the
	// end-to-end one. TraceOut, if set, receives the spans as JSON.
	Trace    bool
	TraceOut string
	// TmpDir is where the round may write files (checkpoints).
	TmpDir string
}

// roundResult is what a child reports back, as one JSON line.
type roundResult struct {
	// End-to-end round.
	SetupS    float64   // start of build to end of warm-up
	BuildS    float64   // wave.New / service start alone, part of SetupS
	OpMs      []float64 // per-operation wall times of the timed window
	WallMs    float64   // the timed window itself
	Failed    int       // failed operations
	PeakRSSMB float64
	// Digest covers the fixed correctness prefix; Live reports that every
	// trace under it has a finite nonzero sample. JobDigests (serve) maps
	// job index to the digest of its streamed rows.
	Digest     string
	Live       bool
	JobDigests map[int]string
	Problems   []string // correctness violations found inside the round

	// Informational.
	Elements         int
	ElemAppliesCycle int64
	SIMD             string
	CacheHitRate     float64

	// Traced round.
	Layer map[string]metric
}

// childMain runs the round named by the environment, if any, prints its
// result and exits. It must run first in main and TestMain (after
// wave.RankMain, which claims the rank processes).
func childMain() {
	raw := os.Getenv(roundEnv)
	if raw == "" {
		return
	}
	var spec roundSpec
	if err := json.Unmarshal([]byte(raw), &spec); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: bad round spec:", err)
		os.Exit(2)
	}
	res, err := runRound(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", spec.Workload, err)
		os.Exit(1)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	os.Exit(0)
}

func runRound(spec roundSpec) (*roundResult, error) {
	w, ok := findWorkload(spec.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload")
	}
	if spec.Quick {
		w = w.quickened()
	}
	switch {
	case spec.Trace && w.Serve:
		return traceServe(w, spec)
	case spec.Trace:
		return traceSolver(w, spec)
	case w.Serve:
		return runServe(w, spec, nil)
	default:
		return runSolver(w, spec)
	}
}

// runChild executes one round in a child process and decodes its result
// (the last line of its standard output).
func runChild(spec roundSpec) (*roundResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	raw, _ := json.Marshal(spec)
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), roundEnv+"="+string(raw))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s round: %w", spec.Workload, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res roundResult
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s round: decoding result: %w", spec.Workload, err)
	}
	return &res, nil
}
