// Command kernelbench times the steady-state stiffness kernel of every
// operator and writes the results as JSON, so the cost of one element
// application — the constant the paper's speedup model (Eq. 9) assumes
// small and fixed — is tracked across revisions. `make bench` writes
// BENCH_kernels.json at the repo root. The operator fixtures are
// sem.KernelSweepOperators (512-element meshes), shared with
// BenchmarkAddKuBatch in internal/sem, so both measure the same workload.
//
// The sweep times AddKuBatch — the one production stiffness path — at
// element-list sizes 1, 3, 8, 9, 64 and 512: 8, 64 and 512 are whole
// blocks, while 1, 3 and 9 end in a padded tail block and track what a
// ragged list costs per element. The remapped section repeats sizes 8, 64
// and 512 through plan.Remap(sem.BenchNodeMap) — compact permuted output,
// a third of the input masked — the form the LTS fine levels run. The
// per-tier section repeats the 512-element measurement under every usable
// SIMD microkernel tier.
//
// Usage:
//
//	kernelbench [-out BENCH_kernels.json] [-benchtime 1s] [-repeat 3] [-smoke]
//
// -smoke shrinks the measurement time and exits non-zero if the batched
// path fails to run or allocates in steady state: the allocation-free
// fused path is asserted structurally, without timing-dependent
// thresholds, so CI can run it without flakiness.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"golts/internal/sem"
)

// sweepPoint is one batched measurement at a given element-list size.
type sweepPoint struct {
	Batch       int     `json:"batch"`
	NsPerElem   float64 `json:"ns_per_elem"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// batchedResult is one operator's batched-kernel sweep.
type batchedResult struct {
	Op       string       `json:"op"`
	Deg      int          `json:"deg"`
	Elements int          `json:"elements"`
	Sweep    []sweepPoint `json:"sweep"`
}

// batchSizes is the element-list sweep of the batched kernels: whole
// blocks (8, 64, 512) and lists ending in a padded tail (1, 3, 9).
var batchSizes = []int{1, 3, 8, 9, 64, 512}

// tierResult is one (SIMD tier, operator) batched measurement at the
// largest batch size: the steady-state per-element cost of that tier.
type tierResult struct {
	Tier        string  `json:"tier"`
	Op          string  `json:"op"`
	Deg         int     `json:"deg"`
	NsPerElem   float64 `json:"ns_per_elem"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

func main() {
	testing.Init() // register test.* flags so test.benchtime is settable
	out := flag.String("out", "BENCH_kernels.json", "output JSON path (- for stdout)")
	benchtime := flag.Duration("benchtime", time.Second, "minimum measurement time per kernel")
	flag.IntVar(&repeatN, "repeat", 3, "measurement repeats per kernel; the fastest is reported (noise robustness)")
	smoke := flag.Bool("smoke", false, "tiny-N correctness smoke: assert the batched path runs alloc-free, ignore timings")
	flag.Parse()

	const deg = 4 // the paper's 125-node configuration (dispatched microkernels)
	if *smoke {
		*benchtime = 20 * time.Millisecond
		repeatN = 1
	}
	if f := flag.Lookup("test.benchtime"); f != nil {
		f.Value.Set(benchtime.String())
	}

	sweepCases, err := sem.KernelSweepOperators(deg)
	if err != nil {
		fatal(err)
	}
	sweeps := map[string][]batchedResult{}
	for _, k := range []struct {
		kind  string
		sizes []int
	}{{"batched", batchSizes}, {"remapped", []int{8, 64, 512}}} {
		for _, c := range sweepCases {
			br := measureBatched(c.Name, deg, c.Op, k.sizes, k.kind == "remapped")
			sweeps[k.kind] = append(sweeps[k.kind], br)
			for _, p := range br.Sweep {
				fmt.Fprintf(os.Stderr, "%-14s deg=%d  %-8s %8.1f ns/elem @%-3d  %d allocs/op\n",
					br.Op, br.Deg, k.kind, p.NsPerElem, p.Batch, p.AllocsPerOp)
				if *smoke && p.AllocsPerOp != 0 {
					fatal(fmt.Errorf("%s: %s AddKuBatch allocates %d/op at batch %d (want 0)", br.Op, k.kind, p.AllocsPerOp, p.Batch))
				}
			}
		}
	}

	var tiers []tierResult
	for _, c := range sweepCases {
		trs, err := measureTiers(c.Name, deg, c.Op)
		if err != nil {
			fatal(err)
		}
		for _, tr := range trs {
			fmt.Fprintf(os.Stderr, "%-14s deg=%d  tier %-7s %10.1f ns/elem  %d allocs/op\n",
				tr.Op, tr.Deg, tr.Tier, tr.NsPerElem, tr.AllocsPerOp)
			if *smoke && tr.AllocsPerOp != 0 {
				fatal(fmt.Errorf("%s tier %s: AddKuBatch allocates %d/op (want 0)", tr.Op, tr.Tier, tr.AllocsPerOp))
			}
		}
		tiers = append(tiers, trs...)
	}

	enc, err := json.MarshalIndent(map[string]any{
		"unit_note":  "ns_per_elem is wall time per element stiffness application",
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"simd":       sem.ActiveSIMDTier(),
		"simd_tiers": sem.SIMDTiers(),
		"batched": map[string]any{
			"benchmark": "AddKuBatch",
			"unit_note": "sweep times the fused SoA batch path per element-list size; sizes that are not a multiple of 8 end in a padded tail block",
			"results":   sweeps["batched"],
		},
		"remapped": map[string]any{
			"benchmark": "AddKuBatch",
			"unit_note": "the batched sweep's whole-block sizes through plan.Remap(sem.BenchNodeMap): compact permuted output numbering, a third of the input nodes masked to the zero slot",
			"results":   sweeps["remapped"],
		},
		"per_tier": map[string]any{
			"benchmark": "AddKuBatch",
			"unit_note": "full-sweep batched cost per usable SIMD microkernel tier (deg=4, largest batch); tiers absent on this machine are not listed",
			"results":   tiers,
		},
	}, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kernelbench:", err)
	os.Exit(1)
}

// repeatN is how many times each kernel is measured; see -repeat.
var repeatN = 3

// bench runs f under testing.Benchmark repeatN times and keeps the
// fastest run: the minimum is far less sensitive to scheduler noise on
// shared CI runners than a single long measurement, which is what lets
// benchcheck gate at a tight tolerance.
func bench(f func(b *testing.B)) testing.BenchmarkResult {
	best := testing.Benchmark(f)
	for i := 1; i < repeatN; i++ {
		if r := testing.Benchmark(f); r.NsPerOp() < best.NsPerOp() {
			best = r
		}
	}
	return best
}

// measureBatched times AddKuBatch on the sweep fixture at each
// element-list size, through the identity plan or a remapped one.
func measureBatched(name string, deg int, op sem.BatchKernel, sizes []int, remapped bool) batchedResult {
	all := sem.AllElements(op)
	out := batchedResult{Op: name, Deg: deg, Elements: len(all)}
	var bs sem.BatchScratch
	for _, n := range sizes {
		plan := op.NewBatchPlan(all[:n])
		nIn, nOut := op.NumNodes(), op.NumNodes()
		if remapped {
			m := sem.BenchNodeMap(op, all[:n], 1)
			plan, nIn, nOut = plan.Remap(m), m.NIn, m.NOut
		}
		u := make([]float64, nIn*op.Comps())
		sem.BenchField(u)
		dst := make([]float64, nOut*op.Comps())
		op.AddKuBatch(dst, u, plan, &bs) // warm-up
		br := bench(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				op.AddKuBatch(dst, u, plan, &bs)
			}
		})
		out.Sweep = append(out.Sweep, sweepPoint{
			Batch:       n,
			NsPerElem:   float64(br.NsPerOp()) / float64(n),
			AllocsPerOp: br.AllocsPerOp(),
			BytesPerOp:  br.AllocedBytesPerOp(),
		})
	}
	return out
}

// measureTiers times AddKuBatch over the full sweep fixture under every
// SIMD tier usable in this process, forcing each tier in turn.
func measureTiers(name string, deg int, op sem.BatchKernel) ([]tierResult, error) {
	var out []tierResult
	for _, tier := range sem.SIMDTiers() {
		restore, err := sem.ForceSIMDTier(tier)
		if err != nil {
			return nil, err
		}
		p := measureBatched(name, deg, op, []int{op.NumElements()}, false).Sweep[0]
		restore()
		out = append(out, tierResult{Tier: tier, Op: name, Deg: deg, NsPerElem: p.NsPerElem, AllocsPerOp: p.AllocsPerOp})
	}
	return out, nil
}
