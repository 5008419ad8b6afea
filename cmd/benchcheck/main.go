// Command benchcheck is the benchmark-regression gate: it compares a
// freshly measured BENCH_kernels.json against the committed
// bench_baseline.json and fails when any kernel row regressed beyond the
// tolerance. `make bench-check` runs kernelbench and then this gate.
//
// Raw ns/elem is not comparable across machines, so by default each
// fresh/baseline ratio is normalised by the median ratio over all rows:
// a uniformly slower runner shifts every ratio alike and cancels out,
// while a single kernel regressing against its peers stands out. -raw
// disables the normalisation for same-machine comparisons.
//
// Shared runners are noisy per row even after normalisation, so the
// verdict is two-level: a row beyond tolerance but within the hard cap
// (2x tolerance) is a warning, and the gate fails only when a row
// exceeds the hard cap or when warnings are systemic (more than
// -max-warn rows, default 1/8 of the compared rows). A genuine kernel
// regression shows up either as one row far beyond its peers or as a
// cluster of correlated rows — both still fail; an isolated scheduler
// blip does not.
//
// Baseline rows for SIMD tiers the runner cannot execute are skipped
// with an explicit log line, so a baseline recorded on an AVX-512
// machine still gates an AVX2-only runner. That is the only skip: a row
// missing from either file, or a baseline row naming a tier this build
// does not know, fails the gate.
//
// Usage:
//
//	benchcheck [-baseline bench_baseline.json] [-fresh BENCH_kernels.json] [-tol 0.15] [-raw]
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"

	"golts/internal/sem"
)

// sweepSection is one per-operator size sweep of kernelbench's JSON.
type sweepSection struct {
	Results []struct {
		Op    string `json:"op"`
		Deg   int    `json:"deg"`
		Sweep []struct {
			Batch     int     `json:"batch"`
			NsPerElem float64 `json:"ns_per_elem"`
		} `json:"sweep"`
	} `json:"results"`
}

// benchFile mirrors the parts of kernelbench's JSON the gate compares.
type benchFile struct {
	SIMD     string       `json:"simd"`
	Batched  sweepSection `json:"batched"`
	Remapped sweepSection `json:"remapped"`
	PerTier  struct {
		Results []struct {
			Tier      string  `json:"tier"`
			Op        string  `json:"op"`
			Deg       int     `json:"deg"`
			NsPerElem float64 `json:"ns_per_elem"`
		} `json:"results"`
	} `json:"per_tier"`
}

// row is one comparable measurement; Tier is empty for tier-independent
// rows.
type row struct {
	Key       string
	Tier      string
	NsPerElem float64
}

// flatten turns a parsed bench file into keyed rows.
func flatten(f *benchFile) []row {
	var rows []row
	sweep := func(name string, sec sweepSection) {
		for _, r := range sec.Results {
			for _, p := range r.Sweep {
				rows = append(rows, row{
					Key:       fmt.Sprintf("%s/%s/deg%d@%d", name, r.Op, r.Deg, p.Batch),
					NsPerElem: p.NsPerElem,
				})
			}
		}
	}
	sweep("batched", f.Batched)
	sweep("remapped", f.Remapped)
	for _, r := range f.PerTier.Results {
		rows = append(rows, row{
			Key:       fmt.Sprintf("tier/%s/%s/deg%d", r.Tier, r.Op, r.Deg),
			Tier:      r.Tier,
			NsPerElem: r.NsPerElem,
		})
	}
	return rows
}

func load(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func main() {
	baseline := flag.String("baseline", "bench_baseline.json", "committed baseline JSON")
	fresh := flag.String("fresh", "BENCH_kernels.json", "freshly measured JSON")
	tol := flag.Float64("tol", 0.15, "allowed fractional slowdown per row after normalisation; 2x is the per-row hard cap")
	maxWarn := flag.Int("max-warn", -1, "rows allowed between tolerance and the hard cap before the gate fails (-1: rows/8)")
	raw := flag.Bool("raw", false, "compare raw ratios without median normalisation (same-machine baselines only)")
	flag.Parse()

	base, err := load(*baseline)
	if err != nil {
		fatal(err)
	}
	cur, err := load(*fresh)
	if err != nil {
		fatal(err)
	}
	if err := check(os.Stdout, base, cur, sem.KnownSIMDTiers(), sem.SIMDTiers(), *tol, *maxWarn, *raw); err != nil {
		fatal(err)
	}
}

// check gates every baseline row against the fresh run, writing one line
// per row to w; known lists the tiers this build implements and usable
// those this CPU can run. The only row it skips is one for a known tier
// this CPU cannot run; a row of an unknown tier, a row missing from
// either file or a non-positive measurement fails, so no tier or
// operator can leave or enter the gate unnoticed.
func check(w io.Writer, base, cur *benchFile, known, usable []string, tol float64, maxWarn int, raw bool) error {
	freshRows := map[string]row{}
	for _, r := range flatten(cur) {
		freshRows[r.Key] = r
	}

	// Pair up rows; collect fresh/baseline ratios.
	type pair struct {
		key         string
		base, fresh float64
		ratio       float64
	}
	var pairs []pair
	var ratios []float64
	var broken []string
	inBase := map[string]bool{}
	for _, b := range flatten(base) {
		inBase[b.Key] = true
		f, ok := freshRows[b.Key]
		why := ""
		switch {
		case b.Tier != "" && !slices.Contains(known, b.Tier):
			why = fmt.Sprintf("baseline tier %q unknown to this build (known: %v)", b.Tier, known)
		case b.Tier != "" && !slices.Contains(usable, b.Tier):
			fmt.Fprintf(w, "skip   %-40s baseline tier %q not usable on this runner (usable: %v)\n", b.Key, b.Tier, usable)
			continue
		case !ok:
			why = "not present in fresh run"
		case b.NsPerElem <= 0 || f.NsPerElem <= 0:
			why = "non-positive measurement"
		}
		if why != "" {
			fmt.Fprintf(w, "FAIL   %-40s %s\n", b.Key, why)
			broken = append(broken, b.Key)
			continue
		}
		r := f.NsPerElem / b.NsPerElem
		pairs = append(pairs, pair{key: b.Key, base: b.NsPerElem, fresh: f.NsPerElem, ratio: r})
		ratios = append(ratios, r)
	}
	for _, f := range flatten(cur) {
		if !inBase[f.Key] {
			fmt.Fprintf(w, "FAIL   %-40s not present in baseline\n", f.Key)
			broken = append(broken, f.Key)
		}
	}
	if len(broken) > 0 {
		return fmt.Errorf("%d row(s) could not be compared: %v", len(broken), broken)
	}
	if len(pairs) == 0 {
		return errors.New("no comparable rows between the baseline and the fresh run")
	}

	norm := 1.0
	if !raw {
		sorted := append([]float64(nil), ratios...)
		sort.Float64s(sorted)
		norm = sorted[len(sorted)/2]
		if len(sorted)%2 == 0 {
			norm = (sorted[len(sorted)/2-1] + sorted[len(sorted)/2]) / 2
		}
		fmt.Fprintf(w, "median fresh/baseline ratio %.3f (machine-speed normaliser; -raw disables)\n", norm)
	}

	hard, warned, failed := 1+2*tol, 0, 0
	for _, p := range pairs {
		rel := p.ratio / norm
		status := "ok    "
		switch {
		case rel > hard:
			status = "REGRES"
			failed++
		case rel > 1+tol:
			status = "warn  "
			warned++
		}
		fmt.Fprintf(w, "%s %-40s baseline %9.1f  fresh %9.1f  ratio %5.2f  normalised %5.2f\n",
			status, p.key, p.base, p.fresh, p.ratio, rel)
	}
	allow := maxWarn
	if allow < 0 {
		allow = len(pairs) / 8
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d rows regressed beyond the %.0f%% hard cap (normalised)", failed, len(pairs), (hard-1)*100)
	}
	if warned > allow {
		return fmt.Errorf("%d of %d rows beyond %.0f%% (max %d noise outliers allowed): systemic regression", warned, len(pairs), tol*100, allow)
	}
	if warned > 0 {
		fmt.Fprintf(w, "benchcheck: %d rows within %.0f%%, %d noise outlier(s) tolerated (max %d)\n", len(pairs)-warned, tol*100, warned, allow)
		return nil
	}
	fmt.Fprintf(w, "benchcheck: %d rows within %.0f%% of baseline\n", len(pairs), tol*100)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchcheck:", err)
	os.Exit(1)
}
