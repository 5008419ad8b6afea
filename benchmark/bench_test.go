package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"golts/wave"
)

func TestMain(m *testing.M) {
	wave.RankMain()
	childMain()
	os.Exit(m.Run())
}

func TestSelfTimes(t *testing.T) {
	sp := func(id, parent int, start, end int64) span {
		return span{ID: id, Parent: parent, Start: start, End: end}
	}
	cases := []struct {
		name  string
		spans []span
		want  []int64
	}{
		{"leaf", []span{sp(0, -1, 10, 50)}, []int64{40}},
		{"nested", []span{sp(0, -1, 0, 100), sp(1, 0, 10, 60), sp(2, 1, 20, 30)}, []int64{50, 40, 10}},
		{"adjacent children", []span{sp(0, -1, 0, 100), sp(1, 0, 10, 40), sp(2, 0, 40, 90)}, []int64{20, 30, 50}},
		{"zero-length child", []span{sp(0, -1, 0, 100), sp(1, 0, 50, 50)}, []int64{100, 0}},
		{"concurrent children count once", []span{sp(0, -1, 0, 100), sp(1, 0, 10, 60), sp(2, 0, 30, 80)}, []int64{30, 50, 50}},
		{"child clipped to parent", []span{sp(0, -1, 10, 50), sp(1, 0, 0, 30), sp(2, 0, 40, 70)}, []int64{10, 30, 30}},
		{"child inside another child", []span{sp(0, -1, 0, 100), sp(1, 0, 10, 90), sp(2, 0, 20, 30)}, []int64{20, 80, 10}},
	}
	for _, c := range cases {
		got := selfTimes(c.spans)
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("%s: self time of span %d = %d, want %d", c.name, i, got[i], c.want[i])
			}
		}
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer("w")
	a := tr.begin("a")
	b := tr.begin("b")
	leaf := tr.add("leaf", underOpen, tr.epoch, tr.epoch)
	tr.end(b)
	tr.end(a)
	root := tr.add("root", -1, tr.epoch, tr.epoch)
	if tr.spans[a].Parent != -1 || tr.spans[b].Parent != a || tr.spans[leaf].Parent != b || tr.spans[root].Parent != -1 {
		t.Errorf("parents: %+v", tr.spans)
	}
	if len(tr.stack) != 0 {
		t.Errorf("stack not empty: %v", tr.stack)
	}
}

// ms_per_op is time to solution: the total over the operations, so the
// one slow operation in four counts in full where a median would drop it.
func TestMeanPerOpIsTotalOverOps(t *testing.T) {
	ops := []float64{100, 100, 100, 1000}
	if got := meanPerOp(sum(ops), len(ops)); got != 325 {
		t.Errorf("meanPerOp = %v, want 325", got)
	}
	if median(ops) != 100 {
		t.Errorf("median = %v, want 100", median(ops))
	}
	r := &roundResult{OpMs: ops, WallMs: sum(ops), SetupS: 1, PeakRSSMB: 1}
	m, _ := endToEnd([]*roundResult{r, r, r})
	if m["ms_per_op"].Value != 325 || m["op_p50_ms"].Value != 100 || m["op_p90_over_p50"].Value != 10 {
		t.Errorf("endToEnd = %+v", m)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(v, n=4) for these inputs.
	cases := []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 20, 40, 80}, [3]float64{12.5, 30, 70}},
	}
	for _, c := range cases {
		got := quartiles(c.v)
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.v, got, c.want)
				break
			}
		}
	}
	if p := percentile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 90); p != 9 {
		t.Errorf("p90 = %v, want 9", p)
	}
}

func TestServeJobsPureFunctionOfSeed(t *testing.T) {
	for _, name := range []string{"serve-warm", "serve-cold"} {
		w, _ := findWorkload(name)
		w = w.quickened()
		a, err := newServeGen(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newServeGen(w, 7)
		c, _ := newServeGen(w, 8)
		differs := false
		bodies := map[string]string{}
		for _, i := range []int{11, 2, 0, 5, 2, 12} { // any order, any repetition
			ka, ba := a.job(i)
			kb, bb := b.job(i)
			if ka != kb || !bytes.Equal(ba, bb) {
				t.Errorf("%s: job %d differs between two generators of one seed", name, i)
			}
			if _, bc := c.job(i); !bytes.Equal(ba, bc) {
				differs = true
			}
			if prev, ok := bodies[ka]; ok && prev != string(ba) {
				t.Errorf("%s: key %s names two different bodies", name, ka)
			}
			bodies[ka] = string(ba)
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 generate the same jobs", name)
		}
		want := 4 // serve-warm: four configurations
		if w.Cold {
			want = 5 // serve-cold: every distinct index is its own configuration
		}
		if len(bodies) != want {
			t.Errorf("%s: %d distinct configurations among the sampled jobs, want %d", name, len(bodies), want)
		}
	}
}

func TestTracesLive(t *testing.T) {
	if tracesLive([][]float64{{0, 1e-30}, {0, 0}}) {
		t.Error("an all-zero trace must fail the guard")
	}
	if tracesLive([][]float64{{0, math.NaN()}}) || tracesLive(nil) {
		t.Error("NaN or no traces must fail the guard")
	}
	if !tracesLive(csvColumns([]byte("time,r0,r1\n0.1,0,2e-9\n0.2,-3e-12,0\n"))) {
		t.Error("live CSV columns rejected")
	}
}

// TestSpecMatchesCode keeps BENCHMARK.json and the harness in step:
// workload names and reasons, and every per-layer metric with its unit.
func TestSpecMatchesCode(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the harness %q / %q", i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.Name, w.Why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or reason", w.Name)
		}
	}
	if len(spec.PerLayer) != len(layerUnits) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, the harness %d", len(spec.PerLayer), len(layerUnits))
	}
	for _, d := range spec.PerLayer {
		if layerUnits[d.Name] != d.Unit {
			t.Errorf("per-layer metric %s: unit %q in BENCHMARK.json, %q in the harness", d.Name, d.Unit, layerUnits[d.Name])
		}
	}
	hasSetup := false
	for _, d := range spec.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("BENCHMARK.json lacks setup_s in s, lower is better")
	}
}

// TestQuickAllWorkloads runs every workload both ways at tiny size
// through the driver's entry and checks that the last line of output is
// the result object with exactly the metrics BENCHMARK.json names, each
// with its unit, and that every correctness check passes.
func TestQuickAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child and rank processes")
	}
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for trace, defs := range [][]metricDef{spec.EndToEnd, spec.PerLayer} {
			var out, errOut bytes.Buffer
			args := []string{"-quick", "-workload", w.Name, "-seed", "3", "-seconds", "0.3", "-trace", []string{"0", "1"}[trace]}
			if code := run(args, &out, &errOut); code != 0 {
				t.Fatalf("%v: exit %d\n%s%s", args, code, out.String(), errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]metric
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%v: last line is not the result object: %v\n%s", args, err, out.String())
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%v: correct %v, attempted %d, failed %d\n%s", args, res.Correct, res.Attempted, res.Failed, out.String())
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%v: %d metrics, BENCHMARK.json names %d", args, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%v: metric %s missing", args, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%v: metric %s has unit %q, BENCHMARK.json says %q", args, d.Name, m.Unit, d.Unit)
				case trace == 0 && !(m.Value > 0):
					t.Errorf("%v: end-to-end metric %s = %v, must be positive", args, d.Name, m.Value)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%v: metric %s = %v", args, d.Name, m.Value)
				}
			}
		}
	}
}

// A corrupted golden digest must fail the run.
func TestGoldenMismatchFails(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden digests are pinned on amd64")
	}
	b := &bench{cfg: config{seed: 1}, golden: map[string]string{"seq-lts-acoustic": "not-the-digest"}}
	w, _ := findWorkload("seq-lts-acoustic")
	r := &roundResult{OpMs: []float64{1, 2}, Digest: "abc", Live: true}
	res := b.verify(w, []*roundResult{r}, "")
	if res.Correct || res.Failed != res.Attempted {
		t.Errorf("verify accepted a digest golden.json does not have: %+v", res)
	}
	r.Live = false
	b.golden["seq-lts-acoustic"] = "abc"
	if res := b.verify(w, []*roundResult{r}, ""); res.Correct {
		t.Error("verify accepted an all-zero seismogram because its digest matched")
	}
}
