package tune

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"
)

func TestTraceRing(t *testing.T) {
	tr := NewTrace(3)
	for c := int64(0); c < 5; c++ {
		tr.Record(c, []float64{float64(c), float64(2 * c)})
	}
	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tr.Len())
	}
	s := tr.Samples()
	want := []int64{2, 3, 4}
	for i, smp := range s {
		if smp.Cycle != want[i] {
			t.Errorf("sample %d cycle = %d, want %d", i, smp.Cycle, want[i])
		}
		if smp.Busy[1] != 2*float64(want[i]) {
			t.Errorf("sample %d busy = %v", i, smp.Busy)
		}
	}
}

func TestTraceRecordNoAlloc(t *testing.T) {
	tr := NewTrace(4)
	busy := []float64{1, 2, 3}
	for i := 0; i < 8; i++ { // warm: wrap the ring
		tr.Record(int64(i), busy)
	}
	n := testing.AllocsPerRun(100, func() { tr.Record(99, busy) })
	if n != 0 {
		t.Fatalf("Record allocates %v/op after warm-up, want 0", n)
	}
}

func TestDetector(t *testing.T) {
	d := NewDetector(DetectorConfig{Threshold: 1.5, Window: 3, Cooldown: 5})
	balanced := []float64{10, 10, 10, 10}
	skewed := []float64{40, 10, 10, 10} // ratio 40/17.5 ≈ 2.3
	for i := 0; i < 10; i++ {
		if d.Observe(balanced) {
			t.Fatalf("balanced cycle %d triggered", i)
		}
	}
	if d.Observe(skewed) || d.Observe(skewed) {
		t.Fatal("triggered before window filled")
	}
	if !d.Observe(skewed) {
		t.Fatal("no trigger after Window imbalanced cycles")
	}
	// Cooldown: even sustained skew stays quiet for Cooldown cycles.
	for i := 0; i < 5; i++ {
		if d.Observe(skewed) {
			t.Fatalf("triggered during cooldown cycle %d", i)
		}
	}
	d.Observe(skewed)
	d.Observe(skewed)
	if !d.Observe(skewed) {
		t.Fatal("no re-trigger after cooldown")
	}
}

func TestDetectorStreakResets(t *testing.T) {
	d := NewDetector(DetectorConfig{Threshold: 1.5, Window: 2, Cooldown: 3})
	skewed := []float64{30, 10}
	balanced := []float64{10, 10}
	d.Observe(skewed)
	d.Observe(balanced) // breaks the streak
	if d.Observe(skewed) {
		t.Fatal("triggered with a broken streak")
	}
}

func TestRemapDeterministicAndBalanced(t *testing.T) {
	cost := []float64{100, 10, 10, 10, 10, 50}
	m1 := Remap(cost, 2)
	m2 := Remap(cost, 2)
	if !Equal(m1, m2) {
		t.Fatalf("Remap not deterministic: %v vs %v", m1, m2)
	}
	// The heavy part and the rest must split: LPT puts part 0 (100)
	// alone-ish against part 5 (50) + the light parts.
	if m1[0] == m1[5] {
		t.Fatalf("heaviest two parts on one rank: %v", m1)
	}
	if r := Imbalance(cost, m1, 2); r > 1.12 {
		t.Fatalf("LPT imbalance %.3f, want near 1 (map %v)", r, m1)
	}
	// Every rank owns at least one part, even with all-zero costs.
	z := Remap(make([]float64, 4), 3)
	seen := map[int]bool{}
	for _, r := range z {
		seen[r] = true
	}
	for r := 0; r < 3; r++ {
		if !seen[r] {
			t.Fatalf("rank %d left empty under zero costs: %v", r, z)
		}
	}
}

func TestCalibratePicksFastest(t *testing.T) {
	grid := []Candidate{{Workers: 2}, {Workers: 1}, {Ranks: 2}}
	speed := map[string]float64{
		"workers=2": 300,
		"workers=1": 100,
		"ranks=2":   150,
	}
	plan, err := Calibrate(grid, time.Second, 2, func(c Candidate, cycles int) (Result, error) {
		return Result{CycleNanos: speed[c.String()]}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Valid() {
		t.Fatalf("invalid plan %+v", plan)
	}
	if plan.Best != (Candidate{Workers: 1}) {
		t.Fatalf("Best = %+v, want workers=1", plan.Best)
	}
	if len(plan.Measurements) != 3 {
		t.Fatalf("got %d measurements, want 3", len(plan.Measurements))
	}
	for _, m := range plan.Measurements {
		if m.CycleNanos != speed[m.Candidate.String()] {
			t.Fatalf("%s: recorded %.1f ns, measured %.1f", m.Candidate, m.CycleNanos, speed[m.Candidate.String()])
		}
	}
}

// TestPlanDecodesLegacyKernelField: plans serialised while the grid had
// a kernel axis and the measurements a cluster-model fit (BENCH_tune.json
// reports, spooled job stats) still decode — the fields are ignored —
// and stay Valid, whichever spelling they carry.
func TestPlanDecodesLegacyKernelField(t *testing.T) {
	for _, kernel := range []string{"batched", "per-element", "perelement"} {
		raw := fmt.Sprintf(`{"best":{"workers":0,"ranks":2,"kernel":%q},"probe_cycles":3,
			"fit_ns_per_model_s":741793330.03,
			"measurements":[{"workers":0,"ranks":2,"kernel":%q,"cycle_ns":5,
				"model_s":0.0214799,"predicted_ns":15933690.83,"level_ns":[7,8]}]}`, kernel, kernel)
		var plan Plan
		if err := json.Unmarshal([]byte(raw), &plan); err != nil {
			t.Fatalf("kernel=%s: %v", kernel, err)
		}
		if !plan.Valid() || plan.Best != (Candidate{Ranks: 2}) || plan.Measurements[0].CycleNanos != 5 ||
			len(plan.Measurements[0].LevelNanos) != 2 {
			t.Fatalf("kernel=%s: decoded %+v", kernel, plan)
		}
	}
}

func TestCalibrateSkipsFailuresAndBudget(t *testing.T) {
	grid := []Candidate{{Workers: 1}, {Workers: 2}, {Workers: 4}}
	calls := 0
	plan, err := Calibrate(grid, time.Nanosecond, 1, func(c Candidate, cycles int) (Result, error) {
		calls++
		time.Sleep(time.Millisecond)
		return Result{CycleNanos: 1}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("budget exhausted but %d probes ran", calls)
	}
	if !plan.Valid() {
		t.Fatalf("invalid plan %+v", plan)
	}

	// All probes failing is an error.
	_, err = Calibrate(grid, time.Second, 1, func(c Candidate, cycles int) (Result, error) {
		return Result{}, fmt.Errorf("boom")
	})
	if err == nil {
		t.Fatal("want error when every probe fails")
	}

	// A failing probe is skipped, not fatal.
	plan, err = Calibrate(grid, time.Second, 1, func(c Candidate, cycles int) (Result, error) {
		if c.Workers == 1 {
			return Result{}, fmt.Errorf("boom")
		}
		return Result{CycleNanos: float64(c.Workers)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Best.Workers != 2 {
		t.Fatalf("Best = %+v, want workers=2", plan.Best)
	}
}
