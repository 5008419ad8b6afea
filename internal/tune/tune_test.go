package tune

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"
)

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
