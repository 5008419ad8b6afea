package dist

import (
	"testing"

	"golts/internal/tune"
)

// runDistConfig is runDist with a caller-supplied coordinator Config
// (the Run field is overwritten with the test configuration); the
// coordinator is returned open.
func runDistConfig(t *testing.T, tc *testConfig, cycles int, cfg Config) (*Coordinator, []float64, [][]float64) {
	t.Helper()
	co := startRun(t, tc, cfg)
	var times []float64
	var samples [][]float64
	stepTo(t, co, cycles, &times, &samples)
	return co, times, samples
}

// TestArbitraryPartRankBitwise pins the contract the rebalancer stands
// on: any part→rank placement — skewed, scattered, reversed — produces
// bitwise-identical seismograms, because the decomposition (not the
// placement) fixes the assembly order.
func TestArbitraryPartRankBitwise(t *testing.T) {
	base := newTestConfig(t, "acoustic", true, 2, 4)
	wantT, want := runDist(t, base, 4, true)
	for _, m := range [][]int{
		{0, 0, 0, 1}, // maximally skewed
		{1, 0, 1, 0}, // interleaved
		{1, 1, 0, 0}, // reversed blocks
	} {
		tc := newTestConfig(t, "acoustic", true, 2, 4)
		tc.cfg.PartRank = m
		gotT, got := runDist(t, tc, 4, true)
		requireBitwise(t, "placement", wantT, gotT, want, got)
	}
}

// TestPartRankValidation: malformed placements are rejected at Start.
func TestPartRankValidation(t *testing.T) {
	for _, bad := range [][]int{
		{0, 1},       // wrong length
		{0, 0, 0, 2}, // rank out of range
		{0, 0, 0, 0}, // rank 1 owns nothing
	} {
		tc := newTestConfig(t, "acoustic", true, 2, 4)
		tc.cfg.PartRank = bad
		if _, err := Start(Config{Run: tc.cfg, InProcess: true}); err == nil {
			t.Errorf("placement %v accepted", bad)
		}
	}
}

// TestManualRebalanceBitwise: an explicit mid-run remap — snapshot,
// relaunch under the new placement, restore — leaves the receiver
// trajectory bitwise identical and is counted.
func TestManualRebalanceBitwise(t *testing.T) {
	base := newTestConfig(t, "acoustic", true, 2, 4)
	wantT, want := runDist(t, base, 6, true)

	tc := newTestConfig(t, "acoustic", true, 2, 4)
	co, gotT, got := runDistConfig(t, tc, 3, Config{InProcess: true})
	defer co.Close()
	if err := co.Rebalance([]int{1, 0, 1, 0}); err != nil {
		t.Fatalf("Rebalance: %v", err)
	}
	if pr := co.PartRanks(); pr[0] != 1 || pr[1] != 0 {
		t.Fatalf("PartRanks after rebalance = %v", pr)
	}
	stepTo(t, co, 6, &gotT, &got)
	requireBitwise(t, "manual rebalance", wantT, gotT, want, got)
	if n, _ := co.Rebalances(); n != 1 {
		t.Errorf("Rebalances = %d, want 1", n)
	}
}

// TestAutoRebalance: a run started on a maximally skewed placement
// triggers the imbalance detector, remaps automatically, and stays
// bitwise identical to the balanced run.
func TestAutoRebalance(t *testing.T) {
	base := newTestConfig(t, "acoustic", true, 2, 4)
	wantT, want := runDist(t, base, 10, true)

	tc := newTestConfig(t, "acoustic", true, 2, 4)
	tc.cfg.PartRank = []int{0, 0, 0, 1} // rank 0 carries 3 of 4 parts
	co, gotT, got := runDistConfig(t, tc, 10, Config{
		InProcess:     true,
		AutoRebalance: true,
		RebalanceDetector: tune.DetectorConfig{
			Threshold: 1.2, Window: 2, Cooldown: 3,
		},
	})
	defer co.Close()
	requireBitwise(t, "auto rebalance", wantT, gotT, want, got)
	n, _ := co.Rebalances()
	if n < 1 {
		t.Fatalf("no automatic rebalance triggered (trace %v)", co.TraceSamples())
	}
	if pr := co.PartRanks(); tune.Equal(pr, []int{0, 0, 0, 1}) {
		t.Errorf("placement unchanged after %d rebalances: %v", n, pr)
	}
}

// TestTelemetryCounters: with telemetry on, the per-level and per-part
// counters fill in, every rank reports its pointwise stepping time next
// to the share of the nodes it was spent on (less than the mesh, summing
// to the mesh plus the rank interfaces), and the coordinator's busy trace
// records one sample per cycle; with it off (the default) they stay empty.
func TestTelemetryCounters(t *testing.T) {
	tc := newTestConfig(t, "acoustic", true, 2, 4)
	tc.cfg.Telemetry = true
	co, _, _ := runDistConfig(t, tc, 3, Config{InProcess: true})
	defer co.Close()
	if got := len(co.TraceSamples()); got != 3 {
		t.Errorf("trace has %d samples, want 3", got)
	}
	stats, err := co.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	share := 0
	for r, st := range stats {
		var lvl, part int64
		for _, n := range st.LevelNanos {
			lvl += n
		}
		for _, n := range st.PartNanos {
			part += n
		}
		if lvl <= 0 {
			t.Errorf("rank %d level nanos sum %d, want > 0", r, lvl)
		}
		if part <= 0 {
			t.Errorf("rank %d part nanos sum %d, want > 0", r, part)
		}
		if len(st.OwnedParts) == 0 || len(st.PartNanos) != len(st.OwnedParts) {
			t.Errorf("rank %d owned/part telemetry mismatch: %v vs %d nanos",
				r, st.OwnedParts, len(st.PartNanos))
		}
		if st.PointwiseNanos <= 0 {
			t.Errorf("rank %d pointwise nanos %d, want > 0", r, st.PointwiseNanos)
		}
		nn := tc.geom.NumNodes()
		if st.ActiveNodes <= 0 || st.FarNodes <= 0 || st.ActiveNodes+st.FarNodes != st.FootprintNodes || st.FootprintNodes >= nn {
			t.Errorf("rank %d steps %d active + %d far-coarse nodes on a footprint of %d in a mesh of %d",
				r, st.ActiveNodes, st.FarNodes, st.FootprintNodes, nn)
		}
		share += st.FootprintNodes
	}
	if nn := tc.geom.NumNodes(); share < nn || share > nn+nn/2 {
		t.Errorf("the ranks' footprints add up to %d nodes of %d", share, nn)
	}

	off := newTestConfig(t, "acoustic", true, 2, 4)
	co2, _, _ := runDistConfig(t, off, 2, Config{InProcess: true})
	defer co2.Close()
	stats2, err := co2.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if len(co2.TraceSamples()) != 0 {
		t.Error("trace recorded without telemetry")
	}
	for r, st := range stats2 {
		if len(st.LevelNanos) != 0 || len(st.PartNanos) != 0 || st.PointwiseNanos != 0 || st.FootprintNodes != 0 {
			t.Errorf("rank %d carries telemetry with it disabled", r)
		}
	}
}
