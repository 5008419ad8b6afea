package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func parseFloatCell(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(s, "%")
	s = strings.TrimSuffix(s, "M")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", s, err)
	}
	return v
}

func TestTable5Quick(t *testing.T) {
	tb, err := Table5MeshInventory(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("want 4 meshes, got %d", len(tb.Rows))
	}
	wantLevels := map[string]string{"trench": "4", "trench-big": "6", "embedding": "4", "crust": "2"}
	for _, row := range tb.Rows {
		if got := row[4]; got != wantLevels[row[0]] {
			t.Errorf("%s: %s levels, want %s", row[0], got, wantLevels[row[0]])
		}
	}
	if !strings.Contains(tb.Render(), "trench-big") {
		t.Error("render missing mesh name")
	}
}

func TestFig1Quick(t *testing.T) {
	tb, err := Fig1Timeline(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows %d", len(tb.Rows))
	}
	// The level-oblivious slab stalls at least as much as SCOTCH-P and
	// leaves at least one level fully unbalanced.
	slabStall := parseFloatCell(t, tb.Rows[0][1])
	spStall := parseFloatCell(t, tb.Rows[1][1])
	if slabStall < spStall {
		t.Errorf("slab stall %v%% below scotch-p %v%%", slabStall, spStall)
	}
	if !strings.Contains(tb.Rows[0][3], "100%") {
		t.Errorf("slab per-level imbalance %q should contain a fully unbalanced level", tb.Rows[0][3])
	}
	// SCOTCH-P's cycle is no slower.
	if rel := parseFloatCell(t, tb.Rows[1][2]); rel > 1.0 {
		t.Errorf("scotch-p relative cycle time %v > 1", rel)
	}
}

func TestFig7Quick(t *testing.T) {
	cfg := Quick()
	tb, err := Fig7LoadImbalance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != len(cfg.PartKs) {
		t.Fatalf("want %d rows, got %d", len(cfg.PartKs), len(tb.Rows))
	}
	// The baseline's per-level imbalance must dwarf every LTS-aware
	// partitioner's total imbalance (the paper's core point).
	for _, row := range tb.Rows {
		base := parseFloatCell(t, row[len(row)-1])
		if base < 50 {
			t.Errorf("baseline per-level imbalance %v%% suspiciously low", base)
		}
	}
}

func TestFig8Quick(t *testing.T) {
	cfg := Quick()
	tb, err := Fig8CommMetrics(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != len(cfg.PartKs)*len(figPartitioners) {
		t.Fatalf("row count %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		cut, err := strconv.ParseFloat(row[2], 64)
		if err != nil || cut <= 0 {
			t.Errorf("bad graph cut %q", row[2])
		}
		vol, err := strconv.ParseFloat(row[3], 64)
		if err != nil || vol <= 0 {
			t.Errorf("bad volume %q", row[3])
		}
	}
}

func TestFig9Quick(t *testing.T) {
	cfg := Quick()
	cpu, gpu, err := Fig9TrenchScaling(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cpu.Rows) != len(cfg.Nodes) || len(gpu.Rows) != len(cfg.Nodes) {
		t.Fatalf("row counts %d/%d", len(cpu.Rows), len(gpu.Rows))
	}
	// Normalisation: non-LTS CPU at the first node count is 1.00.
	if got := parseFloatCell(t, cpu.Rows[0][1]); got != 1.00 {
		t.Errorf("baseline normalisation %v, want 1.00", got)
	}
	// LTS beats non-LTS at every point on the CPU panel.
	for _, row := range cpu.Rows {
		non := parseFloatCell(t, row[1])
		scotchp := parseFloatCell(t, row[3])
		if scotchp <= non {
			t.Errorf("LTS (%v) not faster than non-LTS (%v) at %s nodes", scotchp, non, row[0])
		}
	}
	// GPU non-LTS beats CPU non-LTS at equal node counts.
	if g, c := parseFloatCell(t, gpu.Rows[0][1]), parseFloatCell(t, cpu.Rows[0][1]); g <= c {
		t.Errorf("GPU (%v) not faster than CPU (%v)", g, c)
	}
}

func TestFig10And11Quick(t *testing.T) {
	cfg := Quick()
	t10, err := Fig10EmbeddingScaling(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t11, err := Fig11CrustScaling(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Crust's limited speedup: its LTS/non-LTS ratio stays below
	// embedding's at the same node count (1.9x vs 7.9x theoretical).
	embRatio := parseFloatCell(t, t10.Rows[0][3]) / parseFloatCell(t, t10.Rows[0][1])
	crustRatio := parseFloatCell(t, t11.Rows[0][3]) / parseFloatCell(t, t11.Rows[0][1])
	if crustRatio >= embRatio {
		t.Errorf("crust speedup ratio %v not below embedding %v", crustRatio, embRatio)
	}
	if crustRatio < 1.0 || crustRatio > 2.2 {
		t.Errorf("crust LTS ratio %v outside the plausible band around 1.9x", crustRatio)
	}
}

func TestFig12Quick(t *testing.T) {
	cfg := Quick()
	tb, err := Fig12CacheMetric(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prevNon := 0.0
	for _, row := range tb.Rows {
		non := parseFloatCell(t, row[1])
		lts := parseFloatCell(t, row[2])
		nonRate := parseFloatCell(t, row[3])
		ltsRate := parseFloatCell(t, row[4])
		if ltsRate <= nonRate {
			t.Errorf("LTS hit rate %v not above non-LTS %v", ltsRate, nonRate)
		}
		if non <= prevNon {
			t.Errorf("hit metric not increasing with node count: %v after %v", non, prevNon)
		}
		prevNon = non
		_ = lts
	}
}

func TestFig13Quick(t *testing.T) {
	cfg := Quick()
	tb, err := Fig13LargeTrench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != len(cfg.BigNodes) {
		t.Fatalf("rows %d", len(tb.Rows))
	}
	// LTS well above non-LTS everywhere (big theoretical speedup).
	for _, row := range tb.Rows {
		if lts, non := parseFloatCell(t, row[3]), parseFloatCell(t, row[1]); lts < 2*non {
			t.Errorf("large trench LTS %v not well above non-LTS %v", lts, non)
		}
	}
}

func TestSingleThreadEfficiencyQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement")
	}
	// Plausibility bar, not a perf bar: a broken LTS active-set
	// implementation collapses to ~10% efficiency, while a loaded shared
	// CI box only shaves a handful of points off a healthy run. Keep the
	// floor well under the quiet-machine 65-75% and take the best of
	// three measurements so scheduler noise cannot fail a correct build.
	const floor, ceil = 25, 200
	attempts := 3
	var rows [][]string
	for a := 1; ; a++ {
		tb, err := SingleThreadEfficiency(Quick())
		if err != nil {
			t.Fatal(err)
		}
		rows = tb.Rows
		ok := true
		for _, row := range rows {
			if eff := parseFloatCell(t, row[6]); eff < floor || eff > ceil {
				ok = false
			}
		}
		if ok || a == attempts {
			break
		}
		t.Logf("attempt %d outside [%d%%, %d%%]; remeasuring", a, floor, ceil)
	}
	for _, row := range rows {
		eff := parseFloatCell(t, row[6])
		if eff < floor || eff > ceil {
			t.Errorf("%s: measured efficiency %v%% implausible", row[0], eff)
		}
		model := parseFloatCell(t, row[3])
		if model <= 1 {
			t.Errorf("%s: model speedup %v should exceed 1", row[0], model)
		}
	}
}

func TestConvergenceStudyOrders(t *testing.T) {
	tb, err := ConvergenceStudy(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows %d", len(tb.Rows))
	}
	// Observed orders on the refined rows must be ~2 for both schemes.
	for _, row := range tb.Rows[1:] {
		for _, col := range []int{2, 4} {
			ord := parseFloatCell(t, row[col])
			if ord < 1.7 || ord > 2.4 {
				t.Errorf("observed order %v outside [1.7, 2.4] (row %v)", ord, row)
			}
		}
	}
}

func TestRenderAligned(t *testing.T) {
	tb := &Table{
		Name:   "x",
		Title:  "t",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"n"},
	}
	out := tb.Render()
	if !strings.Contains(out, "== x: t ==") || !strings.Contains(out, "note: n") {
		t.Errorf("render output malformed:\n%s", out)
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	c = c.withDefaults()
	if c.TrenchScale == 0 || len(c.Nodes) == 0 || c.Seed == 0 {
		t.Error("withDefaults left zero fields")
	}
}
