package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tierRow is one per_tier entry of a kernelbench JSON file.
type tierRow struct {
	Tier      string  `json:"tier"`
	Op        string  `json:"op"`
	Deg       int     `json:"deg"`
	NsPerElem float64 `json:"ns_per_elem"`
}

// writeBench writes a kernelbench-shaped JSON file with one batched sweep
// (op name → ns/elem at batch 8) and the given per-tier rows, and loads it
// back through load.
func writeBench(t *testing.T, name string, batched map[string]float64, tiers []tierRow) *report {
	t.Helper()
	type point struct {
		Batch     int     `json:"batch"`
		NsPerElem float64 `json:"ns_per_elem"`
	}
	type result struct {
		Op    string  `json:"op"`
		Deg   int     `json:"deg"`
		Sweep []point `json:"sweep"`
	}
	var results []result
	for op, ns := range batched {
		results = append(results, result{Op: op, Deg: 4, Sweep: []point{{Batch: 8, NsPerElem: ns}}})
	}
	doc := map[string]any{
		"batched":  map[string]any{"results": results},
		"per_tier": map[string]any{"results": tiers},
	}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestGate pins the verdicts: a known tier this CPU cannot run is the one
// row the gate skips; a row missing from either file, a tier unknown to
// the build and a row past the hard cap all fail it.
func TestGate(t *testing.T) {
	known := []string{"avx512", "avx2", "go"}
	ops := map[string]float64{"Op1D": 50, "Acoustic3D": 450, "Elastic3D": 1500}
	tiers := func(names ...string) []tierRow {
		var rows []tierRow
		for _, n := range names {
			rows = append(rows, tierRow{Tier: n, Op: "Elastic3D", Deg: 4, NsPerElem: 1600})
		}
		return rows
	}
	for _, tc := range []struct {
		name         string
		baseOps      map[string]float64
		baseTiers    []string
		freshOps     map[string]float64
		freshTiers   []string
		usable       []string
		wantErr      string // "" = the gate passes
		wantInOutput string
	}{
		{
			name: "all-rows-present", baseOps: ops, baseTiers: []string{"avx512", "avx2", "go"},
			freshOps: ops, freshTiers: []string{"avx512", "avx2", "go"}, usable: known,
			wantInOutput: "6 rows within",
		},
		{
			name: "unusable-known-tier-skipped", baseOps: ops, baseTiers: []string{"avx512", "avx2", "go"},
			freshOps: ops, freshTiers: []string{"avx2", "go"}, usable: []string{"avx2", "go"},
			wantInOutput: `skip   tier/avx512/Elastic3D/deg4`,
		},
		{
			name: "batched-row-missing", baseOps: ops, baseTiers: []string{"go"},
			freshOps: map[string]float64{"Op1D": 50, "Elastic3D": 1500}, freshTiers: []string{"go"}, usable: known,
			wantErr: "batched/Acoustic3D/deg4@8",
		},
		{
			name: "fresh-row-not-in-baseline", baseOps: map[string]float64{"Op1D": 50, "Elastic3D": 1500}, baseTiers: []string{"go"},
			freshOps: ops, freshTiers: []string{"avx2", "go"}, usable: known,
			wantErr: "[batched/Acoustic3D/deg4@8 tier/avx2/Elastic3D/deg4]", wantInOutput: "not present in baseline",
		},
		{
			name: "usable-tier-row-missing", baseOps: ops, baseTiers: []string{"avx2", "go"},
			freshOps: ops, freshTiers: []string{"go"}, usable: known,
			wantErr: "tier/avx2/Elastic3D/deg4",
		},
		{
			name: "unknown-tier", baseOps: ops, baseTiers: []string{"avx1024", "go"},
			freshOps: ops, freshTiers: []string{"go"}, usable: known,
			wantErr: "tier/avx1024/Elastic3D/deg4",
		},
		{
			name: "regression", baseOps: ops, baseTiers: []string{"go"},
			freshOps: map[string]float64{"Op1D": 50, "Acoustic3D": 900, "Elastic3D": 1500}, freshTiers: []string{"go"}, usable: known,
			wantErr: "hard cap",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := writeBench(t, "base.json", tc.baseOps, tiers(tc.baseTiers...))
			fresh := writeBench(t, "fresh.json", tc.freshOps, tiers(tc.freshTiers...))
			var out strings.Builder
			err := check(&out, base, fresh, known, tc.usable, 0.15, -1, false)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("gate failed: %v\n%s", err, out.String())
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("gate error = %v, want one naming %q\n%s", err, tc.wantErr, out.String())
			}
			if !strings.Contains(out.String(), tc.wantInOutput) {
				t.Fatalf("output lacks %q:\n%s", tc.wantInOutput, out.String())
			}
		})
	}
}
