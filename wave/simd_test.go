package wave_test

import (
	"context"
	"slices"
	"testing"

	"golts/internal/sem"
	"golts/wave"
)

// simdGoldenCases picks the deg=4 golden cells (the degree whose batched
// kernels go through the dispatched microkernels) and adds an elastic
// deg=4 LTS cell so both stress passes run at full tier width.
func simdGoldenCases() []goldenCase {
	var cases []goldenCase
	for _, c := range goldenCases() {
		if c.cfg.Degree == 4 {
			cases = append(cases, c)
		}
	}
	el := goldenCases()[2] // elastic-lts-4w
	el.name = "elastic-lts-4w-deg4"
	el.cfg.Degree = 4
	cases = append(cases, el)
	return cases
}

// runGolden runs one golden case through the facade and returns its
// seismograms plus the SIMD tier Stats reported.
func runGolden(t *testing.T, c goldenCase) (*wave.Seismograms, string) {
	t.Helper()
	sim, err := wave.New(facadeOptions(c)...)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if err := sim.Run(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	return sim.Seismograms(), sim.Stats().SIMD
}

// sameSeismograms compares two runs' times and trace values bitwise.
func sameSeismograms(t *testing.T, tier string, got, want *wave.Seismograms) {
	t.Helper()
	if !slices.Equal(got.Times, want.Times) {
		t.Fatalf("tier %s sample times differ from the go tier's", tier)
	}
	if len(got.Traces) != len(want.Traces) {
		t.Fatalf("tier %s recorded %d traces, go tier %d", tier, len(got.Traces), len(want.Traces))
	}
	for ti := range want.Traces {
		g, w := got.Traces[ti].Values, want.Traces[ti].Values
		if len(g) != len(w) {
			t.Fatalf("tier %s trace %d: %d samples, go tier %d", tier, ti, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("tier %s trace %d sample %d = %v, go tier %v (bitwise)", tier, ti, i, g[i], w[i])
			}
		}
	}
}

// TestGoldenSeismogramsAllSIMDTiers runs full wave simulations at deg=4
// under every usable microkernel tier and requires bitwise-identical
// seismograms: the tier switch must change speed only, never physics.
func TestGoldenSeismogramsAllSIMDTiers(t *testing.T) {
	for _, c := range simdGoldenCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			restore, err := sem.ForceSIMDTier("go")
			if err != nil {
				t.Fatal(err)
			}
			want, tier := runGolden(t, c)
			restore()
			if tier != "go" {
				t.Fatalf("Stats().SIMD = %q under forced go tier", tier)
			}
			if !want.SawWave() {
				t.Fatal("go-tier run: no trace reaches simio.WaveFloor over two nonzero samples; the comparison is vacuous")
			}
			for _, name := range sem.SIMDTiers() {
				restore, err := sem.ForceSIMDTier(name)
				if err != nil {
					t.Fatal(err)
				}
				got, tier := runGolden(t, c)
				restore()
				if tier != name {
					t.Fatalf("Stats().SIMD = %q under forced %s tier", tier, name)
				}
				sameSeismograms(t, name, got, want)
			}
		})
	}
}
