package wave_test

import (
	"bytes"
	"context"
	"testing"

	"golts/wave"
)

// runToCSV builds a simulation with the given options, runs it to
// completion and returns the CSV byte stream of its seismograms.
func runConfigCSV(t *testing.T, opts ...wave.Option) []byte {
	t.Helper()
	var buf bytes.Buffer
	sim, err := wave.New(append(opts, wave.WithSink(wave.CSVSink(&buf)))...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := sim.Run(context.Background(), 0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := sim.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

// TestArtifactCacheBitwiseReuse is the artifact-cache acceptance bar: a
// cached (warm) run must hit the cache for every build artifact and
// produce byte-identical output to both the cold run and a cache-free
// run of the same configuration.
func TestArtifactCacheBitwiseReuse(t *testing.T) {
	cache := wave.NewArtifactCache(0)
	opts := tinyOpts(wave.WithWorkers(2), wave.WithArtifactCache(cache))

	plain := runConfigCSV(t, tinyOpts(wave.WithWorkers(2))...)
	cold := runConfigCSV(t, opts...)
	warm := runConfigCSV(t, opts...)

	if !bytes.Equal(cold, plain) {
		t.Error("cold cached run diverges from cache-free run")
	}
	if !bytes.Equal(warm, cold) {
		t.Error("warm (cache-hit) run diverges from cold run")
	}

	ctr := cache.Counters()
	if ctr.Hits == 0 {
		t.Errorf("no cache hits across two identical runs: %+v", ctr)
	}
	if ctr.Misses == 0 {
		t.Errorf("no cache misses on the cold run: %+v", ctr)
	}
}

// TestArtifactCacheStats: Stats reports per-simulation lookup/hit counts
// — zero lookups without a cache, all-hits on the warm build.
func TestArtifactCacheStats(t *testing.T) {
	cache := wave.NewArtifactCache(0)
	opts := tinyOpts(wave.WithWorkers(2), wave.WithArtifactCache(cache))

	cold, err := wave.New(opts...)
	if err != nil {
		t.Fatalf("New (cold): %v", err)
	}
	defer cold.Close()
	cs := cold.Stats()
	if cs.ArtifactLookups == 0 || cs.ArtifactHits != 0 {
		t.Errorf("cold stats = %d lookups / %d hits, want >0 / 0", cs.ArtifactLookups, cs.ArtifactHits)
	}

	warm, err := wave.New(opts...)
	if err != nil {
		t.Fatalf("New (warm): %v", err)
	}
	defer warm.Close()
	ws := warm.Stats()
	if ws.ArtifactLookups == 0 || ws.ArtifactHits != ws.ArtifactLookups {
		t.Errorf("warm stats = %d lookups / %d hits, want all hits", ws.ArtifactLookups, ws.ArtifactHits)
	}

	plain, err := wave.New(tinyOpts()...)
	if err != nil {
		t.Fatalf("New (no cache): %v", err)
	}
	defer plain.Close()
	if ps := plain.Stats(); ps.ArtifactLookups != 0 || ps.ArtifactHits != 0 {
		t.Errorf("cache-free stats = %d lookups / %d hits, want 0 / 0", ps.ArtifactLookups, ps.ArtifactHits)
	}
}

// TestArtifactCacheDistinctConfigs: different configurations coexist in
// one cache without cross-talk — each physics matches its own cache-free
// reference bitwise, and the two references differ. Cycle count is high
// enough for the wavefront to reach the receiver (at 2 cycles both
// physics still record exact zeros, which would mask cross-talk).
func TestArtifactCacheDistinctConfigs(t *testing.T) {
	cycles := wave.WithCycles(10)
	elastic := []wave.Option{wave.WithPhysics(wave.Elastic), wave.WithSourceComponent(2)}

	refA := runConfigCSV(t, tinyOpts(cycles)...)
	refB := runConfigCSV(t, append(tinyOpts(cycles), elastic...)...)
	if bytes.Equal(refA, refB) {
		t.Fatal("reference acoustic and elastic runs are byte-identical; configs unusable for a cross-talk check")
	}

	cache := wave.NewArtifactCache(0)
	a := runConfigCSV(t, tinyOpts(cycles, wave.WithArtifactCache(cache))...)
	b := runConfigCSV(t, append(tinyOpts(cycles, wave.WithArtifactCache(cache)), elastic...)...)
	if !bytes.Equal(a, refA) {
		t.Error("cached acoustic run diverges from cache-free reference")
	}
	if !bytes.Equal(b, refB) {
		t.Error("cached elastic run diverges from cache-free reference")
	}
	a2 := runConfigCSV(t, tinyOpts(cycles, wave.WithArtifactCache(cache))...)
	if !bytes.Equal(a2, refA) {
		t.Error("acoustic rerun diverged after an elastic run shared the cache")
	}
}

// TestArtifactCacheConcurrentRuns: two simulations sharing cached
// operators may step concurrently; both must match the sequential
// reference bitwise. (Operators and plans are immutable; scratch is
// pooled per goroutine.)
func TestArtifactCacheConcurrentRuns(t *testing.T) {
	// Workers 1 is what service jobs run: both goroutines then place their
	// points on, and step, the one shared cached operator directly.
	for _, workers := range []int{1, 2} {
		cache := wave.NewArtifactCache(0)
		opts := tinyOpts(wave.WithWorkers(workers), wave.WithArtifactCache(cache))
		want := runConfigCSV(t, opts...)

		type result struct {
			bytes []byte
			err   error
		}
		results := make(chan result, 2)
		for g := 0; g < 2; g++ {
			go func() {
				var buf bytes.Buffer
				sim, err := wave.New(append(opts, wave.WithSink(wave.CSVSink(&buf)))...)
				if err == nil {
					if err = sim.Run(context.Background(), 0); err == nil {
						err = sim.Close()
					}
				}
				results <- result{buf.Bytes(), err}
			}()
		}
		for g := 0; g < 2; g++ {
			r := <-results
			if r.err != nil {
				t.Fatalf("workers %d: concurrent run: %v", workers, r.err)
			}
			if !bytes.Equal(r.bytes, want) {
				t.Fatalf("workers %d: concurrent cached run diverges from reference", workers)
			}
		}
	}
}

// TestWithArtifactCacheNil: the option rejects a nil cache eagerly.
func TestWithArtifactCacheNil(t *testing.T) {
	if err := wave.Validate(wave.WithArtifactCache(nil)); err == nil {
		t.Fatal("nil cache accepted")
	}
}
