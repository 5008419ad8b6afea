package decomp

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestMemoBasics: hit/miss accounting, LRU eviction order, and the
// bound.
func TestMemoBasics(t *testing.T) {
	m := NewMemo[int](2)
	mk := func(v int) func() (int, error) { return func() (int, error) { return v, nil } }

	if v, hit, _ := m.Get("a", mk(1)); v != 1 || hit {
		t.Fatalf("first Get = (%d, hit=%v), want (1, miss)", v, hit)
	}
	if v, hit, _ := m.Get("a", mk(99)); v != 1 || !hit {
		t.Fatalf("second Get = (%d, hit=%v), want cached (1, hit)", v, hit)
	}
	m.Get("b", mk(2))
	m.Get("a", mk(1)) // refresh a: b is now LRU
	m.Get("c", mk(3)) // evicts b
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
	if _, hit, _ := m.Get("a", mk(1)); !hit {
		t.Error("a was evicted despite being recently used")
	}
	rebuilt := false
	m.Get("b", func() (int, error) { rebuilt = true; return 2, nil })
	if !rebuilt {
		t.Error("b survived eviction past the bound")
	}
	ctr := m.Counters()
	if ctr.Evictions < 2 {
		t.Errorf("evictions = %d, want >= 2 (b twice)", ctr.Evictions)
	}
	if ctr.Hits < 2 || ctr.Misses < 4 {
		t.Errorf("counters = %+v, want >= 2 hits and >= 4 misses", ctr)
	}
}

// TestMemoSingleFlight: concurrent Gets of one key run the build exactly
// once; joiners block for the shared result and count as hits.
func TestMemoSingleFlight(t *testing.T) {
	m := NewMemo[int](8)
	var builds atomic.Int64
	release := make(chan struct{})
	const waiters = 16
	var wg sync.WaitGroup
	results := make([]int, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := m.Get("k", func() (int, error) {
				builds.Add(1)
				<-release
				return 42, nil
			})
			if err != nil {
				t.Errorf("Get: %v", err)
			}
			results[i] = v
		}(i)
	}
	close(release)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("build ran %d times for %d concurrent Gets, want 1", n, waiters)
	}
	for i, v := range results {
		if v != 42 {
			t.Fatalf("waiter %d got %d, want 42", i, v)
		}
	}
	ctr := m.Counters()
	if ctr.Misses != 1 || ctr.Hits != waiters-1 {
		t.Errorf("counters = %+v, want 1 miss and %d hits", ctr, waiters-1)
	}
}

// TestMemoBuildErrorNotCached: a failed build reaches every waiter and
// leaves nothing behind, so the next Get retries.
func TestMemoBuildErrorNotCached(t *testing.T) {
	m := NewMemo[int](8)
	boom := errors.New("boom")
	if _, _, err := m.Get("k", func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("Get error = %v, want boom", err)
	}
	if m.Len() != 0 {
		t.Fatalf("error was cached: Len = %d", m.Len())
	}
	v, hit, err := m.Get("k", func() (int, error) { return 7, nil })
	if err != nil || hit || v != 7 {
		t.Fatalf("retry Get = (%d, hit=%v, err=%v), want fresh (7, miss, nil)", v, hit, err)
	}
}

// TestMemoConcurrentKeys hammers distinct and shared keys under the race
// detector.
func TestMemoConcurrentKeys(t *testing.T) {
	m := NewMemo[string](4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (g+i)%6)
				v, _, err := m.Get(key, func() (string, error) { return key + "!", nil })
				if err != nil || v != key+"!" {
					t.Errorf("Get(%s) = (%q, %v)", key, v, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
