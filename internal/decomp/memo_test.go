package decomp

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// eightBytes charges every int 8 bytes, so a budget of 8n bytes holds n
// of them.
func eightBytes(int) int64 { return 8 }

// TestMemoBasics: hit/miss accounting, LRU eviction order, and the
// bound.
func TestMemoBasics(t *testing.T) {
	m := NewMemo[int](16, eightBytes)
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
	if m.Len() != 2 || m.Bytes() != 16 {
		t.Fatalf("Len = %d, Bytes = %d, want 2 and 16", m.Len(), m.Bytes())
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
	m := NewMemo[int](64, eightBytes)
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
	m := NewMemo[int](64, eightBytes)
	boom := errors.New("boom")
	if _, _, err := m.Get("k", func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("Get error = %v, want boom", err)
	}
	if m.Len() != 0 || m.Bytes() != 0 {
		t.Fatalf("error was cached: Len = %d, Bytes = %d", m.Len(), m.Bytes())
	}
	v, hit, err := m.Get("k", func() (int, error) { return 7, nil })
	if err != nil || hit || v != 7 {
		t.Fatalf("retry Get = (%d, hit=%v, err=%v), want fresh (7, miss, nil)", v, hit, err)
	}
}

// TestMemoConcurrentKeys hammers distinct and shared keys under the race
// detector.
func TestMemoConcurrentKeys(t *testing.T) {
	m := NewMemo[string](int64(4*len("k0!")), func(v string) int64 { return int64(len(v)) })
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
	if m.Len() > 4 || m.Bytes() > int64(4*len("k0!")) {
		t.Errorf("Len = %d, Bytes = %d past a budget of four values", m.Len(), m.Bytes())
	}
}

// sized is a test value that carries the byte size the memo charges it.
type sized struct {
	name  string
	bytes int64
}

func sizeOf(v sized) int64 { return v.bytes }

// resident reports whether key is cached, without caching anything: the
// probe's build fails, and a failed build is never stored.
func resident[V any](m *Memo[V], key string) bool {
	_, hit, _ := m.Get(key, func() (V, error) {
		var zero V
		return zero, errors.New("probe")
	})
	return hit
}

// put caches v under its name, owned by the value under owner ("" for
// none) — the one of size ownerBytes.
func put(t *testing.T, m *Memo[sized], v sized, owner string, ownerBytes int64) {
	t.Helper()
	if _, _, err := m.GetOwned(v.name, owner, sized{owner, ownerBytes}, func() (sized, error) { return v, nil }); err != nil {
		t.Fatalf("GetOwned(%s): %v", v.name, err)
	}
}

// TestMemoEvictsBytesInLRUOrder: an insert evicts from the LRU tail
// until the resident bytes fit the budget, and no further.
func TestMemoEvictsBytesInLRUOrder(t *testing.T) {
	m := NewMemo[sized](100, sizeOf)
	put(t, m, sized{"a", 40}, "", 0)
	put(t, m, sized{"b", 30}, "", 0)
	put(t, m, sized{"c", 20}, "", 0)
	if !resident(m, "a") { // touch a: b is now LRU
		t.Fatal("a evicted under the budget")
	}
	put(t, m, sized{"d", 30}, "", 0) // 120 bytes: evicts b alone
	if resident(m, "b") || m.Bytes() != 90 || m.Len() != 3 {
		t.Fatalf("after d: b resident %v, Bytes = %d, Len = %d, want b gone, 90 and 3", resident(m, "b"), m.Bytes(), m.Len())
	}
	// The order is d, a, c (most recent first); e needs 50 free bytes:
	// c and a go, d stays.
	put(t, m, sized{"e", 50}, "", 0)
	for _, c := range []struct {
		key  string
		want bool
	}{{"a", false}, {"c", false}, {"d", true}, {"e", true}} {
		if got := resident(m, c.key); got != c.want {
			t.Errorf("after e: resident(%s) = %v, want %v", c.key, got, c.want)
		}
	}
	if m.Bytes() != 80 {
		t.Errorf("after e: Bytes = %d, want 80", m.Bytes())
	}
	if ev := m.Counters().Evictions; ev != 3 {
		t.Errorf("evictions = %d, want 3 (b, c, a)", ev)
	}
}

// TestMemoOversizeValueKeptAlone: a value larger than the budget is
// cached after everything else is evicted, so its second Get hits; the
// next insert evicts it.
func TestMemoOversizeValueKeptAlone(t *testing.T) {
	m := NewMemo[sized](100, sizeOf)
	put(t, m, sized{"a", 40}, "", 0)
	put(t, m, sized{"b", 30}, "", 0)
	put(t, m, sized{"big", 150}, "", 0)
	if m.Len() != 1 || m.Bytes() != 150 {
		t.Fatalf("Len = %d, Bytes = %d, want big alone (1, 150)", m.Len(), m.Bytes())
	}
	if _, hit, _ := m.Get("big", func() (sized, error) { return sized{}, errors.New("rebuilt") }); !hit {
		t.Error("second Get of the oversize value missed")
	}
	put(t, m, sized{"c", 10}, "", 0)
	if resident(m, "big") || !resident(m, "c") || m.Bytes() != 10 {
		t.Errorf("after c: big resident %v, c resident %v, Bytes %d; want c alone", resident(m, "big"), resident(m, "c"), m.Bytes())
	}
}

// TestMemoSizeOncePerInsert: the size function runs once for each value
// built and cached — not on hits, not for joiners of a build, not for a
// failed build.
func TestMemoSizeOncePerInsert(t *testing.T) {
	var calls atomic.Int64
	m := NewMemo[int](1<<20, func(int) int64 { calls.Add(1); return 8 })
	for i := 0; i < 3; i++ {
		for _, k := range []string{"a", "b"} {
			m.Get(k, func() (int, error) { return 1, nil })
		}
	}
	m.Get("bad", func() (int, error) { return 0, errors.New("boom") })
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.Get("shared", func() (int, error) { <-release; return 2, nil })
		}()
	}
	close(release)
	wg.Wait()
	if n := calls.Load(); n != 3 || int(n) != m.Len() {
		t.Errorf("size ran %d times for %d cached values, want 3", n, m.Len())
	}
}

// TestMemoOwnedLeavesWithOwner: a value owned by another entry is
// cached only while its owner is, and an evicted owner takes it along —
// whatever the LRU position of the owned value.
func TestMemoOwnedLeavesWithOwner(t *testing.T) {
	m := NewMemo[sized](100, sizeOf)
	put(t, m, sized{"op", 50}, "", 0)
	put(t, m, sized{"plan1", 10}, "op", 50)
	put(t, m, sized{"plan2", 10}, "op", 50)
	put(t, m, sized{"other", 20}, "", 0)
	if m.Bytes() != 90 || m.Len() != 4 {
		t.Fatalf("Bytes = %d, Len = %d, want 90 and 4", m.Bytes(), m.Len())
	}
	resident(m, "plan1") // the plans are newer than op, which is LRU
	resident(m, "plan2")
	put(t, m, sized{"x", 20}, "", 0) // evicts op, and with it both plans
	for key, want := range map[string]bool{"op": false, "plan1": false, "plan2": false, "other": true, "x": true} {
		if got := resident(m, key); got != want {
			t.Errorf("resident(%s) = %v, want %v", key, got, want)
		}
	}
	if m.Bytes() != 40 || m.Len() != 2 {
		t.Errorf("Bytes = %d, Len = %d, want 40 and 2", m.Bytes(), m.Len())
	}
	if ev := m.Counters().Evictions; ev != 3 {
		t.Errorf("evictions = %d, want 3 (op and its two plans)", ev)
	}

	// With its owner gone, an owned value is built and returned but not
	// cached.
	v, hit, err := m.GetOwned("plan1", "op", sized{"op", 50}, func() (sized, error) { return sized{"plan1", 10}, nil })
	if err != nil || hit || v.name != "plan1" {
		t.Fatalf("GetOwned without owner = (%+v, hit=%v, %v)", v, hit, err)
	}
	if resident(m, "plan1") {
		t.Error("an owned value was cached without its owner")
	}
	// Nor is it cached under a rebuild of its owner: the value resident
	// under "op" is no longer the one plan1 was built from.
	put(t, m, sized{"op", 60}, "", 0)
	m.GetOwned("plan1", "op", sized{"op", 50}, func() (sized, error) { return sized{"plan1", 10}, nil })
	if resident(m, "plan1") {
		t.Error("an owned value was cached under a rebuild of its owner")
	}
	put(t, m, sized{"plan1", 10}, "op", 60)
	if !resident(m, "plan1") {
		t.Error("a value of the resident owner was not cached")
	}

	// An owned value evicted on its own leaves its owner resident: the
	// owner's later eviction counts only itself.
	m2 := NewMemo[sized](100, sizeOf)
	put(t, m2, sized{"op", 50}, "", 0)
	put(t, m2, sized{"plan", 40}, "op", 50)
	resident(m2, "op") // plan is LRU now
	put(t, m2, sized{"y", 40}, "", 0)
	if !resident(m2, "op") || resident(m2, "plan") {
		t.Fatalf("op resident %v, plan resident %v; want the plan evicted alone", resident(m2, "op"), resident(m2, "plan"))
	}
	put(t, m2, sized{"z", 100}, "", 0)
	if ev := m2.Counters().Evictions; ev != 3 || m2.Bytes() != 100 {
		t.Errorf("evictions = %d, Bytes = %d, want 3 (plan, op, y) and 100", ev, m2.Bytes())
	}
}

// TestMemoEmptyKeyOwnsNothing: the empty key, which stands for "no
// owner", takes no standalone entry along when it is evicted.
func TestMemoEmptyKeyOwnsNothing(t *testing.T) {
	m := NewMemo[sized](100, sizeOf)
	put(t, m, sized{"", 40}, "", 0)
	put(t, m, sized{"a", 40}, "", 0)
	put(t, m, sized{"b", 40}, "", 0) // evicts "" alone
	if !resident(m, "a") || !resident(m, "b") || m.Bytes() != 80 {
		t.Errorf("a resident %v, b resident %v, Bytes %d; want both and 80", resident(m, "a"), resident(m, "b"), m.Bytes())
	}
}

// TestMemoOwnedSingleFlightAndErrors: owned builds keep Get's contract —
// joiners share one build, and a failed build is not cached.
func TestMemoOwnedSingleFlightAndErrors(t *testing.T) {
	m := NewMemo[sized](100, sizeOf)
	put(t, m, sized{"op", 50}, "", 0)
	var builds atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := m.GetOwned("plan", "op", sized{"op", 50}, func() (sized, error) {
				builds.Add(1)
				<-release
				return sized{"plan", 10}, nil
			})
			if err != nil || v.name != "plan" {
				t.Errorf("GetOwned = (%+v, %v)", v, err)
			}
		}()
	}
	close(release)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Errorf("owned build ran %d times for 8 concurrent Gets, want 1", n)
	}
	boom := errors.New("boom")
	if _, _, err := m.GetOwned("bad", "op", sized{"op", 50}, func() (sized, error) { return sized{}, boom }); !errors.Is(err, boom) {
		t.Fatalf("GetOwned error = %v, want boom", err)
	}
	if resident(m, "bad") || m.Len() != 2 || m.Bytes() != 60 {
		t.Errorf("after a failed owned build: Len = %d, Bytes = %d, want 2 and 60", m.Len(), m.Bytes())
	}
}

// TestMemoConcurrentOwned hammers owners and owned values through a
// budget that keeps evicting both, under the race detector, then checks
// the books: the resident bytes are the sum of the entries' sizes, and
// every owned entry's owner is resident.
func TestMemoConcurrentOwned(t *testing.T) {
	m := NewMemo[sized](100, sizeOf)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ok := fmt.Sprintf("op%d", (g+i)%5)
				op, _, _ := m.Get(ok, func() (sized, error) { return sized{ok, 30}, nil })
				pk := fmt.Sprintf("%s/plan%d", ok, i%3)
				v, _, err := m.GetOwned(pk, ok, op, func() (sized, error) { return sized{pk, 10}, nil })
				if err != nil || v.name != pk {
					t.Errorf("GetOwned(%s) = (%+v, %v)", pk, v, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	var sum int64
	for key, el := range m.entries {
		e := el.Value.(*memoEntry[sized])
		sum += e.size
		if e.owner == "" {
			continue
		}
		if _, ok := m.entries[e.owner]; !ok {
			t.Errorf("%s resident without its owner %s", key, e.owner)
		}
	}
	if sum != m.Bytes() || m.Bytes() > 100 || len(m.entries) != m.order.Len() {
		t.Errorf("Bytes = %d, entries sum to %d (%d keys, %d listed), budget 100", m.Bytes(), sum, len(m.entries), m.order.Len())
	}
}
