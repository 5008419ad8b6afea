package decomp

import (
	"container/list"
	"fmt"
	"sync"
)

// Memo is a generic, size-bounded, least-recently-used memoization cache
// with single-flight builds: concurrent Gets for one key share a single
// build instead of racing duplicates — the artifact store of the
// simulation service keys meshes, GLL tables, decomposition plans and
// batch plans by canonical config hash through one of these. Values are
// stored as built; callers must treat them as immutable (every consumer
// of a shared artifact in this codebase already does). Build errors are
// returned to every waiter and never cached. A Memo is safe for
// concurrent use.
type Memo[V any] struct {
	mu      sync.Mutex
	max     int
	entries map[string]*list.Element
	order   *list.List // front = most recently used
	flights map[string]*flight[V]
	ctr     MemoCounters
}

// memoEntry is one cached key/value pair, threaded on the LRU list.
type memoEntry[V any] struct {
	key string
	val V
}

// flight is one in-progress build; joiners block on done.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// MemoCounters is a point-in-time snapshot of a Memo's traffic. A Get
// that joins an in-progress build counts as a hit — the work was shared,
// not repeated.
type MemoCounters struct {
	Hits, Misses, Evictions int64
}

// NewMemo creates a memo bounded to max entries (max < 1 panics: an
// unbounded artifact cache in a long-running service is a leak, so the
// bound is part of the contract).
func NewMemo[V any](max int) *Memo[V] {
	if max < 1 {
		panic(fmt.Sprintf("decomp: NewMemo bound %d < 1", max))
	}
	return &Memo[V]{
		max:     max,
		entries: make(map[string]*list.Element),
		order:   list.New(),
		flights: make(map[string]*flight[V]),
	}
}

// Get returns the value for key, building it at most once per residency:
// a cached value returns immediately (hit=true); the first Get of a
// missing key runs build; Gets arriving while a build is in progress
// block and share its result (also hit=true — the build ran once). On a
// build error the error goes to every waiter and nothing is cached.
func (m *Memo[V]) Get(key string, build func() (V, error)) (val V, hit bool, err error) {
	m.mu.Lock()
	if el, ok := m.entries[key]; ok {
		m.order.MoveToFront(el)
		m.ctr.Hits++
		v := el.Value.(*memoEntry[V]).val
		m.mu.Unlock()
		return v, true, nil
	}
	if fl, ok := m.flights[key]; ok {
		m.ctr.Hits++
		m.mu.Unlock()
		<-fl.done
		return fl.val, true, fl.err
	}
	fl := &flight[V]{done: make(chan struct{})}
	m.flights[key] = fl
	m.ctr.Misses++
	m.mu.Unlock()

	fl.val, fl.err = build()
	close(fl.done)

	m.mu.Lock()
	delete(m.flights, key)
	if fl.err == nil {
		m.insert(key, fl.val)
	}
	m.mu.Unlock()
	return fl.val, false, fl.err
}

// insert stores a value, evicting from the LRU tail to stay within the
// bound. Caller holds mu.
func (m *Memo[V]) insert(key string, val V) {
	if el, ok := m.entries[key]; ok {
		el.Value.(*memoEntry[V]).val = val
		m.order.MoveToFront(el)
		return
	}
	for m.order.Len() >= m.max {
		tail := m.order.Back()
		m.order.Remove(tail)
		delete(m.entries, tail.Value.(*memoEntry[V]).key)
		m.ctr.Evictions++
	}
	m.entries[key] = m.order.PushFront(&memoEntry[V]{key: key, val: val})
}

// Len returns the number of cached entries.
func (m *Memo[V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.order.Len()
}

// Counters returns a snapshot of the traffic counters.
func (m *Memo[V]) Counters() MemoCounters {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ctr
}
