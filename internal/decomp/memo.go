package decomp

import (
	"container/list"
	"fmt"
	"sync"
)

// Memo is a generic, byte-bounded, least-recently-used memoization cache
// with single-flight builds: concurrent Gets for one key share a single
// build instead of racing duplicates — the artifact store of the
// simulation service keys meshes, GLL tables, decomposition plans and
// batch plans by canonical config hash through one of these. Values are
// stored as built; callers must treat them as immutable (every consumer
// of a shared artifact in this codebase already does). Build errors are
// returned to every waiter and never cached. A Memo is safe for
// concurrent use.
//
// The bound is in bytes: each value is charged what the memo's size
// function reports for it (called once per successful build, outside the
// lock), and an insert evicts least-recently-used entries until the
// resident bytes fit the budget. A value larger than the whole budget is
// still cached, alone, so the second Get of any key hits. A value built
// from another cached value may be cached owned by it (GetOwned) when it
// references memory the owner is charged for: it is cached only while
// that owner is resident and is evicted with it, so no resident value
// keeps an uncounted one alive.
type Memo[V any] struct {
	mu      sync.Mutex
	budget  int64
	size    func(V) int64
	bytes   int64 // resident, the sum of the entries' sizes
	entries map[string]*list.Element
	order   *list.List // front = most recently used
	flights map[string]*flight[V]
	ctr     MemoCounters
}

// memoEntry is one cached key/value pair, threaded on the LRU list.
type memoEntry[V any] struct {
	key   string
	val   V
	size  int64
	owner string // key of the entry it was built from, "" for none
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

// NewMemo creates a memo bounded to budget bytes, as size reports them
// (budget < 1 panics: an unbounded artifact cache in a long-running
// service is a leak, so the bound is part of the contract).
func NewMemo[V any](budget int64, size func(V) int64) *Memo[V] {
	if budget < 1 {
		panic(fmt.Sprintf("decomp: NewMemo budget %d < 1", budget))
	}
	return &Memo[V]{
		budget:  budget,
		size:    size,
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
	var none V
	return m.GetOwned(key, "", none, build)
}

// GetOwned is Get for a value built from owner, the value cached under
// ownerKey: it is cached only if owner itself (not a rebuild under
// ownerKey) is resident when the build finishes, and it leaves the memo
// when owner does. owner must be comparable (a pointer). An empty
// ownerKey is Get.
func (m *Memo[V]) GetOwned(key, ownerKey string, owner V, build func() (V, error)) (val V, hit bool, err error) {
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
	var size int64
	if fl.err == nil {
		size = m.size(fl.val)
	}

	m.mu.Lock()
	delete(m.flights, key)
	if fl.err == nil {
		m.insert(&memoEntry[V]{key: key, val: fl.val, size: size, owner: ownerKey}, owner)
	}
	m.mu.Unlock()
	return fl.val, false, fl.err
}

// insert stores e, first evicting from the LRU tail until it fits the
// budget (or nothing else is left). An entry whose owner is not resident
// under e.owner, before or after the evictions, is not stored. Caller
// holds mu.
func (m *Memo[V]) insert(e *memoEntry[V], owner V) {
	ownerGone := func() bool {
		o, ok := m.entries[e.owner]
		return e.owner != "" && (!ok || any(o.Value.(*memoEntry[V]).val) != any(owner))
	}
	if ownerGone() {
		return
	}
	for m.bytes+e.size > m.budget && m.order.Len() > 0 {
		m.evict(m.order.Back())
	}
	if ownerGone() { // evicted to make room
		return
	}
	m.entries[e.key] = m.order.PushFront(e)
	m.bytes += e.size
}

// evict removes an entry and, first, every entry it owns. Caller holds mu.
func (m *Memo[V]) evict(el *list.Element) {
	e := el.Value.(*memoEntry[V])
	var owned []*list.Element
	for o := m.order.Front(); o != nil; o = o.Next() {
		if ow := o.Value.(*memoEntry[V]).owner; ow != "" && ow == e.key {
			owned = append(owned, o)
		}
	}
	for _, o := range owned {
		m.evict(o)
	}
	m.order.Remove(el)
	delete(m.entries, e.key)
	m.bytes -= e.size
	m.ctr.Evictions++
}

// Len returns the number of cached entries.
func (m *Memo[V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.order.Len()
}

// Bytes returns the resident bytes: the sizes of the cached entries.
func (m *Memo[V]) Bytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.bytes
}

// Counters returns a snapshot of the traffic counters.
func (m *Memo[V]) Counters() MemoCounters {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ctr
}
