// Package vcache is a version-keyed LRU: each key holds one value tagged
// with the database version it was computed at, under a cost budget.
//
// Versions are a database's mutation counter and only ever grow, so an
// entry older than the probed version is dead once a newer one exists —
// except inside a caller-chosen stale window, where it is still the
// stale-while-revalidate answer. An entry newer than the probed version is
// a fresher fact the prober has not caught up with yet: it misses but
// stays, since the next probe at the current version will want it.
package vcache

import (
	"sync"
	"time"
)

// State classifies a Get outcome.
type State int

const (
	Miss  State = iota // no entry usable at the probed version
	Fresh              // entry at exactly the probed version
	Stale              // older-version entry inside the stale window
)

type entry[K comparable, V any] struct {
	key        K
	version    int64
	val        V
	cost       int64
	prev, next *entry[K, V]
	// staleSince is when the entry was first observed stale (zero while
	// fresh); the stale window is measured from here, so a long-lived
	// entry is still servable for the full window after the version bump
	// that staled it.
	staleSince time.Time
}

// Cache is a cost-bounded LRU holding at most one version per key. Safe for
// concurrent use. A nil *Cache is inert: Get misses, Put stores nothing.
type Cache[K comparable, V any] struct {
	mu     sync.Mutex
	budget int64
	used   int64
	m      map[K]*entry[K, V]
	root   entry[K, V] // sentinel: root.next is most recent, root.prev least
	now    func() time.Time
}

// New returns an empty cache that evicts least-recently-used entries once
// the summed cost of its entries exceeds budget. With every cost 1 the
// budget is an entry count.
func New[K comparable, V any](budget int64) *Cache[K, V] {
	c := &Cache[K, V]{budget: budget, m: make(map[K]*entry[K, V]), now: time.Now}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

// SetClock replaces the clock that times stale windows, for tests.
func (c *Cache[K, V]) SetClock(now func() time.Time) {
	c.mu.Lock()
	c.now = now
	c.mu.Unlock()
}

// Get returns the value cached for key and how it qualifies at version:
// Fresh for an exact version match; Stale for an older entry whose
// staleness age is at most maxStale (the entry is kept — the caller serves
// it and revalidates); Miss otherwise. Past the window, or with maxStale
// <= 0, an older entry is purged on the way — the explicit invalidation
// point for mutated databases. A newer entry misses and is kept.
func (c *Cache[K, V]) Get(key K, version int64, maxStale time.Duration) (V, State) {
	var zero V
	if c == nil {
		return zero, Miss
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	switch {
	case !ok || e.version > version:
		return zero, Miss
	case e.version == version:
		c.toFront(e)
		return e.val, Fresh
	}
	if maxStale > 0 {
		now := c.now()
		if e.staleSince.IsZero() {
			e.staleSince = now
		}
		if now.Sub(e.staleSince) <= maxStale {
			c.toFront(e)
			return e.val, Stale
		}
	}
	c.remove(e)
	return zero, Miss
}

// Put stores val under (key, version) with the given cost, evicting
// least-recently-used entries beyond the budget, and returns how many it
// evicted (a replaced older entry for the same key is not counted). An
// entry for key at an equal or newer version wins over this store, so a
// slow computation can never clobber a fresher value. An entry costing
// more than the whole budget is still kept, alone: the repeat probes a
// cache exists for would otherwise never hit.
func (c *Cache[K, V]) Put(key K, version int64, val V, cost int64) (evicted int64) {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.m[key]; ok {
		if prev.version >= version {
			return 0
		}
		c.remove(prev)
	}
	e := &entry[K, V]{key: key, version: version, val: val, cost: cost}
	c.m[key] = e
	c.used += cost
	c.link(e)
	for c.used > c.budget && len(c.m) > 1 {
		c.remove(c.root.prev)
		evicted++
	}
	return evicted
}

// Drop forgets key, whatever its version.
func (c *Cache[K, V]) Drop(key K) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if e, ok := c.m[key]; ok {
		c.remove(e)
	}
	c.mu.Unlock()
}

// Len reports how many keys are cached.
func (c *Cache[K, V]) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// link inserts e at the front of the recency list; callers hold mu.
func (c *Cache[K, V]) link(e *entry[K, V]) {
	e.prev, e.next = &c.root, c.root.next
	e.prev.next, e.next.prev = e, e
}

// unlink takes e out of the recency list; callers hold mu.
func (c *Cache[K, V]) unlink(e *entry[K, V]) {
	e.prev.next, e.next.prev = e.next, e.prev
}

func (c *Cache[K, V]) toFront(e *entry[K, V]) {
	c.unlink(e)
	c.link(e)
}

// remove drops e from the map, the list and the used cost; callers hold mu.
func (c *Cache[K, V]) remove(e *entry[K, V]) {
	c.unlink(e)
	delete(c.m, e.key)
	c.used -= e.cost
}
