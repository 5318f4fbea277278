package vcache

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// get probes with staleness disabled, collapsing (value, state) to the value
// of a Fresh hit.
func get(c *Cache[string, int], key string, version int64) (int, bool) {
	v, state := c.Get(key, version, 0)
	return v, state == Fresh
}

func TestFreshHitAndNewerProbePurges(t *testing.T) {
	c := New[string, int](100)
	c.Put("a", 1, 10, 1)
	if v, ok := get(c, "a", 1); !ok || v != 10 {
		t.Fatalf("fresh entry: got (%d, %v), want (10, true)", v, ok)
	}
	// A probe at a newer version (an Insert happened) must miss AND purge:
	// version 1 can never be probed as current again.
	if _, ok := get(c, "a", 2); ok {
		t.Fatal("older entry served to a newer probe")
	}
	if c.Len() != 0 || c.used != 0 {
		t.Fatalf("older entry still resident: len %d, used %d", c.Len(), c.used)
	}
	// Even a later probe at the old version can't resurrect it.
	if _, ok := get(c, "a", 1); ok {
		t.Fatal("purged entry reappeared")
	}
}

// TestOlderProbeKeepsNewerEntry is the lookup/revalidation race: a request
// reads version 1, a revalidation then stores version 2, and the slow probe
// at 1 arrives afterwards. It must miss without evicting the fresher entry.
func TestOlderProbeKeepsNewerEntry(t *testing.T) {
	for _, maxStale := range []time.Duration{0, time.Minute} {
		c := New[string, int](100)
		c.Put("a", 2, 20, 1)
		if _, state := c.Get("a", 1, maxStale); state != Miss {
			t.Fatalf("maxStale %v: older probe got state %d, want Miss", maxStale, state)
		}
		if v, ok := get(c, "a", 2); !ok || v != 20 {
			t.Fatalf("maxStale %v: newer entry lost to an older probe (len %d)", maxStale, c.Len())
		}
	}
}

func TestNewerPutReplacesOlderLoses(t *testing.T) {
	c := New[string, int](100)
	c.Put("a", 1, 10, 3)
	if ev := c.Put("a", 2, 20, 5); ev != 0 {
		t.Fatalf("replacing put evicted %d, want 0 (the replaced entry is not counted)", ev)
	}
	if c.Len() != 1 || c.used != 5 {
		t.Fatalf("after replace: len %d, used %d, want 1, 5", c.Len(), c.used)
	}
	// A racing store of an older version must lose, not clobber.
	c.Put("a", 1, 11, 3)
	if v, ok := get(c, "a", 2); !ok || v != 20 {
		t.Fatal("older racing store clobbered the newer entry")
	}
	// A racing store of the same version is dropped, not double-counted.
	c.Put("a", 2, 21, 5)
	if v, _ := get(c, "a", 2); v != 20 || c.used != 5 || c.Len() != 1 {
		t.Fatalf("same-version store changed the cache: value %d, used %d, len %d", v, c.used, c.Len())
	}
}

func TestCostBudgetEviction(t *testing.T) {
	// A budget of 25 holds two entries of cost 10; the oldest goes first.
	c := New[string, int](25)
	evicted := int64(0)
	for i := 0; i < 10; i++ {
		evicted += c.Put(fmt.Sprintf("k%02d", i), 0, i, 10)
	}
	if c.used > c.budget {
		t.Fatalf("used %d exceeds budget %d", c.used, c.budget)
	}
	if c.Len() != 2 || evicted != 8 {
		t.Fatalf("len %d, evicted %d, want 2, 8", c.Len(), evicted)
	}
	if _, ok := get(c, "k09", 0); !ok {
		t.Error("most recent entry evicted")
	}
	if _, ok := get(c, "k00", 0); ok {
		t.Error("least recent entry survived a full budget sweep")
	}
}

func TestLRUOrder(t *testing.T) {
	c := New[string, int](30)
	c.Put("a", 0, 1, 10)
	c.Put("b", 0, 2, 10)
	c.Put("c", 0, 3, 10)
	get(c, "a", 0) // refresh a: b is now least recent
	// One eviction is needed; the victim must be b, not the refreshed a.
	if ev := c.Put("d", 0, 4, 10); ev != 1 {
		t.Fatalf("evicted %d, want 1", ev)
	}
	if _, ok := get(c, "b", 0); ok {
		t.Error("LRU victim b survived")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := get(c, k, 0); !ok {
			t.Errorf("entry %s evicted though one eviction sufficed", k)
		}
	}
}

// TestCountBudget runs the cache the way the 404 cache does: every cost 1,
// so the budget is an entry count.
func TestCountBudget(t *testing.T) {
	c := New[string, struct{}](2)
	c.Put("a", 1, struct{}{}, 1)
	c.Put("b", 1, struct{}{}, 1)
	get2 := func(k string, v int64) bool { _, s := c.Get(k, v, 0); return s == Fresh }
	if !get2("a", 1) || !get2("b", 1) {
		t.Fatal("fresh entries missing")
	}
	c.Put("a", 2, struct{}{}, 1)
	get2("a", 2) // refresh a: b is least recent
	if ev := c.Put("c", 2, struct{}{}, 1); ev != 1 {
		t.Errorf("evictions = %d, want 1", ev)
	}
	if c.Len() != 2 || !get2("a", 2) || !get2("c", 2) || get2("b", 1) {
		t.Errorf("after eviction: len %d, want a and c kept, b evicted", c.Len())
	}
}

func TestOversizedEntryKeptAlone(t *testing.T) {
	c := New[string, int](10)
	c.Put("small", 0, 1, 5)
	if ev := c.Put("huge", 0, 2, 100); ev != 1 {
		t.Fatalf("evicted %d, want 1 (everything else)", ev)
	}
	if v, ok := get(c, "huge", 0); !ok || v != 2 || c.Len() != 1 {
		t.Fatalf("oversized entry not kept alone: len %d", c.Len())
	}
}

func TestNilCacheIsInert(t *testing.T) {
	var c *Cache[string, int]
	c.Drop("x")
	if _, state := c.Get("x", 0, time.Minute); state != Miss || c.Put("x", 0, 1, 1) != 0 || c.Len() != 0 {
		t.Fatal("nil cache not inert")
	}
}

func TestDrop(t *testing.T) {
	c := New[string, int](100)
	c.Put("a", 1, 10, 4)
	c.Put("b", 1, 20, 4)
	c.Drop("a")
	c.Drop("missing")
	if _, ok := get(c, "a", 1); ok || c.Len() != 1 || c.used != 4 {
		t.Fatalf("after Drop: len %d, used %d, want 1, 4", c.Len(), c.used)
	}
	// A dropped key takes any version again, older ones included.
	c.Put("a", 0, 30, 4)
	if v, ok := get(c, "a", 0); !ok || v != 30 {
		t.Fatal("store after Drop was refused")
	}
}

// TestStaleWindow pins the window's bounds: it is timed from the first
// stale observation, an entry exactly maxStale old still serves, and one
// nanosecond later it is purged.
func TestStaleWindow(t *testing.T) {
	c := New[string, int](100)
	t0 := time.Unix(1000, 0)
	now := t0
	c.SetClock(func() time.Time { return now })
	c.Put("a", 1, 10, 1)

	now = t0.Add(time.Hour) // time before the first stale probe does not count
	if v, state := c.Get("a", 2, time.Minute); state != Stale || v != 10 {
		t.Fatalf("first stale probe: (%d, %d), want (10, Stale)", v, state)
	}
	now = now.Add(time.Minute)
	if _, state := c.Get("a", 3, time.Minute); state != Stale {
		t.Fatalf("probe at exactly maxStale: state %d, want Stale", state)
	}
	now = now.Add(time.Nanosecond)
	if _, state := c.Get("a", 3, time.Minute); state != Miss || c.Len() != 0 {
		t.Fatalf("probe past maxStale: state %d, len %d, want Miss, 0", state, c.Len())
	}

	// A newer store ends the stale window: the replacement starts fresh.
	c.Put("b", 1, 1, 1)
	c.Get("b", 2, time.Minute)
	c.Put("b", 2, 2, 1)
	now = now.Add(time.Hour)
	if v, state := c.Get("b", 3, time.Minute); state != Stale || v != 2 {
		t.Fatalf("replacement inherited the old stale window: (%d, %d)", v, state)
	}
}

// TestConcurrentUse drives one cache from several goroutines, the way
// parallel engine workers and serving flights share it; run under -race.
func TestConcurrentUse(t *testing.T) {
	c := New[int, int](8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key, version := (g+i)%6, int64(i/50)
				switch i % 4 {
				case 0, 1:
					c.Put(key, version, g, int64(1+i%3))
				case 2:
					if v, state := c.Get(key, version, time.Millisecond); state != Miss && (v < 0 || v > 3) {
						t.Errorf("Get returned a value no Put stored: %d", v)
					}
				default:
					c.Drop(key)
				}
			}
		}(g)
	}
	wg.Wait()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.used > c.budget && len(c.m) > 1 {
		t.Fatalf("used %d over budget %d with %d entries", c.used, c.budget, len(c.m))
	}
	var used int64
	n := 0
	for e := c.root.next; e != &c.root; e = e.next {
		used += e.cost
		n++
	}
	if used != c.used || n != len(c.m) {
		t.Fatalf("list holds %d entries costing %d; map holds %d, used %d", n, used, len(c.m), c.used)
	}
}
