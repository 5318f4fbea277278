package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"testing"

	"distinct/internal/core"
)

func TestNegativeCacheServes404sCheaply(t *testing.T) {
	b := newStubBackend("Wei Wang")
	s := newTestServer(t, b, nil)

	for i := 0; i < 3; i++ {
		w, _ := doJSON(t, s.Handler(), "GET", "/v1/name/Nobody", "")
		if w.Code != http.StatusNotFound {
			t.Fatalf("lookup %d status %d", i, w.Code)
		}
	}
	// First 404 misses and seeds the cache; the next two hit it.
	if got := s.reg.Counter("serve.negcache_misses").Value(); got != 1 {
		t.Errorf("negcache_misses = %d", got)
	}
	if got := s.reg.Counter("serve.negcache_hits").Value(); got != 2 {
		t.Errorf("negcache_hits = %d", got)
	}

	// A version bump (ingest) invalidates: the name may exist now.
	b.refs["Nobody"] = 2
	b.version.Add(1)
	w, _ := doJSON(t, s.Handler(), "GET", "/v1/name/Nobody", "")
	if w.Code != http.StatusOK {
		t.Fatalf("post-ingest lookup status %d", w.Code)
	}
	if got := s.reg.Counter("serve.negcache_hits").Value(); got != 2 {
		t.Errorf("stale negative entry served after version bump: hits = %d", got)
	}
}

// TestNegCacheDisabled: absent entries live in the result cache, so a
// negative CacheBytes turns off 404 caching with it — every repeat 404
// walks the backend's name index again.
func TestNegCacheDisabled(t *testing.T) {
	s := newTestServer(t, newStubBackend("Wei Wang"), func(o *Options) {
		o.CacheBytes = -1
	})
	if s.cache != nil {
		t.Fatal("result cache built despite CacheBytes=-1")
	}
	doJSON(t, s.Handler(), "GET", "/v1/name/Nobody", "")
	doJSON(t, s.Handler(), "GET", "/v1/name/Nobody", "")
	if got := s.reg.Counter("serve.negcache_hits").Value(); got != 0 {
		t.Errorf("disabled cache recorded %d negcache hits", got)
	}
	if got := s.reg.Counter("serve.negcache_misses").Value(); got != 2 {
		t.Errorf("negcache_misses = %d, want 2", got)
	}
}

// TestNegCacheEviction: absent entries share the result cache's byte
// budget. They evict each other and results alike, results evict them, and
// every eviction counts in serve.cache_evictions.
func TestNegCacheEviction(t *testing.T) {
	ghost := func(i int) string { return fmt.Sprintf("ghost-%d", i) }
	b := newStubBackend("Wei Wang")
	s := newTestServer(t, b, func(o *Options) {
		o.CacheBytes = 2 * resultBytes(ghost(0), nil) // room for two absent entries
	})
	get := func(name string, want int) {
		t.Helper()
		if w, _ := doJSON(t, s.Handler(), "GET", "/v1/name/"+url.PathEscape(name), ""); w.Code != want {
			t.Fatalf("%s: status %d, want %d", name, w.Code, want)
		}
	}
	evictions := func() int64 { return s.reg.Counter("serve.cache_evictions").Value() }

	for i := 0; i < 4; i++ {
		get(ghost(i), http.StatusNotFound)
	}
	if got := evictions(); got != 2 {
		t.Errorf("cache_evictions after four absent entries = %d, want 2", got)
	}
	if s.cache.Len() != 2 {
		t.Errorf("cache len = %d, want 2", s.cache.Len())
	}
	get(ghost(3), http.StatusNotFound) // still cached
	if got := s.reg.Counter("serve.negcache_hits").Value(); got != 1 {
		t.Errorf("negcache_hits = %d, want 1", got)
	}

	// A result outweighs the whole budget: it is kept alone and pushes out
	// both absent entries.
	get("Wei Wang", http.StatusOK)
	if got := evictions(); got != 4 {
		t.Errorf("cache_evictions after a result = %d, want 4", got)
	}
	if s.cache.Len() != 1 {
		t.Errorf("cache len = %d, want 1 (the result alone)", s.cache.Len())
	}
	// The next absent entry evicts the result in turn: the name computes
	// again on its next lookup.
	get(ghost(0), http.StatusNotFound)
	if got := evictions(); got != 5 {
		t.Errorf("cache_evictions after an absent entry = %d, want 5", got)
	}
	get("Wei Wang", http.StatusOK)
	if got := b.calls.Load(); got != 2 {
		t.Errorf("backend calls = %d, want 2 (the evicted result recomputed)", got)
	}
}

func TestBatchDedupesDuplicateNames(t *testing.T) {
	b := newStubBackend("Wei Wang", "Bin Yu")
	s := newTestServer(t, b, nil)
	body := `{"names":["Wei Wang","Bin Yu","Wei Wang","Wei Wang"]}`
	w, resp := doJSON(t, s.Handler(), "POST", "/v1/batch", body)
	if w.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", w.Code, w.Body.String())
	}
	results := resp["results"].([]any)
	if len(results) != 4 {
		t.Fatalf("results = %d, want 4 (one per occurrence)", len(results))
	}
	// Two distinct names -> two backend calls, two duplicates folded.
	if got := b.calls.Load(); got != 2 {
		t.Errorf("backend calls = %d, want 2", got)
	}
	if got := s.reg.Counter("serve.batch_dedup").Value(); got != 2 {
		t.Errorf("batch_dedup = %d, want 2", got)
	}
	// Every occurrence of a duplicated name reports the same result.
	for i, want := range []string{"Wei Wang", "Bin Yu", "Wei Wang", "Wei Wang"} {
		item := results[i].(map[string]any)
		if item["name"] != want {
			t.Errorf("results[%d].name = %v, want %s", i, item["name"], want)
		}
	}
	first := mustJSON(t, results[0])
	for _, i := range []int{2, 3} {
		if got := mustJSON(t, results[i]); got != first {
			t.Errorf("occurrence %d diverges from first:\n%s\nvs\n%s", i, got, first)
		}
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestBatchFanoutOrdering runs a batch wide enough to exercise the worker
// pool (Concurrency 4 from newTestServer leaves fan-out > 1) and checks the
// response order still matches the request order.
func TestBatchFanoutOrdering(t *testing.T) {
	names := []string{"n0", "n1", "n2", "n3", "n4", "n5", "n6", "n7"}
	b := newStubBackend(names...)
	b.onCompute = func(ctx context.Context, name string) ([][]string, *core.Incident, error) {
		return [][]string{{name + "-key"}}, nil, nil
	}
	s := newTestServer(t, b, func(o *Options) { o.BatchFanout = 4 })
	if s.batchFanout < 2 {
		t.Skipf("fan-out clamped to %d on this machine", s.batchFanout)
	}
	body := `{"names":["` + strings.Join(names, `","`) + `"]}`
	w, resp := doJSON(t, s.Handler(), "POST", "/v1/batch", body)
	if w.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", w.Code, w.Body.String())
	}
	results := resp["results"].([]any)
	if len(results) != len(names) {
		t.Fatalf("results = %d", len(results))
	}
	for i, name := range names {
		item := results[i].(map[string]any)
		if item["name"] != name {
			t.Fatalf("results[%d].name = %v, want %s (ordering lost)", i, item["name"], name)
		}
		groups := item["groups"].([]any)
		keys := groups[0].([]any)
		if keys[0] != name+"-key" {
			t.Errorf("results[%d] carries %v, want %s-key (result misrouted)", i, keys[0], name)
		}
	}
	if got := b.calls.Load(); got != int64(len(names)) {
		t.Errorf("backend calls = %d", got)
	}
}
