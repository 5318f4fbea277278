package sim

import (
	"context"
	"math"
	"testing"

	"distinct/internal/reldb"
)

// mustPrefetch is PrefetchCtx under a background context with no trace
// span, failing the test on error.
func mustPrefetch(t testing.TB, e *Extractor, refs []reldb.TupleID, workers int) {
	t.Helper()
	if err := e.PrefetchCtx(context.Background(), refs, workers, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPrefetchMatchesSequential(t *testing.T) {
	seqExt, refs := extractorFixture(t)
	parExt, _ := extractorFixture(t)

	// Sequential baseline.
	for _, r := range refs {
		seqExt.Neighborhoods(r)
	}
	// Parallel prefetch with duplicates in the input.
	mustPrefetch(t, parExt, append(append([]reldb.TupleID(nil), refs...), refs...), 4)
	if parExt.CacheSize() != len(refs) {
		t.Fatalf("cache size %d, want %d", parExt.CacheSize(), len(refs))
	}
	for _, r := range refs {
		a, b := seqExt.Neighborhoods(r), parExt.Neighborhoods(r)
		if len(a) != len(b) {
			t.Fatalf("ref %d: %d vs %d paths", r, len(a), len(b))
		}
		for p := range a {
			if a[p].Len() != b[p].Len() {
				t.Fatalf("ref %d path %d: neighborhood sizes differ", r, p)
			}
			for i, id := range a[p].Keys {
				fb := a[p].FBs[i]
				if pb, ok := b[p].Lookup(id); !ok ||
					math.Abs(pb.Fwd-fb.Fwd) > 1e-15 || math.Abs(pb.Bwd-fb.Bwd) > 1e-15 {
					t.Fatalf("ref %d path %d tuple %d: %+v vs %+v", r, p, id, fb, pb)
				}
			}
		}
	}
}

func TestPrefetchIdempotentAndEmpty(t *testing.T) {
	ext, refs := extractorFixture(t)
	mustPrefetch(t, ext, refs, 0) // 0 workers = GOMAXPROCS
	size := ext.CacheSize()
	mustPrefetch(t, ext, refs, 2) // everything cached: no-op
	if ext.CacheSize() != size {
		t.Error("second prefetch changed the cache")
	}
	mustPrefetch(t, ext, nil, 3) // empty input: no-op
	if ext.CacheSize() != size {
		t.Error("empty prefetch changed the cache")
	}
}

func TestPrefetchSingleWorker(t *testing.T) {
	ext, refs := extractorFixture(t)
	mustPrefetch(t, ext, refs, 1)
	if ext.CacheSize() != len(refs) {
		t.Fatalf("cache size %d", ext.CacheSize())
	}
}
