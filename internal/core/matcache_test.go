package core

import (
	"context"
	"fmt"
	"testing"

	"distinct/internal/obs"
	"distinct/internal/obs/trace"
	"distinct/internal/reldb"
	"distinct/internal/vcache"
)

// TestMatrixCacheUnit pins the matrix cache's key: a block is found again
// under the same refs and path count, and a different reference list or
// path set never shares its entry. The LRU itself is tested in vcache.
func TestMatrixCacheUnit(t *testing.T) {
	refsA := []reldb.TupleID{1, 2, 3}
	refsB := []reldb.TupleID{1, 2, 4}
	pmA := NewPathMatrices(2, 3)

	c := vcache.New[string, *PathMatrices](DefaultMatrixCacheBytes)
	c.Put(matKey(refsA, 2), 0, pmA, matBytes(pmA))
	if got, state := c.Get(matKey(refsA, 2), 0, 0); state != vcache.Fresh || got != pmA {
		t.Fatal("cache missed the block it just stored")
	}
	for _, probe := range []struct {
		name     string
		refs     []reldb.TupleID
		numPaths int
	}{
		{"different refs", refsB, 2},
		{"different path count", refsA, 3},
		{"prefix of the refs", refsA[:2], 2},
	} {
		if _, state := c.Get(matKey(probe.refs, probe.numPaths), 0, 0); state != vcache.Miss {
			t.Errorf("%s hit the wrong entry", probe.name)
		}
	}
}

// TestEngineMatrixReuse: with reuse enabled, the second PathSimilaritiesCtx of
// the same block returns the identical matrices, the hit/miss counters move
// accordingly, and the path_sims stage span of the reused pass carries
// reused=true (one span, not a duplicate heavyweight one). An insert into
// the engine's database invalidates the entry.
func TestEngineMatrixReuse(t *testing.T) {
	w := testWorld(t)
	reg := obs.NewRegistry()
	tr := trace.New(trace.Options{})
	e, err := NewEngineCtx(context.Background(), w.DB, func() Config {
		c := engineConfig(w, false)
		c.Obs = reg
		c.Trace = tr
		return c
	}())
	if err != nil {
		t.Fatal(err)
	}
	e.EnableMatrixReuse(0)
	refs := e.RefsForName("Wei Wang")[:10]

	pm1 := mustPathSimilarities(t, e, refs)
	if got := e.MatrixCacheLen(); got != 1 {
		t.Fatalf("MatrixCacheLen after first compute = %d, want 1", got)
	}
	pm2 := mustPathSimilarities(t, e, refs)
	if pm1 != pm2 {
		t.Fatal("second PathSimilarities recomputed instead of reusing the cached block")
	}
	if hits := reg.Counter("core.matrix_cache_hits").Value(); hits != 1 {
		t.Fatalf("matrix_cache_hits = %d, want 1", hits)
	}
	if misses := reg.Counter("core.matrix_cache_misses").Value(); misses != 1 {
		t.Fatalf("matrix_cache_misses = %d, want 1", misses)
	}

	// The trace shows two path_sims spans: the computing one without the
	// attribute, the reused one with reused=true and zero heavyweight
	// children of its own.
	var spans []*trace.SpanNode
	var walk func(n *trace.SpanNode)
	walk = func(n *trace.SpanNode) {
		if n.Name == "path_sims" {
			spans = append(spans, n)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(tr.Tree())
	if len(spans) != 2 {
		t.Fatalf("trace holds %d path_sims spans, want 2", len(spans))
	}
	if _, ok := spans[0].Attrs["reused"]; ok {
		t.Fatal("first (computing) path_sims span carries reused")
	}
	if got := spans[1].Attrs["reused"]; got != true {
		t.Fatalf("second path_sims span reused = %v, want true", got)
	}
	if len(spans[1].Children) != 0 {
		t.Fatalf("reused path_sims span has %d children, want 0", len(spans[1].Children))
	}

	// Combine of the cached block under current weights must equal the
	// engine's own SimilaritiesCtx (which routes through the cache too).
	resemW, walkW := e.Weights()
	m := Combine(pm2, resemW, walkW)
	want := mustSimilarities(t, e, refs)
	for i := range refs {
		for j := range refs {
			if m.R[i][j] != want.R[i][j] || m.W[i][j] != want.W[i][j] {
				t.Fatalf("Combine(cached)[%d][%d] differs from Similarities", i, j)
			}
		}
	}

	// Mutating the database bumps its version: the old entry can never be
	// served again.
	insertAnyTuple(t, e.db)
	pm3 := mustPathSimilarities(t, e, refs)
	if pm3 == pm1 {
		t.Fatal("PathSimilarities served a stale block after an insert")
	}
	if misses := reg.Counter("core.matrix_cache_misses").Value(); misses != 2 {
		t.Fatalf("matrix_cache_misses after insert = %d, want 2", misses)
	}
}

// insertAnyTuple inserts one fresh tuple into the first relation of the
// (expanded) database, just to bump its mutation version.
func insertAnyTuple(t *testing.T, db *reldb.Database) {
	t.Helper()
	for _, rs := range db.Schema.Relations() {
		vals := make([]reldb.Value, len(rs.Attrs))
		for i := range vals {
			vals[i] = fmt.Sprintf("version-bump-%d", i)
		}
		if _, err := db.Insert(rs.Name, vals...); err == nil {
			return
		}
	}
	t.Fatal("could not insert a version-bumping tuple into any relation")
}
