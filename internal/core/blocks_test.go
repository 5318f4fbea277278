package core

import (
	"context"
	"reflect"
	"testing"

	"distinct/internal/reldb"
)

// blocksOf runs the blocks stage under a background context with a pooled
// scratch, failing the test on error.
func blocksOf(t testing.TB, e *Engine, refs []reldb.TupleID) [][]int {
	t.Helper()
	s := e.ext.BatchScratch()
	defer e.ext.PutBatchScratch(s)
	out, _, err := e.blocksCtxAt(context.Background(), nil, refs, s)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestBlocksPartition(t *testing.T) {
	w := testWorld(t)
	e := newTestEngine(t, w, false)
	refs := e.RefsForName("Wei Wang")
	blocks := blocksOf(t, e, refs)
	seen := make(map[int]bool)
	for _, b := range blocks {
		if len(b) == 0 {
			t.Fatal("empty block")
		}
		for _, x := range b {
			if x < 0 || x >= len(refs) || seen[x] {
				t.Fatalf("bad partition %v", blocks)
			}
			seen[x] = true
		}
	}
	if len(seen) != len(refs) {
		t.Fatalf("blocks cover %d of %d refs", len(seen), len(refs))
	}
	// Cross-block pairs really have zero similarity under current weights.
	if len(blocks) > 1 {
		m := mustSimilarities(t, e, refs)
		blockOf := make([]int, len(refs))
		for bi, b := range blocks {
			for _, x := range b {
				blockOf[x] = bi
			}
		}
		for i := range refs {
			for j := i + 1; j < len(refs); j++ {
				if blockOf[i] != blockOf[j] {
					if m.R[i][j] != 0 || m.W[i][j] != 0 || m.W[j][i] != 0 {
						t.Fatalf("cross-block pair (%d,%d) has nonzero similarity", i, j)
					}
				}
			}
		}
	}
}

// TestBlockedMatchesUnblocked is the exactness claim: blocking must not
// change the clustering for any positive threshold.
func TestBlockedMatchesUnblocked(t *testing.T) {
	w := testWorld(t)
	e := newTestEngine(t, w, true)
	if _, err := e.TrainCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	rw, ww := e.Weights()
	for _, name := range w.AmbiguousNames() {
		refs := e.RefsForName(name)
		// The per-path matrices re-combined under the engine's weights: the
		// experiments harness clusters exactly this.
		combined := Combine(mustPathSimilarities(t, e, refs), rw, ww)
		for _, minSim := range []float64{0.001, 0.005, 0.05} {
			e.SetMinSim(minSim)
			blocked, err := e.disambiguateBlockedCtxAt(context.Background(), nil, refs)
			if err != nil {
				t.Fatal(err)
			}
			plain := ClusterMatrix(refs, mustSimilarities(t, e, refs), e.cfg.Measure, minSim)
			if !reflect.DeepEqual(blocked, plain) {
				t.Fatalf("%s at min-sim %v: blocked %v != plain %v", name, minSim, blocked, plain)
			}
			recombined := ClusterMatrix(refs, combined, e.cfg.Measure, minSim)
			if !reflect.DeepEqual(blocked, recombined) {
				t.Fatalf("%s at min-sim %v: blocked %v != re-combined %v", name, minSim, blocked, recombined)
			}
		}
	}
}

// Zero-weight paths must not link blocks.
func TestBlocksIgnoreZeroWeightPaths(t *testing.T) {
	w := testWorld(t)
	e := newTestEngine(t, w, false)
	refs := e.RefsForName("Wei Wang")
	before := len(blocksOf(t, e, refs))
	// Zero out every weight except the first path's: components can only
	// grow coarser or stay equal in count.
	n := len(e.Paths())
	wv := make([]float64, n)
	wv[0] = 1
	if err := e.SetWeights(wv, wv); err != nil {
		t.Fatal(err)
	}
	after := len(blocksOf(t, e, refs))
	if after < before {
		t.Errorf("restricting paths reduced block count: %d -> %d", before, after)
	}
}

func TestBlocksSingleRef(t *testing.T) {
	w := testWorld(t)
	e := newTestEngine(t, w, false)
	refs := e.RefsForName("Wei Wang")[:1]
	blocks := blocksOf(t, e, refs)
	if len(blocks) != 1 || len(blocks[0]) != 1 {
		t.Errorf("blocks = %v", blocks)
	}
	groups := mustDisambiguateRefs(t, e, refs)
	if len(groups) != 1 || groups[0][0] != refs[0] {
		t.Errorf("groups = %v", groups)
	}
}
