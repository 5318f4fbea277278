package core

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"testing"

	"distinct/internal/cluster"
	"distinct/internal/reldb"
	"distinct/internal/sim"
)

// The production similarity stages fill whole matrices with the posting
// kernel (sim.BatchScratch.Row) and block names through its postings. The
// oracles below are the per-pair definitions they replace: every pair,
// every path, one sim.PairKernel call, weighted contributions added in
// ascending path order. The posting kernel promises the same floats, so
// the tests compare bits, not tolerances.

// oraclePathSimilarities is PathSimilaritiesCtx computed pair by pair.
func oraclePathSimilarities(e *Engine, refs []reldb.TupleID) *PathMatrices {
	n := len(refs)
	pm := NewPathMatrices(len(e.paths), n)
	for p := range e.paths {
		for i := 0; i < n; i++ {
			a := e.ext.Neighborhoods(refs[i])[p]
			for j := i + 1; j < n; j++ {
				r, ab, ba := sim.PairKernel(a, e.ext.Neighborhoods(refs[j])[p])
				pm.R[p][i][j], pm.R[p][j][i] = r, r
				pm.W[p][i][j], pm.W[p][j][i] = ab, ba
			}
		}
	}
	return pm
}

// oracleSimilarities is SimilaritiesCtx computed pair by pair.
func oracleSimilarities(e *Engine, refs []reldb.TupleID) cluster.Matrix {
	n := len(refs)
	m := cluster.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a, b := e.ext.Neighborhoods(refs[i]), e.ext.Neighborhoods(refs[j])
			for p := range e.paths {
				r, ab, ba := sim.PairKernel(a[p], b[p])
				m.R[i][j] += e.resemW[p] * r
				m.W[i][j] += e.walkW[p] * ab
				m.W[j][i] += e.walkW[p] * ba
			}
			m.R[j][i] = m.R[i][j]
		}
	}
	return m
}

// sameBits reports the first cell where two matrices differ in any bit.
func sameBits(t *testing.T, what string, got, want [][]float64) {
	t.Helper()
	for i := range want {
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("%s[%d][%d] = %v, oracle %v", what, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestPostingKernelMatchesPairOracle checks the production pipeline end to
// end against the per-pair oracle on the core test world: SimilaritiesCtx and
// PathSimilaritiesCtx bit for bit on every ambiguous name, and DisambiguateAllCtx
// group for group on every name with two or more references (the oracle
// clusters each name's whole matrix, unblocked). It runs under learned
// weights — some paths weightless, so blocking and the path filter matter —
// and under uniform ones, at one worker and at GOMAXPROCS.
func TestPostingKernelMatchesPairOracle(t *testing.T) {
	w := testWorld(t)
	for _, supervised := range []bool{true, false} {
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			cfg := engineConfig(w, supervised)
			cfg.Workers = workers
			e, err := NewEngineCtx(context.Background(), w.DB, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.TrainCtx(context.Background()); err != nil {
				t.Fatal(err)
			}
			for _, name := range w.AmbiguousNames() {
				refs := e.RefsForName(name)
				got, want := mustSimilarities(t, e, refs), oracleSimilarities(e, refs)
				sameBits(t, name+" R", got.R, want.R)
				sameBits(t, name+" W", got.W, want.W)
				pm, opm := mustPathSimilarities(t, e, refs), oraclePathSimilarities(e, refs)
				for p := range e.paths {
					sameBits(t, name+" path R", pm.R[p], opm.R[p])
					sameBits(t, name+" path W", pm.W[p], opm.W[p])
				}
			}
			res, err := e.DisambiguateAllCtx(context.Background(), BatchOptions{MinRefs: 2})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Incidents) != 0 {
				t.Fatalf("incidents: %+v", res.Incidents)
			}
			split := make(map[string][][]reldb.TupleID)
			for _, ng := range res.Split {
				split[ng.Name] = ng.Groups
			}
			names := e.NamesWithRefs(2)
			if res.NamesExamined != len(names) {
				t.Fatalf("examined %d names, want %d", res.NamesExamined, len(names))
			}
			for _, name := range names {
				refs := e.RefsForName(name)
				want := ClusterMatrix(refs, oracleSimilarities(e, refs), e.cfg.Measure, e.cfg.MinSim)
				got, ok := split[name]
				if !ok {
					got = [][]reldb.TupleID{refs}
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("supervised=%v workers=%d %s: groups %v, oracle %v",
						supervised, workers, name, got, want)
				}
			}
		}
	}
}

// TestSimilaritiesAllocCeiling pins the warm SimilaritiesCtx stage on the
// largest test name at one worker: with the neighborhood cache and the
// scratch pool warm, a call allocates the result matrix and per-call
// bookkeeping (8 allocations), never postings or accumulators, whose
// sizes grow with the name. The ceiling leaves room for the occasional
// pool refill after a GC.
func TestSimilaritiesAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	w := testWorld(t)
	cfg := engineConfig(w, false)
	cfg.Workers = 1
	e, err := NewEngineCtx(context.Background(), w.DB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	refs := e.RefsForName("Wei Wang")
	mustSimilarities(t, e, refs)
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := e.SimilaritiesCtx(context.Background(), refs); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 10
	if allocs > ceiling {
		t.Fatalf("warm SimilaritiesCtx(%d refs) allocates %.1f times per call, want <= %d",
			len(refs), allocs, ceiling)
	}
}
