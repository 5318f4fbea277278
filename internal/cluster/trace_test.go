package cluster

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestTraceRecordsMerges(t *testing.T) {
	m := blobs(4, 2, 0.9, 0.001)
	out, trace := mustAgglomerateTrace(t, 4, m, Options{Measure: Combined, MinSim: 0.05}, true)
	if len(out) != 2 {
		t.Fatalf("clusters %v", out)
	}
	// Two merges happen (0+1 and 2+3, in some order).
	if len(trace) != 2 {
		t.Fatalf("trace has %d merges, want 2", len(trace))
	}
	for _, mg := range trace {
		if len(mg.A) != 1 || len(mg.B) != 1 {
			t.Errorf("unexpected merge %v+%v", mg.A, mg.B)
		}
		if mg.Sim < 0.05 {
			t.Errorf("merge below min-sim recorded: %v", mg.Sim)
		}
	}
}

func TestTraceDescendingSimilarity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := randomMatrix(rng, 12)
	_, trace := mustAgglomerateTrace(t, 12, m, Options{Measure: Combined, MinSim: 0}, true)
	if len(trace) != 11 {
		t.Fatalf("full merge needs 11 steps, got %d", len(trace))
	}
	// Agglomerative merges are not strictly monotone in general (a merged
	// cluster can form a better pair than any pre-merge pair under
	// average-link-style measures), but the first merge must be the global
	// best pair and every merge must carry a valid similarity.
	for i, mg := range trace {
		if mg.Sim < 0 {
			t.Errorf("merge %d has negative sim", i)
		}
		if len(mg.A)+len(mg.B) < 2 {
			t.Errorf("merge %d malformed", i)
		}
	}
	best := 0.0
	for i := 0; i < 12; i++ {
		for j := i + 1; j < 12; j++ {
			st := pairStats{sumResem: m.R[i][j], minResem: m.R[i][j], maxResem: m.R[i][j],
				walkAB: m.W[i][j], walkBA: m.W[j][i]}
			if s := similarity(st, 1, 1, Combined); s > best {
				best = s
			}
		}
	}
	if trace[0].Sim != best {
		t.Errorf("first merge sim %v != global best pair %v", trace[0].Sim, best)
	}
}

func TestTraceOffMatchesOn(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := randomMatrix(rng, 10)
	opts := Options{Measure: Combined, MinSim: 0.1}
	a := mustAgglomerate(t, 10, m, opts)
	b, trace := mustAgglomerateTrace(t, 10, m, opts, true)
	if !reflect.DeepEqual(a, b) {
		t.Error("tracing changed the clustering")
	}
	c, noTrace := mustAgglomerateTrace(t, 10, m, opts, false)
	if noTrace != nil {
		t.Error("trace returned despite withTrace=false")
	}
	if !reflect.DeepEqual(a, c) {
		t.Error("withTrace=false changed the clustering")
	}
	// Merge count consistency: n - #clusters merges happened.
	if len(trace) != 10-len(a) {
		t.Errorf("trace %d merges for %d clusters", len(trace), len(a))
	}
}
