package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"testing"
	"time"

	"distinct/internal/dblp"
)

// tinyWorld is a world small enough for tests: four communities and three
// of the ten ambiguous names, with their Table 1 reference counts halved.
func tinyWorld() dblp.Config {
	c := dblp.DefaultConfig()
	c.Communities = 4
	c.AuthorsPerCommunity = 30
	c.Ambiguous = append([]dblp.AmbiguousName(nil), c.Ambiguous[:3]...)
	for i, a := range c.Ambiguous {
		refs := make([]int, len(a.RefsPerAuthor))
		for j, r := range a.RefsPerAuthor {
			refs[j] = max(2, r/2)
		}
		c.Ambiguous[i].RefsPerAuthor = refs
	}
	return c
}

func tinyOptions(workload string, trace bool) *options {
	o := defaultOptions()
	o.workload = workload
	o.seed = 7
	o.seconds = 0.3
	o.trace = trace
	o.world = tinyWorld
	o.setups = 1
	o.serveRate = 200
	o.bumpEvery = 100 * time.Millisecond
	o.spanDir = ""
	o.log = io.Discard
	return &o
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func TestEveryMetricEmittedWithItsUnit(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := run(context.Background(), tinyOptions(name, traced))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			got := map[string]string{}
			for m, v := range res.Metrics {
				got[m] = v.Unit
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%v: metrics %v, want %v", name, traced, got, want)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
		}
	}
}

func TestWrongGroupsCountAsFailed(t *testing.T) {
	o := tinyOptions("sweep-warm", false)
	fx, err := setUp(context.Background(), o, nil, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	// The reference is the set-up's output with one reference moved from
	// the first group of a split name into its second group.
	res, err := sweep(context.Background(), nil, 0, fx.eng)
	if err != nil || len(res.Split) == 0 {
		t.Fatalf("sweep: %v, %d names split", err, len(res.Split))
	}
	g := res.Split[0].Groups
	g[1] = append(g[1], g[0][0])
	g[0] = g[0][1:]
	fx.digest = sweepDigest(res)
	st, err := measureSweeps(context.Background(), o, fx)
	if err != nil {
		t.Fatal(err)
	}
	if st.attempted == 0 || st.failed != st.attempted {
		t.Fatalf("attempted %d, failed %d: every pass should fail against a wrong reference", st.attempted, st.failed)
	}
}

func TestWrongResponsesCountAsFailed(t *testing.T) {
	o := tinyOptions("serve-mixed", false)
	sf, err := setUpServe(context.Background(), o, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := startServer(sf, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.stop()
	if err := srv.warm(sf); err != nil {
		t.Fatal(err)
	}
	// Move one reference of every name into a group of its own: each
	// served answer now differs from what the check expects.
	for name, groups := range sf.expected {
		g := groups[0]
		sf.expected[name] = append([][]string{g[:1], g[1:]}, groups[1:]...)
	}
	st, err := measureServe(o, sf, srv)
	if err != nil {
		t.Fatal(err)
	}
	if st.attempted == 0 || st.failed != st.attempted {
		t.Fatalf("attempted %d, failed %d: every response should fail against a wrong answer", st.attempted, st.failed)
	}
}

func TestSameSeedSameDigestsAndCounts(t *testing.T) {
	counts := []string{"reldb.csr_edges", "prop.refs_propagated", "core.pairs", "cluster.merges", "cluster.heap_stale_pops"}
	var digests []string
	var got []map[string]float64
	for i := 0; i < 2; i++ {
		o := tinyOptions("pipeline-cold", true)
		res, err := run(context.Background(), o)
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, res.digest)
		m := map[string]float64{}
		for _, c := range counts {
			m[c] = res.Metrics[c].Value
		}
		got = append(got, m)
	}
	if digests[0] == "" || digests[0] != digests[1] {
		t.Errorf("digests differ: %s vs %s", digests[0], digests[1])
	}
	if !reflect.DeepEqual(got[0], got[1]) {
		t.Errorf("counts differ: %v vs %v", got[0], got[1])
	}
	names := []string{"a", "b", "c", "d"}
	a := schedule(3, names, 100, time.Second)
	if b := schedule(3, names, 100, time.Second); !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave two schedules")
	}
	if c := schedule(4, names, 100, time.Second); reflect.DeepEqual(a, c) {
		t.Error("two seeds gave one schedule")
	}
}
