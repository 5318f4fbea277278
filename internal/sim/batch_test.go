package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"distinct/internal/prop"
	"distinct/internal/reldb"
)

// refSet is a reference set in both forms: maps[j][p] and nbs[j][p] are
// reference j's neighborhood along path p.
type refSet struct {
	maps [][]prop.Neighborhood
	nbs  [][]prop.SparseNeighborhood
}

// add appends a reference with the given per-path neighborhoods.
func (rs *refSet) add(paths ...prop.Neighborhood) {
	row := make([]prop.SparseNeighborhood, len(paths))
	for p, m := range paths {
		row[p] = m.Sparse()
	}
	rs.maps = append(rs.maps, paths)
	rs.nbs = append(rs.nbs, row)
}

// dup appends a second reference sharing reference j's neighborhoods, as
// a reference listed twice does.
func (rs *refSet) dup(j int) {
	rs.maps = append(rs.maps, rs.maps[j])
	rs.nbs = append(rs.nbs, rs.nbs[j])
}

// setFixture builds a reference set over three paths spanning the regimes
// the pair kernel dispatches between: dense overlap (merge), references
// far larger than others (gallop), disjoint key ranges, subsets, empty
// neighborhoods, and a reference listed twice. The third path is empty
// for everyone.
func setFixture(rng *rand.Rand) *refSet {
	rs := &refSet{}
	anchor := randNB(rng, 1+rng.Intn(40), 0, 200)
	sub := make(prop.Neighborhood)
	for k := range anchor {
		if len(sub) == 4 {
			break
		}
		sub[k] = prop.FB{Fwd: rng.Float64(), Bwd: rng.Float64()}
	}
	first := []prop.Neighborhood{
		anchor,
		randNB(rng, 1+rng.Intn(40), 0, 200),    // merge regime
		randNB(rng, 400+rng.Intn(200), 0, 900), // ≫ anchor: gallop
		randNB(rng, 1+rng.Intn(3), 0, 200),     // ≪ anchor
		randNB(rng, 1+rng.Intn(20), 500, 100),  // disjoint key range
		nil,                                    // empty
		sub,                                    // subset of the anchor
	}
	for _, m := range first {
		rs.add(m, randNB(rng, rng.Intn(6), 0, 30), nil)
	}
	rs.dup(0)
	rs.dup(2)
	return rs
}

// checkAgainstPairKernel builds the postings of rs (over the paths keep
// accepts) and checks every row of every path against PairKernel, bit for
// bit, including the zero pairs Row does not list.
func checkAgainstPairKernel(t *testing.T, s *BatchScratch, rs *refSet, keep func(int) bool) {
	t.Helper()
	ps := s.Postings(rs.nbs, keep)
	n := len(rs.nbs)
	if ps.n != n {
		t.Fatalf("postings index %d references, want %d", ps.n, n)
	}
	ws := &BatchScratch{}
	listed := make([]bool, n)
	for slot, p := range ps.Paths() {
		if keep != nil && !keep(p) {
			t.Fatalf("path %d indexed but not kept", p)
		}
		for i := 0; i < n; i++ {
			touched, out := ws.Row(ps, slot, i)
			for j := range listed {
				listed[j] = false
			}
			for _, j := range touched {
				if int(j) <= i || listed[j] {
					t.Fatalf("row %d path %d: partner %d listed out of range or twice", i, p, j)
				}
				listed[j] = true
			}
			for j := i + 1; j < n; j++ {
				var got Trip
				if listed[j] {
					got = out[j]
				}
				r, ab, ba := PairKernel(rs.nbs[i][p], rs.nbs[j][p])
				if math.Float64bits(got.Resem) != math.Float64bits(r) ||
					math.Float64bits(got.WalkAB) != math.Float64bits(ab) ||
					math.Float64bits(got.WalkBA) != math.Float64bits(ba) {
					t.Fatalf("pair (%d,%d) path %d: Row = %+v, PairKernel = (%v, %v, %v)",
						i, j, p, got, r, ab, ba)
				}
			}
		}
	}
	for k, v := range s.pos {
		if v != -1 {
			t.Fatalf("scatter entry %d = %d after Postings, want -1", k, v)
		}
	}
}

// TestBatchedKernelMatchesPairKernel is the posting kernel's property
// test: on random reference sets covering the merge and gallop regimes,
// empty neighborhoods and duplicate references, every row must be
// bit-identical to the pair-at-a-time reference — which is what keeps the
// golden outputs stable. A reused scratch must give the same answers, and
// a path filter must index exactly the kept paths.
func TestBatchedKernelMatchesPairKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := NewBatchScratch(0) // deliberately undersized: Postings must grow it
	for trial := 0; trial < 100; trial++ {
		rs := setFixture(rng)
		checkAgainstPairKernel(t, s, rs, nil)
		checkAgainstPairKernel(t, s, rs, func(p int) bool { return p != 1 })
	}
}

// TestBatchedKernelMatchesMapKernels holds the posting kernel to the same
// 1e-12 contract against the legacy map-based reference implementations
// that the merge-scan kernels carry.
func TestBatchedKernelMatchesMapKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	s := NewBatchScratch(1024)
	const tol = 1e-12
	for trial := 0; trial < 50; trial++ {
		rs := setFixture(rng)
		ps := s.Postings(rs.nbs, nil)
		n := ps.n
		for slot, p := range ps.Paths() {
			for i := 0; i < n; i++ {
				touched, out := s.Row(ps, slot, i)
				got := make(map[int]Trip, len(touched))
				for _, j := range touched {
					got[int(j)] = out[j]
				}
				for j := i + 1; j < n; j++ {
					a, b := rs.maps[i][p], rs.maps[j][p]
					checks := []struct {
						what      string
						got, want float64
					}{
						{"Resem", got[j].Resem, MapResemblance(a, b)},
						{"WalkAB", got[j].WalkAB, MapWalkProb(a, b)},
						{"WalkBA", got[j].WalkBA, MapWalkProb(b, a)},
					}
					for _, c := range checks {
						if math.Abs(c.got-c.want) > tol {
							t.Fatalf("trial %d pair (%d,%d) path %d: %s = %v, map kernel %v",
								trial, i, j, p, c.what, c.got, c.want)
						}
					}
				}
			}
		}
	}
}

// FuzzBatchedKernel drives the posting kernel with fuzzer-shaped
// reference sets and cross-checks every pair on every path against
// PairKernel bit for bit. The corpus bytes encode sizes and a seed: an
// anchor, partners alternating between a free size and half the anchor's
// (so sizes more than 8x apart — the gallop regime of the pair kernel —
// meet in one set), empty neighborhoods at size zero, and duplicate
// references.
func FuzzBatchedKernel(f *testing.F) {
	f.Add(uint16(8), uint16(8), uint16(3), int64(1))
	f.Add(uint16(2), uint16(300), uint16(2), int64(2)) // partner ≫ anchor
	f.Add(uint16(300), uint16(2), uint16(4), int64(3)) // partner ≪ anchor
	f.Add(uint16(0), uint16(5), uint16(1), int64(4))   // empty anchor
	f.Add(uint16(40), uint16(0), uint16(9), int64(5))  // empty partners, duplicates
	f.Fuzz(func(t *testing.T, aSize, bSize, nRefs uint16, seed int64) {
		const maxSize, maxRefs = 600, 12
		as, bs, nr := int(aSize)%maxSize, int(bSize)%maxSize, 1+int(nRefs)%maxRefs
		rng := rand.New(rand.NewSource(seed))
		rs := &refSet{}
		rs.add(randNB(rng, as, 0, 2*maxSize), randNB(rng, as/8, 0, 128))
		for len(rs.nbs) <= nr {
			if rng.Intn(4) == 0 {
				rs.dup(rng.Intn(len(rs.nbs)))
				continue
			}
			size := bs
			if len(rs.nbs)%2 == 0 {
				size = as/2 + 1
			}
			rs.add(randNB(rng, size, rng.Intn(maxSize), 2*maxSize), randNB(rng, rng.Intn(8), 0, 128))
		}
		checkAgainstPairKernel(t, NewBatchScratch(0), rs, nil)
	})
}

// TestBatchedKernelAllocs pins the posting kernel's warm-path allocation
// count at zero, in the style of TestCompiledAllocsCeiling: once a scratch
// has indexed a set and filled its rows, indexing it again and filling
// every row must not allocate.
func TestBatchedKernelAllocs(t *testing.T) {
	rs := setFixture(rand.New(rand.NewSource(17)))
	s := NewBatchScratch(2048) // covers every key the fixture can produce
	ws := &BatchScratch{}
	run := func() {
		ps := s.Postings(rs.nbs, nil)
		for slot := range ps.Paths() {
			for i := 0; i < ps.n; i++ {
				ws.Row(ps, slot, i)
			}
		}
	}
	run()
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("warm Postings + Row allocates %.1f times per run, want 0", allocs)
	}
}

// TestBatchScratchGrow pins the growth path: an undersized scratch must
// expand its scatter to cover the largest key it meets and keep the
// all--1 invariant in the grown region.
func TestBatchScratchGrow(t *testing.T) {
	s := NewBatchScratch(4)
	a := prop.Neighborhood{
		reldb.TupleID(1000): {Fwd: 0.5, Bwd: 0.5},
		reldb.TupleID(2):    {Fwd: 0.5, Bwd: 0.5},
	}
	b := prop.Neighborhood{
		reldb.TupleID(1000): {Fwd: 0.25, Bwd: 1},
		reldb.TupleID(3000): {Fwd: 0.75, Bwd: 1},
	}
	rs := &refSet{}
	rs.add(a)
	rs.add(b)
	checkAgainstPairKernel(t, s, rs, nil)
	if len(s.pos) < 3001 {
		t.Fatalf("scratch did not grow: len(pos) = %d, want >= 3001", len(s.pos))
	}
}

// TestComponents checks blocking from the postings against a direct
// pairwise definition: two references are in one component exactly when
// a chain of tuple-sharing pairs on the indexed paths joins them.
// Components come ordered by smallest member, members ascending.
func TestComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	s := &BatchScratch{}
	for trial := 0; trial < 50; trial++ {
		rs := &refSet{}
		n := 1 + rng.Intn(30)
		for j := 0; j < n; j++ {
			rs.add(randNB(rng, rng.Intn(3), 0, 60), randNB(rng, rng.Intn(2), 0, 200))
		}
		if n > 2 {
			rs.dup(rng.Intn(n))
		}
		keep := func(p int) bool { return p == 0 || trial%2 == 0 }
		got := s.Components(s.Postings(rs.nbs, keep))

		// Reference: flood fill over the pairwise "shares a tuple" graph.
		n = len(rs.nbs)
		comp := make([]int, n)
		for i := range comp {
			comp[i] = -1
		}
		var want [][]int
		for i := 0; i < n; i++ {
			if comp[i] >= 0 {
				continue
			}
			c := len(want)
			comp[i] = c
			members, stack := []int{}, []int{i}
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				members = append(members, x)
				for y := 0; y < n; y++ {
					if comp[y] >= 0 {
						continue
					}
					for p := range rs.nbs[x] {
						if !keep(p) {
							continue
						}
						if sharesKey(rs.nbs[x][p], rs.nbs[y][p]) {
							comp[y] = c
							stack = append(stack, y)
							break
						}
					}
				}
			}
			sort.Ints(members)
			want = append(want, members)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d components, want %d", trial, len(got), len(want))
		}
		for c := range want {
			if len(got[c]) != len(want[c]) {
				t.Fatalf("trial %d component %d: %v, want %v", trial, c, got[c], want[c])
			}
			for k := range want[c] {
				if got[c][k] != want[c][k] {
					t.Fatalf("trial %d component %d: %v, want %v", trial, c, got[c], want[c])
				}
			}
		}
	}
}

// sharesKey reports whether two sorted neighborhoods have a key in common.
func sharesKey(a, b prop.SparseNeighborhood) bool {
	for _, k := range a.Keys {
		if _, ok := b.Lookup(k); ok {
			return true
		}
	}
	return false
}

// TestNeighborhoodsAllMatchesNeighborhoods checks the bulk gather returns
// the same (shared) cached slices as the per-reference path, for both warm
// and cold caches, and that the output buffer is reused when offered.
func TestNeighborhoodsAllMatchesNeighborhoods(t *testing.T) {
	ext, refs := extractorFixture(t)
	// Cold: every ref misses and falls back to the per-reference path.
	cold := ext.NeighborhoodsAll(refs, nil)
	for i, r := range refs {
		want := ext.Neighborhoods(r)
		for p := range want {
			if cold[i][p].Len() != want[p].Len() || cold[i][p].SumFwd != want[p].SumFwd {
				t.Fatalf("cold NeighborhoodsAll[%d][%d] differs from Neighborhoods", i, p)
			}
		}
	}
	// Warm: one lock round-trip, same backing slices.
	buf := make([][]prop.SparseNeighborhood, 0, len(refs))
	warm := ext.NeighborhoodsAll(refs, buf)
	for i, r := range refs {
		want := ext.Neighborhoods(r)
		if len(warm[i]) != len(want) {
			t.Fatalf("warm NeighborhoodsAll[%d] has %d paths, want %d", i, len(warm[i]), len(want))
		}
		for p := range want {
			if len(warm[i][p].Keys) > 0 && &warm[i][p].Keys[0] != &want[p].Keys[0] {
				t.Fatalf("warm NeighborhoodsAll[%d][%d] does not share the cached slice", i, p)
			}
		}
	}
}
