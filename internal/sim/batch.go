package sim

import (
	"distinct/internal/prop"
	"distinct/internal/reldb"
)

// This file is the all-pairs counterpart of the pair-at-a-time kernel in
// sim.go. Both measures are sums over the neighbor tuples two references
// share along a join path, so the pairs with any work to do are exactly the
// pairs that meet in some (path, tuple) posting list. The kernel indexes a
// reference set once as posting lists and then fills each similarity row
// Gustavson-style, touching only those pairs. PairKernel stays the
// reference implementation: the property tests hold the two bit-identical.
//
// # Layout
//
// For each selected path, every neighbor tuple gets a posting list: the
// references reaching it, in ascending reference order, each with its
// (Fwd, Bwd) masses on the tuple. The lists of one path are laid out
// back to back (CSR), and the paths follow each other in ascending order.
// Distinct tuples are numbered through a dense scatter array indexed by
// tuple ID and sized by the database's tuple space, so building the lists
// needs no map; the scatter is reset by walking the tuples it numbered,
// never the whole array.
//
// Every (path, reference, key) incidence records where its own entry sits
// and which list holds it. A row is then a walk, per key of
// the row's reference, over the entries after its own — exactly the
// references after it that share the key.
//
// # Equivalence with pairAccum
//
// Row i visits its keys in ascending order within a path, so each partner
// j receives its contributions in ascending key order — the order of the
// two-pointer merge and the gallop modes — through the same float
// expressions. Each path is finalised (resem = interMin / denom) before
// the next one starts, so callers add the paths into a row in ascending
// path order as the per-pair loop did. The results are therefore
// bit-identical to PairKernel, not merely within tolerance. Pairs absent
// from every list of a path have all three values zero there, and adding
// a non-negative zero leaves a sum of non-negative terms unchanged, so
// skipping them changes no bit either.

// Trip is the fused per-pair kernel result: the set resemblance and both
// directed walk probabilities, exactly PairKernel's three return values.
type Trip struct {
	Resem  float64
	WalkAB float64 // row reference → partner
	WalkBA float64 // partner → row reference
}

// Postings is the posting-list index of one reference set over a set of
// join paths. It is built by BatchScratch.Postings, lives in that scratch's
// memory, and is read-only afterwards, so any number of row workers may
// share it. References are numbered by their position in the set.
type Postings struct {
	n     int
	paths []int // selected join paths, ascending; a path's slot is its index here

	// incOff[s*(n+1)+j] is where reference j's incidences on slot s start;
	// incidences follow j's keys in ascending order.
	incOff []int32
	inc    []incidence

	lists []int32 // start of every list, all slots in order, then len(entJ)
	entJ  []int32 // per entry: the reference
	entFB []prop.FB

	sum []float64 // SumFwd of reference j on slot s at s*n+j
}

// Paths returns the indexed join paths in ascending order; Row addresses a
// path by its position (slot) in this slice.
func (ps *Postings) Paths() []int { return ps.paths }

// incidence locates one (path, reference, key) triple: own is the index
// of the reference's entry, list the index of its posting list in lists.
type incidence struct{ own, list int32 }

// accum is one partner's running sums within a row and path.
type accum struct {
	interMin, ab, ba float64
	on               bool // partner already listed in touched
}

// BatchScratch is the pooled working memory of the posting kernel: the
// dense tuple scatter and list-building buffers behind one Postings, the
// union-find of Components, and one row worker's accumulators. A scratch
// belongs to one goroutine at a time; reusing it (via
// Extractor.BatchScratch / PutBatchScratch) is what keeps the warm path
// allocation-free. The zero value is usable; buffers grow on demand.
type BatchScratch struct {
	// pos maps a tuple ID to its list slot within the path being built,
	// -1 when absent. Invariant between Postings calls: all -1.
	pos      []int32
	keySpace int // size pos is first grown to (NewBatchScratch's hint)

	post   Postings
	tuples []reldb.TupleID // tuples numbered in pos for the current path
	cursor []int32         // per list: count, then fill cursor

	parent, block []int32 // Components: union-find parents, block numbers

	acc     []accum
	out     []Trip
	touched []int32
}

// NewBatchScratch returns a scratch whose scatter, once Postings first
// needs it, covers tuple IDs [0, keySpace). Postings grows it if it ever
// meets a larger key, so keySpace is a sizing hint (db.NumTuples()), not a
// hard bound. A scratch only ever used for Row never allocates the
// scatter.
func NewBatchScratch(keySpace int) *BatchScratch {
	return &BatchScratch{keySpace: keySpace}
}

// grow extends pos to cover [0, keySpace), filling new entries with -1.
func (s *BatchScratch) grow(keySpace int) {
	if keySpace <= len(s.pos) {
		return
	}
	old := len(s.pos)
	s.pos = append(s.pos, make([]int32, keySpace-old)...)
	for i := old; i < len(s.pos); i++ {
		s.pos[i] = -1
	}
}

// resize returns buf with length n, reallocating only when it is too small.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// Postings builds into the scratch the posting lists of the references
// whose per-path neighborhoods are nbs (nbs[j][p] is reference j along
// path p), over the paths keep accepts (every path when keep is nil). The
// result stays valid until the scratch is built again or returned to its
// pool.
func (s *BatchScratch) Postings(nbs [][]prop.SparseNeighborhood, keep func(p int) bool) *Postings {
	ps := &s.post
	n := len(nbs)
	ps.n = n
	ps.paths = ps.paths[:0]
	if n > 0 {
		ps.paths = resize(ps.paths, len(nbs[0]))[:0]
		for p := range nbs[0] {
			if keep == nil || keep(p) {
				ps.paths = append(ps.paths, p)
			}
		}
	}
	// Size every buffer up front, so a fresh scratch allocates each once.
	// Keys are sorted, so each neighborhood's largest key is its last.
	total, widest, maxKey := 0, 0, -1
	for _, p := range ps.paths {
		onPath := 0
		for _, nb := range nbs {
			if k := nb[p].Keys; len(k) > 0 {
				onPath += len(k)
				maxKey = max(maxKey, int(k[len(k)-1]))
			}
		}
		total += onPath
		widest = max(widest, onPath)
	}
	s.grow(max(maxKey+1, s.keySpace))
	np := len(ps.paths)
	ps.incOff = resize(ps.incOff, np*(n+1))
	ps.inc = resize(ps.inc, total)
	ps.entJ = resize(ps.entJ, total)
	ps.entFB = resize(ps.entFB, total)
	ps.sum = resize(ps.sum, np*n)
	ps.lists = resize(ps.lists, total+1)[:0]
	s.tuples = resize(s.tuples, widest)
	s.cursor = resize(s.cursor, widest)

	pos := s.pos
	base := int32(0) // first incidence (and entry) of the current slot
	for slot, p := range ps.paths {
		// Number the slot's distinct tuples and count each list.
		tuples, cursor := s.tuples[:0], s.cursor[:0]
		off := slot * (n + 1)
		inc := base
		for j, nb := range nbs {
			ps.incOff[off+j] = inc
			ps.sum[slot*n+j] = nb[p].SumFwd
			inc += int32(len(nb[p].Keys))
			for _, t := range nb[p].Keys {
				l := pos[t]
				if l < 0 {
					l = int32(len(tuples))
					pos[t] = l
					tuples = append(tuples, t)
					cursor = append(cursor, 0)
				}
				cursor[l]++
			}
		}
		ps.incOff[off+n] = inc
		// Turn counts into fill cursors at each list's start.
		first, at := int32(len(ps.lists)), base
		for l, c := range cursor {
			ps.lists = append(ps.lists, at)
			cursor[l] = at
			at += c
		}
		// Fill in ascending reference order, so every list ascends.
		inc = base
		for j, nb := range nbs {
			fbs := nb[p].FBs
			for k, t := range nb[p].Keys {
				l := pos[t]
				e := cursor[l]
				cursor[l]++
				ps.entJ[e] = int32(j)
				ps.entFB[e] = fbs[k]
				ps.inc[inc] = incidence{own: e, list: first + l}
				inc++
			}
		}
		for _, t := range tuples {
			pos[t] = -1
		}
		s.tuples, s.cursor = tuples, cursor
		base = inc
	}
	ps.lists = append(ps.lists, base)
	return ps
}

// Row computes PairKernel(i, j) along the path at the given slot of ps for
// every reference j > i that shares a tuple with i there. It returns those
// js, in no particular order, and a dense array holding each one's result
// at index j; every other pair j > i is zero on this path. Both results
// stay valid until the next Row call on the same scratch.
func (s *BatchScratch) Row(ps *Postings, slot, i int) (touched []int32, out []Trip) {
	if len(s.acc) < ps.n {
		s.acc = make([]accum, ps.n)
		s.out = make([]Trip, ps.n)
		s.touched = make([]int32, 0, ps.n)
	}
	acc, out := s.acc, s.out
	touched = s.touched[:0]
	off := slot * (ps.n + 1)
	entJ, entFB := ps.entJ, ps.entFB
	for _, in := range ps.inc[ps.incOff[off+i]:ps.incOff[off+i+1]] {
		fa := entFB[in.own]
		for e, end := in.own+1, ps.lists[in.list+1]; e < end; e++ {
			j := entJ[e]
			fb := entFB[e]
			a := &acc[j]
			if !a.on {
				a.on = true
				touched = append(touched, j)
			}
			if fa.Fwd < fb.Fwd {
				a.interMin += fa.Fwd
			} else {
				a.interMin += fb.Fwd
			}
			a.ab += fa.Fwd * fb.Bwd
			a.ba += fb.Fwd * fa.Bwd
		}
	}
	sums := ps.sum[slot*ps.n : (slot+1)*ps.n]
	si := sums[i]
	for _, j := range touched {
		a := &acc[j]
		var resem float64
		if denom := si + sums[j] - a.interMin; denom > 0 {
			resem = a.interMin / denom
		}
		out[j] = Trip{Resem: resem, WalkAB: a.ab, WalkBA: a.ba}
		*a = accum{}
	}
	s.touched = touched
	return touched, out
}

// Components partitions the references of ps into the connected
// components of the "share a posting list" relation, using the scratch's
// union-find. Each component lists reference indexes ascending; components
// are ordered by smallest member.
func (s *BatchScratch) Components(ps *Postings) [][]int {
	n := ps.n
	s.parent = resize(s.parent, n)
	parent := s.parent
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for l := 0; l+1 < len(ps.lists); l++ {
		lo, hi := ps.lists[l], ps.lists[l+1]
		if hi-lo < 2 {
			continue
		}
		root := find(ps.entJ[lo])
		for e := lo + 1; e < hi; e++ {
			if r := find(ps.entJ[e]); r != root {
				parent[r] = root
			}
		}
	}
	// Number the components by first appearance, then lay their members
	// out in one backing array.
	s.block = resize(s.block, n)
	block := s.block
	for i := range block {
		block[i] = -1
	}
	var sizes []int
	for i := range parent {
		r := find(int32(i))
		if block[r] < 0 {
			block[r] = int32(len(sizes))
			sizes = append(sizes, 0)
		}
		sizes[block[r]]++
	}
	members := make([]int, n)
	out := make([][]int, len(sizes))
	at := 0
	for b, size := range sizes {
		out[b] = members[at : at : at+size]
		at += size
	}
	for i := range parent {
		b := block[find(int32(i))]
		out[b] = append(out[b], i)
	}
	return out
}
