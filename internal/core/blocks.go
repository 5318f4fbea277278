package core

import (
	"context"
	"sort"

	"distinct/internal/obs/trace"
	"distinct/internal/reldb"
	"distinct/internal/sim"
)

// Blocking: two references have nonzero similarity only if they share at
// least one neighbor tuple along some positively weighted join path — both
// measures (set resemblance and random walk) are sums over the shared
// neighborhood. The blocks stage indexes a name's references once as
// posting lists over the weighted paths (sim.Postings: per (path, tuple),
// the references reaching that tuple) and takes the connected components
// of "appear in one posting list" as blocks, with exactly zero similarity
// across blocks; with any positive min-sim, clustering each block
// independently yields the identical result while skipping the quadratic
// pairwise work between blocks. This is the inverted-index blocking of the
// record-linkage literature, made exact here by the structure of the
// measures. The same postings then drive each block's similarity pass:
// every list lies inside one block, so a block reads the name's lists
// through an index remap instead of rebuilding them, and its rows visit
// only the pairs that share a list.

// weighted reports whether path p carries resemblance or walk weight; only
// those paths contribute to the combined similarities.
func (e *Engine) weighted(p int) bool { return e.resemW[p] != 0 || e.walkW[p] != 0 }

// blockSet is one block's view of its name's postings: rows[k] is the
// postings index of the block's k-th reference, and loc maps a postings
// index back to its position within its own block. Nil rows and loc mean
// the postings index exactly the block's refs; the zero blockSet carries
// no postings.
type blockSet struct {
	post *sim.Postings
	rows []int
	loc  []int32
}

// row returns the postings index of the block's i-th reference.
func (b blockSet) row(i int) int {
	if b.rows == nil {
		return i
	}
	return b.rows[i]
}

// local returns the position within its block of postings index g.
func (b blockSet) local(g int32) int {
	if b.loc == nil {
		return int(g)
	}
	return int(b.loc[g])
}

// blocksCtxAt partitions the references into connected components of the
// shared-neighbor relation, considering only join paths with a positive
// resemblance or walk weight. Each block lists indexes into refs, blocks
// ordered by smallest member, members ascending. The stage span is
// parented under parent, and cancellation is observed at the stage
// boundary and during prefetch. The name's postings are built in s and
// returned alongside the blocks, for the per-block similarity passes; they
// live as long as the caller keeps s.
func (e *Engine) blocksCtxAt(ctx context.Context, parent *trace.Span, refs []reldb.TupleID, s *sim.BatchScratch) ([][]int, *sim.Postings, error) {
	st, err := begin(ctx, e.obs, parent, "blocks", trace.Int("refs", int64(len(refs))))
	if err != nil {
		return nil, nil, err
	}
	if err := e.ext.PrefetchCtx(ctx, refs, e.cfg.Workers, st.tsp); err != nil {
		return nil, nil, st.fail(stageErr("prefetch", err))
	}
	post := s.Postings(e.ext.NeighborhoodsAll(refs, nil), e.weighted)
	out := s.Components(post)
	if e.obs != nil {
		// Pairs kept is Σ over blocks of b(b-1)/2; pruned is what the
		// naive quadratic pass would have computed across blocks.
		n := int64(len(refs))
		naive := n * (n - 1) / 2
		var kept int64
		for _, b := range out {
			bn := int64(len(b))
			kept += bn * (bn - 1) / 2
		}
		e.obs.Counter("blocks.found").Add(int64(len(out)))
		e.obs.Counter("blocks.pairs_naive").Add(naive)
		e.obs.Counter("blocks.pairs_kept").Add(kept)
		e.obs.Counter("blocks.pairs_pruned").Add(naive - kept)
	}
	st.end(len(refs), trace.Int("blocks", int64(len(out))))
	return out, post, nil
}

// disambiguateBlockedCtxAt clusters each block independently, with stage
// spans parented under parent and cancellation observed between blocks;
// exact for MinSim > 0 (see the comment above). Output clusters are
// ordered by their smallest reference position, matching the unblocked
// path bit for bit.
func (e *Engine) disambiguateBlockedCtxAt(ctx context.Context, parent *trace.Span, refs []reldb.TupleID) ([][]reldb.TupleID, error) {
	s := e.ext.BatchScratch()
	defer e.ext.PutBatchScratch(s)
	blocks, post, err := e.blocksCtxAt(ctx, parent, refs, s)
	if err != nil {
		return nil, err
	}
	loc := make([]int32, len(refs))
	pos := make(map[reldb.TupleID]int, len(refs))
	for i, r := range refs {
		if _, dup := pos[r]; !dup {
			pos[r] = i
		}
	}
	type ordered struct {
		at      int
		cluster []reldb.TupleID
	}
	var all []ordered
	for _, block := range blocks {
		sub := make([]reldb.TupleID, len(block))
		for i, x := range block {
			sub[i] = refs[x]
		}
		var clusters [][]reldb.TupleID
		if len(sub) == 1 {
			clusters = [][]reldb.TupleID{sub}
		} else {
			for k, x := range block {
				loc[x] = int32(k)
			}
			m, err := e.similaritiesCtxAt(ctx, parent, sub, blockSet{post: post, rows: block, loc: loc})
			if err != nil {
				return nil, err
			}
			if clusters, err = e.clusterRefsCtxAt(ctx, parent, sub, m); err != nil {
				return nil, err
			}
		}
		for _, c := range clusters {
			all = append(all, ordered{at: pos[c[0]], cluster: c})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].at < all[j].at })
	out := make([][]reldb.TupleID, len(all))
	for i, o := range all {
		out[i] = o.cluster
	}
	return out, nil
}
