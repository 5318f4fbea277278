package core

import (
	"encoding/binary"

	"distinct/internal/reldb"
	"distinct/internal/vcache"
)

// Matrix reuse across sweeps: the min-sim grid, SetMinSim re-evaluations,
// and the Figure-4 / expansion ablation variants all re-cluster the same
// reference blocks under different weights or thresholds. The per-path
// matrices (PathMatrices) depend only on (reference list, database
// contents, path set) — never on weights or min-sim — so they can be
// computed once and re-combined cheaply (Combine is O(paths·n²) adds;
// the matrices cost propagation plus the all-pairs kernel).
//
// The cache is a byte-bounded vcache.Cache keyed by matKey and tagged with
// db.Version(), the database's mutation counter, and is probed with no
// stale window: an Insert invalidates every prior entry, which the next
// probe of its block purges.
//
// Reuse is opt-in (Engine.EnableMatrixReuse): the one-shot batch path
// computes each block's matrices exactly once already, and caching there
// would only add memory pressure and bookkeeping to the hottest path.

// DefaultMatrixCacheBytes is the byte budget EnableMatrixReuse(0) installs.
// A block of n references over p paths costs 16·p·n² bytes plus row
// headers; 64 MiB holds e.g. ~40 blocks of 100 refs × 20 paths.
const DefaultMatrixCacheBytes = 64 << 20

// matKey encodes (numPaths, refs) as the block's cache key: four bytes per
// value, so distinct blocks or path sets never share a key.
func matKey(refs []reldb.TupleID, numPaths int) string {
	b := make([]byte, 0, 4*(len(refs)+1))
	b = binary.LittleEndian.AppendUint32(b, uint32(numPaths))
	for _, r := range refs {
		b = binary.LittleEndian.AppendUint32(b, uint32(r))
	}
	return string(b)
}

// matBytes is a block's cost against the byte budget: the flat backing
// dominates; row headers are 24 bytes each.
func matBytes(pm *PathMatrices) int64 {
	return int64(16*len(pm.RFlat) + 48*len(pm.R)*pm.NumRefs())
}

// EnableMatrixReuse turns on the per-block PathMatrices cache (maxBytes 0
// means DefaultMatrixCacheBytes). With the cache on, PathSimilaritiesCtx
// and SimilaritiesCtx reuse matrices computed for the same (refs, database
// version) — across min-sim grid points, SetMinSim re-evaluations, and
// weight ablations — and their path_sims stage span carries reused=true on
// a hit. Enable before sharing the engine between goroutines; the cache
// itself is concurrency-safe.
func (e *Engine) EnableMatrixReuse(maxBytes int64) {
	if maxBytes <= 0 {
		maxBytes = DefaultMatrixCacheBytes
	}
	e.matCache = vcache.New[string, *PathMatrices](maxBytes)
}

// MatrixCacheLen reports how many blocks the matrix cache currently holds
// (0 when reuse is disabled).
func (e *Engine) MatrixCacheLen() int { return e.matCache.Len() }
