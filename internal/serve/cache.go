package serve

// Per-name result cache: a byte-bounded vcache.Cache keyed by name and
// tagged with Database.Version, the serving-layer sibling of core's matrix
// cache (matcache.go). A probe at the current version either hits fresh,
// hits STALE (the previous-version entry, still servable inside the
// stale-while-revalidate window while a background flight recomputes), or
// purges the entry on the way through.
// Only clean results are cached; degraded or incident-bearing responses are
// transient by nature and recomputing them is the point.
//
// Publication race (the window this file used to only document): a result
// is computed under a flight keyed at version V. If the database moves
// again while that flight runs (a second bump during a revalidation — three
// versions in play), the computation may have read mixed contents and is a
// consistent snapshot of NO version. The store gate therefore lives with
// the computation, not the cache: compute re-reads the backend version
// after the engine call and publishes only when it still equals the
// flight's version (see Server.compute). Put's version guard is the
// cache-side half — an entry can only ever be replaced by a strictly newer
// version, so a late store from a superseded flight can never clobber a
// fresher entry.

// DefaultCacheBytes is the result-cache budget Options.CacheBytes = 0
// selects. Rendered groups are small (tens of bytes per reference), so this
// comfortably holds every name of a DBLP-scale corpus.
const DefaultCacheBytes = 16 << 20

// resultBytes estimates a result's resident size: string bytes plus slice
// and header overhead. An estimate is enough — the budget bounds growth,
// it does not account memory to the byte.
func resultBytes(name string, res *NameResult) int64 {
	n := int64(len(name)) + 96 // entry struct, map slot, list links
	for _, g := range res.Groups {
		n += 24 // slice header
		for _, k := range g {
			n += int64(len(k)) + 16
		}
	}
	return n
}
