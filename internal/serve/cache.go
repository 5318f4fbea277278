package serve

// Per-name result cache: a byte-bounded vcache.Cache keyed by name and
// tagged with Database.Version. A probe at the current version either hits
// fresh, hits STALE (the previous-version entry, still servable inside the
// stale-while-revalidate window while a background flight recomputes), or
// purges the entry on the way through.
//
// A nil result is the absent entry: "no references at version V". Fleets of
// probing clients (and typo storms) repeat the same unknown names, so
// remembering absence turns those repeats into a map hit instead of a walk
// of the backend's name index. An Insert stales absent entries with the
// rest — a name absent at V may exist at V+1 — and inside the
// stale-while-revalidate window a stale absent entry still answers (a 404
// marked stale) while a background flight re-checks the name; a name that
// just appeared is the one case staleness can hide, which is exactly what
// the window bounds. Absent entries share the result budget, at the
// per-entry overhead of resultBytes.
//
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
// and header overhead (just the entry overhead for an absent entry). An
// estimate is enough — the budget bounds growth, it does not account
// memory to the byte.
func resultBytes(name string, res *NameResult) int64 {
	n := int64(len(name)) + 96 // entry struct, map slot, list links
	if res == nil {
		return n
	}
	for _, g := range res.Groups {
		n += 24 // slice header
		for _, k := range g {
			n += int64(len(k)) + 16
		}
	}
	return n
}
