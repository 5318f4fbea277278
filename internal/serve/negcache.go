package serve

// Negative-result cache for the 404 path: a count-bounded vcache.Cache of
// names known to have no references at a given database version (every
// entry costs 1, so the budget is an entry count). A miss for an unknown
// name still walks the backend's name index; fleets of probing clients (and
// typo storms) repeat the same unknown names, so remembering "not found at
// version V" turns those repeats into a map hit. Version-keyed like the
// result cache: an Insert bumps the version and every negative entry goes
// stale at once — a name absent at version V may well exist at V+1. Inside
// the stale-while-revalidate window a stale negative is still served (as a
// 404 marked stale) while a background flight re-checks the name at the new
// version; a name that just appeared is the one case staleness can hide,
// which is exactly what the window bounds.

// DefaultNegCacheEntries is the negative-cache capacity Options.
// NegCacheEntries = 0 selects. Entries are a map slot plus the name bytes,
// so even the default costs well under a megabyte.
const DefaultNegCacheEntries = 4096
