package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"distinct/internal/core"
	"distinct/internal/fault"
	"distinct/internal/obs"
	flightrec "distinct/internal/obs/flight"
	"distinct/internal/obs/trace"
	"distinct/internal/vcache"
)

// Defaults for the knobs Options leaves zero.
const (
	// DefaultMaxBatchNames bounds one POST /v1/batch request.
	DefaultMaxBatchNames = 256
	// DefaultMaxBodyBytes bounds a request body read.
	DefaultMaxBodyBytes = 1 << 20
	// DefaultRetryAfter is the Retry-After hint on 429/503 responses.
	DefaultRetryAfter = time.Second
	// DefaultBatchFanout bounds concurrent per-name lookups inside one batch
	// request. Admission control still bounds total engine concurrency, so
	// fan-out changes batch latency, not engine load limits.
	DefaultBatchFanout = 8
	// DefaultAccessLogSample logs one clean fast 200 in this many; errors,
	// incidents, and slow requests always log.
	DefaultAccessLogSample = 100
	// DefaultMaxStale bounds stale-while-revalidate: after a version bump, a
	// previous-version cache entry keeps serving (marked stale) for at most
	// this long while a background flight recomputes at the new version.
	DefaultMaxStale = 30 * time.Second
)

// Options configures a Server. Backend is required; everything else has a
// sensible zero value.
type Options struct {
	// Backend computes disambiguations (required).
	Backend Backend
	// Obs, when non-nil, receives the serve.* counters, gauges, histograms
	// and stage spans. Nil records nothing and costs nothing.
	Obs *obs.Registry
	// Fault, when non-nil, is carried in every compute context so the
	// "serve.compute" injection point (and the engine's core.* points
	// beneath it) can fire — chaos tests and drills only.
	Fault *fault.Registry
	// CacheBytes is the result-cache budget, shared by results and the
	// absent entries that answer repeated 404s: 0 means DefaultCacheBytes,
	// negative disables caching of both.
	CacheBytes int64
	// Concurrency bounds simultaneous engine computations (0 = GOMAXPROCS).
	Concurrency int
	// MaxQueue bounds computations waiting for a slot before 429s start
	// (0 = 4×Concurrency).
	MaxQueue int
	// NameTimeout is the per-name compute budget driving the engine's
	// degrade ladder (0 = defaultNameTimeout).
	NameTimeout time.Duration
	// DegradedPaths caps the degraded retry's join paths (0 = engine default).
	DegradedPaths int
	// MaxBatchNames bounds one batch request (0 = DefaultMaxBatchNames).
	MaxBatchNames int
	// MaxBodyBytes bounds request bodies (0 = DefaultMaxBodyBytes).
	MaxBodyBytes int64
	// RetryAfter is the backoff hint on 429/503 (0 = DefaultRetryAfter).
	RetryAfter time.Duration

	// FlightRecords sizes the flight recorder's ring of last completed
	// requests, served at /debug/requests (0 = flightrec.DefaultRecords,
	// negative disables the recorder).
	FlightRecords int
	// TailSlow is the latency past which a request is tail-sampled: pinned
	// in the recorder's slow lane, always access-logged, trace-artifacted
	// when TailDir is set (0 = flightrec.DefaultSlowThreshold).
	TailSlow time.Duration
	// TailDir, when non-empty, receives per-request engine trace artifacts
	// (distinct-trace/1 JSON) for tail-sampled requests — the K slowest and
	// the errored. Requires the flight recorder.
	TailDir string
	// AccessLog, when non-nil, receives structured access log records:
	// every error, incident, and slow request, plus one in AccessLogSample
	// of the clean fast 200s. Nil disables access logging entirely.
	AccessLog *slog.Logger
	// AccessLogSample is the clean-200 sampling period (0 =
	// DefaultAccessLogSample, 1 = log everything).
	AccessLogSample int
	// SLOTarget is the availability objective the burn-rate gauge and
	// /healthz?verbose=1 report against (0 = DefaultSLOTarget).
	SLOTarget float64
	// BatchFanout bounds concurrent lookups inside one batch request
	// (0 = DefaultBatchFanout, 1 = sequential).
	BatchFanout int

	// MaxStale bounds stale-while-revalidate: after a database version bump,
	// cached previous-version results (and absent entries) keep serving —
	// marked stale in the envelope — for up to this long while a single
	// background flight recomputes at the new version. 0 = DefaultMaxStale,
	// negative disables staleness (a bump invalidates immediately, the
	// pre-SWR behavior).
	MaxStale time.Duration
	// QuotaRPS, when positive, enables per-client quotas: each client (keyed
	// by X-Api-Key, else remote host) gets a token bucket refilling at this
	// rate. Throttled requests get 429 + Retry-After without touching the
	// admission queue.
	QuotaRPS float64
	// QuotaBurst is the per-client bucket capacity (0 = 2×QuotaRPS, min 8).
	QuotaBurst int
	// QuotaConcurrency caps one client's in-flight requests (0 = unlimited).
	// Only effective when QuotaRPS enables quotas.
	QuotaConcurrency int
	// Brownout enables the load-shed ladder (see brownout.go): under
	// sustained overload the server forces degraded computes, then stops
	// revalidating stale entries, then sheds uncached lookups — and walks
	// back down with hysteresis. Also enables the retry budget that bounds
	// degraded retries to a fraction of traffic.
	Brownout bool
	// AllowBump, when the backend supports Mutator, mounts POST /debug/bump:
	// a synthetic version bump for overload drills (loadgen's
	// insert-while-serving mode). Off by default — it mutates server state.
	AllowBump bool
}

// IncidentBody is the JSON rendering of a per-name incident. Elapsed is
// deliberately omitted: response bodies stay byte-deterministic for the
// golden HTTP test, and latency is reported per-request in the envelope.
type IncidentBody struct {
	Reason string `json:"reason"`
	Stage  string `json:"stage,omitempty"`
	Error  string `json:"error,omitempty"`
}

// NameResult is the computed outcome for one name at one database version —
// the unit the cache stores and coalesced waiters share (every waiter of one
// flight receives the same *NameResult). It is immutable once built.
type NameResult struct {
	Name    string `json:"name"`
	Version int64  `json:"version"`
	NumRefs int    `json:"num_refs"`
	// Groups holds one sorted key list per inferred real object.
	Groups [][]string `json:"groups"`
	// Degraded marks a result computed under the reduced path set or kept
	// as one conservative group after a blown budget — real output, lower
	// fidelity; Incident says which.
	Degraded bool          `json:"degraded,omitempty"`
	Incident *IncidentBody `json:"incident,omitempty"`

	// trace is the per-request engine trace captured under tail sampling;
	// unexported so it never reaches the JSON body, and stripped from the
	// copy the cache stores (a cached result serves many requests — none of
	// them this one's trace).
	trace *trace.Trace
}

// nameEnvelope is one request's view of a NameResult: the shared result
// plus request-scoped serving metadata.
type nameEnvelope struct {
	*NameResult
	Cached    bool    `json:"cached"`
	Coalesced bool    `json:"coalesced"`
	Stale     bool    `json:"stale,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// batchRequest is the POST /v1/batch body.
type batchRequest struct {
	Names []string `json:"names"`
}

// batchItem is one name's outcome inside a batch response: an envelope, or
// an error for that name alone (the batch itself still succeeds).
type batchItem struct {
	*NameResult
	Name      string `json:"name"`
	Cached    bool   `json:"cached,omitempty"`
	Coalesced bool   `json:"coalesced,omitempty"`
	Stale     bool   `json:"stale,omitempty"`
	Error     string `json:"error,omitempty"`
	Status    int    `json:"status,omitempty"`
}

// batchResponse is the POST /v1/batch reply.
type batchResponse struct {
	Version   int64       `json:"version"`
	Results   []batchItem `json:"results"`
	ElapsedMS float64     `json:"elapsed_ms"`
}

// errorBody is the error envelope every non-2xx response carries. Stale
// marks a 404 served from a stale absent entry (the name may exist
// at the current version; revalidation is in flight).
type errorBody struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
	Stale  bool   `json:"stale,omitempty"`
}

// errNotFound maps to 404: the name has no references.
var errNotFound = errors.New("serve: unknown name")

// errShedding maps to 503: the brownout ladder's deepest rung is refusing
// uncached lookups.
var errShedding = errors.New("serve: shedding load")

// Server is the serving front end. Create with New, mount Handler on
// obs.ServeHandler (or any http.Server), Drain before exit.
type Server struct {
	backend     Backend
	traced      TracedBackend // backend's tracing extension, nil if unsupported
	reg         *obs.Registry
	cache       *vcache.Cache[string, *NameResult] // nil value: absent; cost: resultBytes
	flights     *flightGroup
	adm         *admission
	handler     http.Handler
	nameTimeout time.Duration
	degraded    int
	maxBatch    int
	maxBody     int64
	retryAfter  time.Duration
	batchFanout int
	maxStale    time.Duration // 0 = staleness disabled

	// Overload resilience (DESIGN.md §15): per-client quotas, brownout
	// ladder, retry budget. All nil when not enabled.
	quotas  *quotaSet
	brown   *brownout
	retries *retryBudget
	fault   *fault.Registry // for injection points outside the compute ctx

	// Request observability (DESIGN.md §14). instrumented gates the full
	// middleware path; with everything off, api() adds nothing to a request.
	instrumented bool
	flightRec    *flightrec.Recorder
	tailTrace    bool // build per-request engine traces in compute
	access       *accessLogger
	slo          *sloTracker
	ids          *idSource
	rtName       *route
	rtBatch      *route
	rtNames      *route

	// Pre-resolved obs handles: registry lookups take the registry mutex,
	// so the request path resolves each handle once here and updates
	// atomics from then on. All nil (and free) on a nil registry.
	cRequests    *obs.Counter
	hSeconds     *obs.Histogram
	cCacheHits   *obs.Counter
	cCacheMisses *obs.Counter
	cCacheEvict  *obs.Counter
	cNegHits     *obs.Counter
	cNegMisses   *obs.Counter
	cCoalesced   *obs.Counter
	cComputes    *obs.Counter
	cDegraded    *obs.Counter
	cPanics      *obs.Counter
	cBatch       *obs.Counter
	cBatchDedup  *obs.Counter
	cRejected429 *obs.Counter
	cRejected503 *obs.Counter
	cErrors      *obs.Counter
	cNotFound    *obs.Counter

	cStaleHits      *obs.Counter
	cStaleNeg       *obs.Counter
	cRevalidations  *obs.Counter
	cShed           *obs.Counter
	cBrownoutForced *obs.Counter
	cRetrySkipped   *obs.Counter

	baseCancel context.CancelFunc

	drainMu  sync.Mutex
	draining bool
	inflight sync.WaitGroup
}

// New builds a Server over opts.Backend.
func New(opts Options) (*Server, error) {
	if opts.Backend == nil {
		return nil, errors.New("serve: Options.Backend is required")
	}
	conc := opts.Concurrency
	if conc <= 0 {
		conc = runtime.GOMAXPROCS(0)
	}
	maxQueue := opts.MaxQueue
	if maxQueue <= 0 {
		maxQueue = 4 * conc
	}
	s := &Server{
		backend:     opts.Backend,
		reg:         opts.Obs,
		nameTimeout: opts.NameTimeout,
		degraded:    opts.DegradedPaths,
		maxBatch:    opts.MaxBatchNames,
		maxBody:     opts.MaxBodyBytes,
		retryAfter:  opts.RetryAfter,
		batchFanout: opts.BatchFanout,
		fault:       opts.Fault,
	}
	s.traced, _ = opts.Backend.(TracedBackend)
	switch {
	case opts.MaxStale < 0:
		// staleness disabled: a version bump invalidates immediately
	case opts.MaxStale == 0:
		s.maxStale = DefaultMaxStale
	default:
		s.maxStale = opts.MaxStale
	}
	if opts.QuotaRPS > 0 {
		s.quotas = newQuotaSet(opts.QuotaRPS, opts.QuotaBurst, opts.QuotaConcurrency, opts.Obs)
	}
	if opts.Brownout {
		s.brown = newBrownout(opts.Obs, time.Now())
		s.retries = newRetryBudget(DefaultRetryBudgetMax, DefaultRetryBudgetRatio)
	}
	if s.nameTimeout <= 0 {
		s.nameTimeout = defaultNameTimeout
	}
	if s.maxBatch <= 0 {
		s.maxBatch = DefaultMaxBatchNames
	}
	if s.maxBody <= 0 {
		s.maxBody = DefaultMaxBodyBytes
	}
	if s.retryAfter <= 0 {
		s.retryAfter = DefaultRetryAfter
	}
	if s.batchFanout <= 0 {
		s.batchFanout = DefaultBatchFanout
	}
	// Fan-out beyond the admission width can only queue (and, past the
	// queue, shed) a batch's own lookups; cap it so one batch on an idle
	// server is always fully admitted.
	if s.batchFanout > conc {
		s.batchFanout = conc
	}
	switch {
	case opts.CacheBytes < 0:
		// caching disabled
	case opts.CacheBytes == 0:
		s.cache = vcache.New[string, *NameResult](DefaultCacheBytes)
	default:
		s.cache = vcache.New[string, *NameResult](opts.CacheBytes)
	}

	// Request observability: flight recorder (default on — it is the
	// always-on black box), access logger, SLO tracker, request ids. The
	// slow threshold is shared by the recorder's slow lane and the access
	// logger's always-log rule.
	tailSlow := opts.TailSlow
	if tailSlow <= 0 {
		tailSlow = flightrec.DefaultSlowThreshold
	}
	if opts.FlightRecords >= 0 {
		s.flightRec = flightrec.New(flightrec.Options{
			Records:       opts.FlightRecords,
			SlowThreshold: tailSlow,
			TailDir:       opts.TailDir,
		})
	}
	s.tailTrace = s.flightRec.TailDir() != ""
	if opts.AccessLog != nil {
		sample := opts.AccessLogSample
		if sample == 0 {
			sample = DefaultAccessLogSample
		}
		if sample < 1 {
			sample = 1
		}
		s.access = &accessLogger{lg: opts.AccessLog, sample: uint64(sample), slow: tailSlow}
	}
	s.slo = newSLOTracker(opts.Obs, opts.SLOTarget)
	s.ids = newIDSource()
	s.rtName = newRoute(opts.Obs, "name")
	s.rtBatch = newRoute(opts.Obs, "batch")
	s.rtNames = newRoute(opts.Obs, "names")
	// Brownout forces the instrumented path: the ladder is driven from the
	// request tail (SLO observation + periodic evaluation).
	s.instrumented = s.flightRec != nil || s.access != nil || s.reg != nil || s.brown != nil

	reg := opts.Obs
	s.cRequests = reg.Counter("serve.requests")
	s.hSeconds = reg.Histogram("serve.request_seconds", nil)
	s.cCacheHits = reg.Counter("serve.cache_hits")
	s.cCacheMisses = reg.Counter("serve.cache_misses")
	s.cCacheEvict = reg.Counter("serve.cache_evictions")
	s.cNegHits = reg.Counter("serve.negcache_hits")
	s.cNegMisses = reg.Counter("serve.negcache_misses")
	s.cCoalesced = reg.Counter("serve.coalesced")
	s.cComputes = reg.Counter("serve.computes")
	s.cDegraded = reg.Counter("serve.degraded")
	s.cPanics = reg.Counter("serve.panics")
	s.cBatch = reg.Counter("serve.batch_requests")
	s.cBatchDedup = reg.Counter("serve.batch_dedup")
	s.cRejected429 = reg.Counter("serve.rejected_429")
	s.cRejected503 = reg.Counter("serve.rejected_503")
	s.cErrors = reg.Counter("serve.errors")
	s.cNotFound = reg.Counter("serve.not_found")
	s.cStaleHits = reg.Counter("serve.stale_hits")
	s.cStaleNeg = reg.Counter("serve.stale_neg_hits")
	s.cRevalidations = reg.Counter("serve.revalidations")
	s.cShed = reg.Counter("serve.brownout_shed")
	s.cBrownoutForced = reg.Counter("serve.brownout_forced_degraded")
	s.cRetrySkipped = reg.Counter("serve.retries_skipped")

	// Flights compute under the server's base context — not any request's —
	// so a cancelled leader hands off to its waiters. The fault registry
	// travels in it so injection reaches the compute path.
	base := context.Background()
	if opts.Fault != nil {
		base = fault.With(base, opts.Fault)
	}
	base, s.baseCancel = context.WithCancel(base)
	s.flights = newFlightGroup(base)
	s.adm = newAdmission(conc, maxQueue, s.reg.Gauge("serve.queue_depth"))

	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/name/{name}", s.api(s.rtName, s.handleName))
	mux.HandleFunc("POST /v1/batch", s.api(s.rtBatch, s.handleBatch))
	mux.HandleFunc("GET /v1/names", s.api(s.rtNames, s.handleNames))
	mux.HandleFunc("GET /healthz", s.handleHealth)
	// The observability endpoints ride on the same mux (and the same
	// hardened server), outside the drain gate so a draining process can
	// still be scraped. /debug/requests (the flight recorder) wins over the
	// /debug/ catch-all by pattern specificity; its handler serves empty
	// lanes on a nil recorder, so the mount is unconditional.
	mux.Handle("/metrics", s.reg.Handler())
	mux.Handle("GET /debug/requests", s.flightRec.Handler())
	mux.HandleFunc("GET /debug/quotas", s.handleQuotas)
	// /debug/bump is a mutation, so it is opt-in (drills and chaos tests) and
	// requires a backend that can actually bump.
	if m, ok := opts.Backend.(Mutator); ok && opts.AllowBump {
		mux.HandleFunc("POST /debug/bump", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusOK, struct {
				Version int64 `json:"version"`
			}{Version: m.Bump()})
		})
	}
	mux.Handle("/debug/", s.reg.Handler())
	s.handler = mux
	return s, nil
}

// Handler returns the server's HTTP handler: the /v1 API plus the
// observability endpoints (/metrics, /debug/...).
func (s *Server) Handler() http.Handler { return s.handler }

// FlightRecorder returns the server's flight recorder (nil when disabled).
func (s *Server) FlightRecorder() *flightrec.Recorder { return s.flightRec }

// Drain stops admitting /v1 requests (they get 503 + Retry-After) and waits
// for the in-flight ones to finish, or until ctx expires. Safe to call more
// than once.
func (s *Server) Drain(ctx context.Context) error {
	s.drainMu.Lock()
	s.draining = true
	s.drainMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close cancels the base context under every in-flight computation. Call
// after Drain (or instead of it, for a hard stop).
func (s *Server) Close() { s.baseCancel() }

// enter registers one in-flight request, refusing when draining. The mutex
// makes the draining check and the WaitGroup add atomic with respect to
// Drain, so Drain's Wait can never miss a request it should cover.
func (s *Server) enter() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if s.draining {
		return false
	}
	s.inflight.Add(1)
	return true
}

// api wraps a /v1 handler with the drain gate and the request-observability
// middleware: request id + traceparent propagation, per-route RED metrics,
// SLO observation, flight record, sampled access log (middleware.go). With
// no registry, recorder, or logger configured, the fast path runs the
// handler bare — nil reqInfo, no response wrapper, zero added allocations.
func (s *Server) api(rt *route, h func(http.ResponseWriter, *http.Request, *reqInfo)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.enter() {
			s.cRejected503.Inc()
			s.writeError(w, http.StatusServiceUnavailable, "draining")
			return
		}
		defer s.inflight.Done()
		if !s.instrumented {
			if s.quotas != nil {
				release, ok := s.quotaAdmit(w, r, nil, time.Now())
				if !ok {
					return
				}
				defer release()
			}
			h(w, r, nil)
			return
		}

		t0 := time.Now()
		// Echo a valid client X-Request-ID, mint one otherwise. The id
		// doubles as this server's traceparent span id (16 hex chars) when
		// generated; an echoed client id is still minted a span id.
		// Headers are read and written with pre-canonicalized keys
		// (hdrRequestID, hdrTraceparent) — net/http canonicalizes incoming
		// keys at parse time, and skipping Get/Set's per-call
		// CanonicalMIMEHeaderKey pass keeps this middleware out of the
		// request latency budget.
		var id string
		if vs := r.Header[hdrRequestID]; len(vs) > 0 {
			id = vs[0]
		}
		spanID := ""
		if !validRequestID(id) {
			id = s.ids.next()
			spanID = id
		}
		wh := w.Header()
		wh[hdrRequestID] = []string{id}
		var traceID string
		if vs := r.Header[hdrTraceparent]; len(vs) > 0 {
			if tid, flags, ok := parseTraceparent(vs[0]); ok {
				traceID = tid
				if spanID == "" {
					spanID = s.ids.next()
				}
				wh[hdrTraceparent] = []string{"00-" + tid + "-" + spanID + "-" + flags}
			}
		}

		s.cRequests.Inc()
		rt.requests.Inc()
		ri := reqInfoPool.Get().(*reqInfo)
		ri.reset()
		sw := &ri.sw
		sw.ResponseWriter = w

		// Per-client quota gate, inside the middleware so a throttled request
		// still gets a flight record, RED metrics, and an SLO observation.
		if s.quotas == nil {
			h(sw, r, ri)
		} else if release, ok := s.quotaAdmit(sw, r, ri, t0); ok {
			h(sw, r, ri)
			release()
		}

		lat := time.Since(t0)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		s.hSeconds.ObserveDuration(lat)
		rt.seconds.ObserveDuration(lat)
		if status >= 500 {
			rt.errors.Inc()
		}
		s.slo.observe(status, t0)
		// Feed the brownout ladder from the request tail, rate-limited by
		// due() so concurrent tails don't pile onto the evaluation.
		now := t0.Add(lat)
		if s.brown != nil && s.brown.due(now) {
			s.brown.observe(s.adm.queueFrac(), s.slo.burnRate(now), now)
		}
		var bstate string
		if lvl := s.brown.current(); lvl > brownoutNormal {
			bstate = lvl.String()
		}

		rec := flightrec.Record{
			ID:        id,
			TraceID:   traceID,
			Route:     rt.name,
			Name:      ri.name,
			Status:    status,
			Start:     t0,
			Latency:   lat,
			Cached:    ri.cached,
			Coalesced: ri.coalesced,
			Degraded:  ri.degraded,
			NegCached: ri.negCached,
			Stale:     ri.stale,
			Client:    ri.client,
			Brownout:  bstate,
			Incident:  ri.incident,
			Error:     ri.errMsg,
		}
		tr := ri.tr
		ri.reset() // drop the trace reference before pooling
		reqInfoPool.Put(ri)
		s.flightRec.Observe(rec, tr)
		if s.access.shouldLog(status, rec.Incident, lat) {
			s.access.log(&rec)
		}
	}
}

// quotaAdmit charges the request to its client's quota (now is the
// middleware's request start — one clock read serves both). On throttle it
// writes the 429 itself — Retry-After from the bucket's refill deficit when
// that is longer than the server's flat hint — and returns ok = false. On
// admission the returned release must be called when the request finishes.
func (s *Server) quotaAdmit(w http.ResponseWriter, r *http.Request, ri *reqInfo, now time.Time) (release func(), ok bool) {
	id := clientID(r)
	if ri != nil {
		ri.client = id
	}
	release, wait, ok := s.quotas.acquire(id, now)
	// Injected quota failure ("serve.quota"): force the throttle path in
	// chaos tests without crafting real bucket exhaustion.
	if ok && s.fault != nil {
		if ferr := s.fault.Fire(r.Context(), "serve.quota"); ferr != nil {
			release()
			release, wait, ok = nil, 0, false
		}
	}
	if ok {
		return release, true
	}
	ra := s.retryAfter
	if wait > ra {
		ra = wait
	}
	w.Header().Set("Retry-After", retryAfterValue(ra))
	s.cRejected429.Inc()
	if ri != nil {
		ri.noteError("", "client quota exceeded", lookupMeta{})
	}
	writeJSON(w, http.StatusTooManyRequests,
		errorBody{Error: "client quota exceeded", Status: http.StatusTooManyRequests})
	return nil, false
}

// handleQuotas serves the per-client quota table (outside the drain gate,
// like the other /debug endpoints).
func (s *Server) handleQuotas(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.quotas.status(time.Now()))
}

// lookupMeta is request-scoped serving metadata for one lookup.
type lookupMeta struct {
	cached    bool
	coalesced bool
	negCached bool
	// stale marks a result (or cached 404) served from a previous database
	// version inside the stale-while-revalidate window.
	stale bool
}

// lookup resolves one name: version read, cache probe, coalesced compute.
// A nil cached result is the absent entry: the name had no references at
// the entry's version, so the lookup 404s without walking the backend's
// name index. The version is read BEFORE the cache probe — with the
// reverse order a concurrent Insert could slip between them and the
// probe would hand back a result computed against the old contents labeled
// with the new version. reldb.Insert upholds the matching edge on its side
// (invalidate before bump; see version_order_test.go).
//
// Stale-while-revalidate: when a version bump has outdated a cache entry
// (result or absent) but the entry is inside the staleness window, it
// is served immediately — marked stale — and a single background flight
// recomputes at the new version. A bump therefore costs no latency cliff:
// hot names keep answering from cache while revalidation fills in behind.
func (s *Server) lookup(ctx context.Context, name string) (*NameResult, lookupMeta, error) {
	version := s.backend.Version()
	switch res, state := s.cache.Get(name, version, s.maxStale); {
	case state == vcache.Fresh && res == nil:
		s.cNegHits.Inc()
		return nil, lookupMeta{negCached: true}, errNotFound
	case state == vcache.Fresh:
		s.cCacheHits.Inc()
		return res, lookupMeta{cached: true}, nil
	case state == vcache.Stale && res == nil:
		s.cStaleNeg.Inc()
		s.revalidate(name, version)
		return nil, lookupMeta{negCached: true, stale: true}, errNotFound
	case state == vcache.Stale:
		s.cStaleHits.Inc()
		s.revalidate(name, version)
		return res, lookupMeta{cached: true, stale: true}, nil
	}
	if s.backend.NumRefs(name) == 0 {
		// A negcache miss is counted only on this slow 404 path, so
		// hits/(hits+misses) reads as the fraction of 404s served cheaply.
		s.cNegMisses.Inc()
		s.store(name, version, nil)
		return nil, lookupMeta{}, errNotFound
	}
	s.cCacheMisses.Inc()
	// The ladder's deepest rung: nothing cached to fall back on and the
	// server is shedding — refuse before burning a queue slot.
	if s.brown.current() >= brownoutShed {
		s.cShed.Inc()
		return nil, lookupMeta{}, errShedding
	}
	res, coalesced, err := s.flights.do(ctx, flightKey{name: name, version: version},
		func(fctx context.Context) (*NameResult, error) {
			return s.compute(fctx, name, version)
		})
	if coalesced {
		s.cCoalesced.Inc()
	}
	return res, lookupMeta{coalesced: coalesced}, err
}

// revalidate starts the background recompute behind a stale answer, unless
// the ladder says stale results should stand (brownoutStale and deeper —
// revalidation is exactly the compute load the ladder is trying to shed).
// The flight group guarantees at most one recompute per (name, version):
// every stale hit calls this, only the first launches.
func (s *Server) revalidate(name string, version int64) {
	if s.brown.current() >= brownoutStale {
		return
	}
	launched := s.flights.launch(flightKey{name: name, version: version},
		func(fctx context.Context) (*NameResult, error) {
			if ferr := fault.Point(fctx, "serve.revalidate"); ferr != nil {
				return nil, ferr
			}
			if s.backend.NumRefs(name) == 0 {
				// The name vanished (or never existed at this version): store
				// the absent entry so the next probe 404s fresh.
				s.store(name, version, nil)
				return nil, errNotFound
			}
			return s.compute(fctx, name, version)
		})
	if launched {
		s.cRevalidations.Inc()
	}
}

// allowRetry is the server's core.BatchOptions.RetryGate: degraded retries
// are skipped when the ladder already forces degraded computes (the retry
// would be a no-op), when the error budget is burning past
// DefaultRetryBurnMax, or when the retry budget is spent.
func (s *Server) allowRetry() bool {
	if s.brown.current() >= brownoutDegraded ||
		s.slo.burnRate(time.Now()) >= DefaultRetryBurnMax ||
		!s.retries.take() {
		s.cRetrySkipped.Inc()
		return false
	}
	return true
}

// compute runs one name's disambiguation: admission slot, fault point,
// engine call, cache store. It runs inside a flight goroutine under the
// server base context; a panic here (its own, or injected at
// "serve.compute") is recovered into an incident-bearing result — one bad
// request must never take the process down.
//
// Under tail sampling (Options.TailDir) each compute carries its own
// engine trace: the backend's stage spans parent under a per-request name
// span, and the finished trace rides the result so the flight recorder can
// write it as an artifact if the request turns out slow or errored. Every
// coalesced waiter shares the one trace; the cache stores a copy without it.
func (s *Server) compute(fctx context.Context, name string, version int64) (res *NameResult, err error) {
	var tr *trace.Trace
	var nsp *trace.Span
	if s.tailTrace {
		tr = trace.New(trace.Options{RootName: "request"})
		nsp = tr.Start(trace.NameSpanPrefix+name, trace.Int("version", version))
	}
	defer func() {
		if p := recover(); p != nil {
			s.cPanics.Inc()
			nsp.Event("incident",
				trace.String("reason", string(core.IncidentPanic)),
				trace.String("error", fmt.Sprint(p)))
			res = &NameResult{
				Name:    name,
				Version: version,
				NumRefs: s.backend.NumRefs(name),
				Incident: &IncidentBody{
					Reason: string(core.IncidentPanic),
					Stage:  "serve.compute",
					Error:  fmt.Sprintf("panic: %v\n%s", p, debug.Stack()),
				},
			}
			err = nil
		}
		if tr != nil {
			nsp.End()
			tr.Finish()
			if res != nil {
				res.trace = tr
			}
		}
	}()
	release, aerr := s.adm.acquire(fctx)
	if aerr != nil {
		return nil, aerr
	}
	defer release()
	if ferr := fault.Point(fctx, "serve.compute"); ferr != nil {
		return nil, ferr
	}
	s.cComputes.Inc()
	sp := s.reg.StartStage("serve.compute")
	opts := core.BatchOptions{
		NameTimeout:   s.nameTimeout,
		DegradedPaths: s.degraded,
	}
	// Brownout: at brownoutDegraded and deeper every compute starts on the
	// degraded path — the quality cut is taken up front instead of after a
	// blown budget. The retry budget gates the ladder's degraded retry so
	// retries stay a bounded fraction of traffic under load.
	if s.brown.current() >= brownoutDegraded {
		opts.ForceDegraded = true
		s.cBrownoutForced.Inc()
	}
	if s.retries != nil {
		s.retries.onAttempt()
		opts.RetryGate = s.allowRetry
	}
	var groups [][]string
	var inc *core.Incident
	if s.traced != nil && nsp != nil {
		groups, inc, err = s.traced.DisambiguateAt(fctx, nsp, name, opts)
	} else {
		groups, inc, err = s.backend.Disambiguate(fctx, name, opts)
	}
	sp.End(1)
	if err != nil {
		return nil, err
	}
	res = &NameResult{
		Name:    name,
		Version: version,
		NumRefs: s.backend.NumRefs(name),
		Groups:  groups,
	}
	if inc != nil {
		res.Incident = &IncidentBody{Reason: string(inc.Reason), Stage: inc.Stage, Error: inc.Err}
		res.Degraded = inc.Reason == core.IncidentDegraded || inc.Reason == core.IncidentTimeout
		if res.Degraded {
			s.cDegraded.Inc()
		}
		nsp.Event("incident",
			trace.String("reason", string(inc.Reason)),
			trace.String("stage", inc.Stage))
	}
	// Only clean results are cached, and only when the database did not
	// move under the computation: a result computed while an Insert landed
	// may mix old and new contents, and storing it under the pre-compute
	// version would serve it as that version's truth. This matters doubly
	// for stale-while-revalidate: a revalidation flight keyed at V2 can be
	// overtaken by a bump to V3 mid-compute (three versions in play — the
	// stale V1 entry, this flight's V2, the live V3); the re-read below
	// observes V3 != V2 and refuses the store, leaving the V1 entry to keep
	// serving stale until a revalidation keyed at V3 lands a result that is
	// actually V3's truth. The cache gets a trace-free copy: a cached result
	// outlives this request.
	if inc == nil && s.backend.Version() == version {
		stored := res
		if tr != nil {
			cp := *res
			cp.trace = nil
			stored = &cp
		}
		s.store(name, version, stored)
	}
	return res, nil
}

// store caches a result (nil: the absent entry) at version. An entry for
// the name at an older version, result or absent, is replaced.
func (s *Server) store(name string, version int64, res *NameResult) {
	if evicted := s.cache.Put(name, version, res, resultBytes(name, res)); evicted > 0 {
		s.cCacheEvict.Add(evicted)
	}
}

// statusFor maps a result to its HTTP status: a panic or error incident is
// a 500 (the body still carries the incident), anything else — clean,
// degraded, timed out conservatively — is a 200 the client can use.
func statusFor(res *NameResult) int {
	if res.Incident == nil {
		return http.StatusOK
	}
	switch res.Incident.Reason {
	case string(core.IncidentPanic), string(core.IncidentError):
		return http.StatusInternalServerError
	}
	return http.StatusOK
}

// errStatus maps a lookup error to (status, message).
func (s *Server) errStatus(err error) (int, string) {
	switch {
	case errors.Is(err, errNotFound):
		return http.StatusNotFound, "unknown name"
	case errors.Is(err, errOverloaded):
		return http.StatusTooManyRequests, "compute queue full"
	case errors.Is(err, errDraining):
		return http.StatusServiceUnavailable, "draining"
	case errors.Is(err, errShedding):
		return http.StatusServiceUnavailable, "overloaded, shedding load"
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The requester went away (or its deadline fired) mid-flight; 499 in
		// the nginx convention. The response likely reaches nobody.
		return 499, "request cancelled"
	default:
		return http.StatusInternalServerError, err.Error()
	}
}

func (s *Server) handleName(w http.ResponseWriter, r *http.Request, ri *reqInfo) {
	name := r.PathValue("name")
	if name == "" {
		s.writeError(w, http.StatusBadRequest, "empty name")
		return
	}
	t0 := time.Now()
	res, meta, err := s.lookup(r.Context(), name)
	if err != nil {
		status, msg := s.errStatus(err)
		ri.noteError(name, msg, meta)
		if meta.stale && status == http.StatusNotFound {
			// A stale absent entry: the 404 carries stale so the client knows the
			// fact is from a previous version and a re-check is in flight.
			s.cNotFound.Inc()
			writeJSON(w, status, errorBody{Error: msg, Status: status, Stale: true})
			return
		}
		s.writeError(w, status, msg)
		return
	}
	ri.noteResult(meta, res)
	writeJSON(w, statusFor(res), nameEnvelope{
		NameResult: res,
		Cached:     meta.cached,
		Coalesced:  meta.coalesced,
		Stale:      meta.stale,
		ElapsedMS:  float64(time.Since(t0).Microseconds()) / 1000,
	})
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request, ri *reqInfo) {
	var req batchRequest
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if len(req.Names) == 0 {
		s.writeError(w, http.StatusBadRequest, "names is empty")
		return
	}
	if len(req.Names) > s.maxBatch {
		s.writeError(w, http.StatusBadRequest,
			fmt.Sprintf("batch of %d names exceeds the limit of %d", len(req.Names), s.maxBatch))
		return
	}
	s.cBatch.Inc()
	if ri != nil {
		ri.noteName(batchLabel(req.Names))
	}
	t0 := time.Now()

	// Deduplicate to distinct names (first-occurrence order) so a batch
	// with repeats does each name's work once, then fan the distinct names
	// out over a bounded worker set. The coalescer would catch concurrent
	// duplicates anyway; deduping first avoids even the flight handoff.
	idx := make(map[string]int, len(req.Names))
	uniq := make([]string, 0, len(req.Names))
	for _, name := range req.Names {
		if _, ok := idx[name]; !ok {
			idx[name] = len(uniq)
			uniq = append(uniq, name)
		}
	}
	if d := len(req.Names) - len(uniq); d > 0 {
		s.cBatchDedup.Add(int64(d))
	}

	type outcome struct {
		res  *NameResult
		meta lookupMeta
		err  error
	}
	outs := make([]outcome, len(uniq))
	run := func(i int) {
		if err := r.Context().Err(); err != nil {
			outs[i].err = err
			return
		}
		outs[i].res, outs[i].meta, outs[i].err = s.lookup(r.Context(), uniq[i])
	}
	if fan := min(s.batchFanout, len(uniq)); fan <= 1 {
		for i := range uniq {
			run(i)
		}
	} else {
		// Workers claim indices off a shared counter: cheap, order-free, and
		// the deterministic response order is restored by assembly below.
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(fan)
		for range fan {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(uniq) {
						return
					}
					run(i)
				}
			}()
		}
		wg.Wait()
	}

	// Assemble in request order: every occurrence of a name shares its one
	// outcome, so responses are deterministic regardless of fan-out timing.
	resp := batchResponse{Version: s.backend.Version(), Results: make([]batchItem, 0, len(req.Names))}
	for _, name := range req.Names {
		o := outs[idx[name]]
		if o.err != nil {
			status, msg := s.errStatus(o.err)
			resp.Results = append(resp.Results, batchItem{
				Name: name, Error: msg, Status: status, Stale: o.meta.stale,
			})
			continue
		}
		ri.noteFlags(o.meta, o.res)
		resp.Results = append(resp.Results, batchItem{
			NameResult: o.res, Name: o.res.Name, Cached: o.meta.cached,
			Coalesced: o.meta.coalesced, Stale: o.meta.stale,
		})
	}
	resp.ElapsedMS = float64(time.Since(t0).Microseconds()) / 1000
	writeJSON(w, http.StatusOK, resp)
}

// batchLabel summarizes a batch's names for the flight record.
func batchLabel(names []string) string {
	if len(names) == 1 {
		return names[0]
	}
	return fmt.Sprintf("%s +%d more", names[0], len(names)-1)
}

func (s *Server) handleNames(w http.ResponseWriter, r *http.Request, _ *reqInfo) {
	minRefs := 2
	if v := r.URL.Query().Get("min_refs"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "min_refs must be an integer")
			return
		}
		minRefs = n
	}
	names := s.backend.Names(minRefs)
	if names == nil {
		names = []string{}
	}
	writeJSON(w, http.StatusOK, struct {
		Version int64    `json:"version"`
		Names   []string `json:"names"`
	}{Version: s.backend.Version(), Names: names})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.drainMu.Lock()
	draining := s.draining
	s.drainMu.Unlock()
	// ?verbose=1 returns a JSON body with the rolling SLO window; the plain
	// form stays a byte-stable "ok\n" (load balancers and the golden HTTP
	// test both key on it).
	if r.URL.Query().Get("verbose") != "" {
		status, text := http.StatusOK, "ok"
		if draining {
			status, text = http.StatusServiceUnavailable, "draining"
			w.Header().Set("Retry-After", retryAfterValue(s.retryAfter))
		}
		writeJSON(w, status, struct {
			Status   string         `json:"status"`
			Draining bool           `json:"draining"`
			SLO      sloStatus      `json:"slo"`
			Brownout brownoutStatus `json:"brownout"`
		}{
			Status: text, Draining: draining,
			SLO:      s.slo.status(time.Now()),
			Brownout: s.brown.status(time.Now()),
		})
		return
	}
	if draining {
		w.Header().Set("Retry-After", retryAfterValue(s.retryAfter))
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// writeError emits the error envelope, with Retry-After on the statuses
// where backing off helps.
func (s *Server) writeError(w http.ResponseWriter, status int, msg string) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", retryAfterValue(s.retryAfter))
	}
	if status == http.StatusTooManyRequests {
		s.cRejected429.Inc()
	} else if status >= 500 && status != http.StatusServiceUnavailable {
		s.cErrors.Inc()
	} else if status == http.StatusNotFound {
		s.cNotFound.Inc()
	}
	writeJSON(w, status, errorBody{Error: msg, Status: status})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

// retryAfterValue renders a Retry-After in whole seconds, at least 1.
func retryAfterValue(d time.Duration) string {
	secs := int64(d / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}
