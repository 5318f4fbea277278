// Package flight is a request-scoped flight recorder for the serving stack:
// an always-on, mutex-cheap ring buffer of the last N completed requests
// plus tail-sampling "keep lanes" that pin the K slowest and the most
// recent errored requests, so "why was THIS lookup slow / degraded / a 404"
// is answerable after the fact without re-running it.
//
// The recorder follows the obs nil convention: every method on a nil
// *Recorder is a no-op, so the serving layer carries no enablement branches
// and the disabled path costs one inlined nil check.
//
// Observe's critical section is a ring-slot copy plus (rarely) a bounded
// heap fix-up — no allocation, no I/O — so the recorder can sit on the
// request hot path. When a tail directory is configured, requests that
// enter a keep lane because they were slow past the threshold or errored
// get their per-request engine trace (internal/obs/trace, distinct-trace/1
// format) written there as an artifact; the file write happens outside the
// lock, after the response, and a failed write only bumps a counter.
//
// Snapshot and Handler (handler.go) expose the three lanes — recent,
// slowest, errors — as JSON and as an x/net/trace-style HTML table at
// /debug/requests.
package flight

import (
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"distinct/internal/obs/trace"
)

// Defaults for the knobs Options leaves zero.
const (
	// DefaultRecords is the ring size: how many completed requests are kept.
	DefaultRecords = 256
	// DefaultSlowLane is how many slowest-ever requests are pinned.
	DefaultSlowLane = 16
	// DefaultErrorLane is how many recent errored requests are pinned.
	DefaultErrorLane = 16
	// DefaultSlowThreshold marks a request slow: past it the request is
	// always access-logged and eligible for a trace artifact.
	DefaultSlowThreshold = 500 * time.Millisecond
)

// Record is one completed request as the recorder keeps it. Records are
// plain values — strings and scalars — so storing one is a struct copy and
// a stored record can never be mutated by a later request.
type Record struct {
	// Seq is the recorder-assigned sequence number (1 = first observed).
	Seq uint64 `json:"seq"`
	// ID is the request id (generated or echoed X-Request-ID).
	ID string `json:"id"`
	// TraceID is the W3C traceparent trace-id when the client sent one.
	TraceID string `json:"trace_id,omitempty"`
	// Route is the serving route ("name", "batch", "names").
	Route string `json:"route"`
	// Name is the looked-up name (or a batch summary label).
	Name string `json:"name,omitempty"`
	// Status is the HTTP status written.
	Status int `json:"status"`
	// Start is when the request entered the handler.
	Start time.Time `json:"start"`
	// Latency is the handler wall time (marshals as nanoseconds).
	Latency time.Duration `json:"latency_ns"`
	// Cached, Coalesced, Degraded mirror the response envelope's serving
	// metadata; NegCached marks a 404 served from a cached absent entry.
	Cached    bool `json:"cached,omitempty"`
	Coalesced bool `json:"coalesced,omitempty"`
	Degraded  bool `json:"degraded,omitempty"`
	NegCached bool `json:"neg_cached,omitempty"`
	// Stale marks a response served from a previous database version inside
	// the stale-while-revalidate window.
	Stale bool `json:"stale,omitempty"`
	// Client is the quota identity the request was charged to, when
	// per-client quotas are enabled.
	Client string `json:"client,omitempty"`
	// Brownout is the load-shed ladder's level at response time, recorded
	// only when engaged ("degraded", "stale", "shed").
	Brownout string `json:"brownout,omitempty"`
	// Incident is the incident reason ("panic", "timeout", ...) when the
	// computation deviated from the clean path.
	Incident string `json:"incident,omitempty"`
	// Error is the error message of a non-2xx envelope.
	Error string `json:"error,omitempty"`
	// TraceFile is the tail-sampled trace artifact path, when one was
	// written for this request.
	TraceFile string `json:"trace_file,omitempty"`
}

// errored reports whether the record belongs in the error lane: a server
// failure or any incident, clean 4xxs excluded (a 404 probe is not an
// error of ours).
func (r *Record) errored() bool { return r.Status >= 500 || r.Incident != "" }

// Options configures a Recorder. The zero value selects every default.
type Options struct {
	// Records sizes the ring of last completed requests (0 = DefaultRecords).
	Records int
	// SlowLane is how many slowest requests are pinned (0 = DefaultSlowLane).
	SlowLane int
	// ErrorLane is how many recent errored requests are pinned
	// (0 = DefaultErrorLane).
	ErrorLane int
	// SlowThreshold marks a request slow (0 = DefaultSlowThreshold).
	SlowThreshold time.Duration
	// TailDir, when non-empty, receives trace artifacts for tail-sampled
	// requests (slow past the threshold, or errored) that carried a trace.
	TailDir string
}

// Recorder is the flight recorder. Create with New; a nil Recorder records
// nothing and serves empty snapshots.
type Recorder struct {
	slowThreshold time.Duration
	tailDir       string

	mu    sync.Mutex
	ring  []Record // capacity fixed; filled up to len
	next  int      // ring slot the next record lands in
	total uint64   // records ever observed
	slow  []Record // min-heap on Latency, capped at slowLane
	slowN int      // heap capacity
	errs  []Record // ring of errored records
	errN  int      // error-ring capacity
	eNext int

	traceWrites atomic.Uint64 // artifacts written
	traceErrs   atomic.Uint64 // artifact writes that failed
}

// New builds a recorder; zero option fields select the defaults.
func New(o Options) *Recorder {
	if o.Records <= 0 {
		o.Records = DefaultRecords
	}
	if o.SlowLane <= 0 {
		o.SlowLane = DefaultSlowLane
	}
	if o.ErrorLane <= 0 {
		o.ErrorLane = DefaultErrorLane
	}
	if o.SlowThreshold <= 0 {
		o.SlowThreshold = DefaultSlowThreshold
	}
	return &Recorder{
		slowThreshold: o.SlowThreshold,
		tailDir:       o.TailDir,
		ring:          make([]Record, 0, o.Records),
		slow:          make([]Record, 0, o.SlowLane),
		slowN:         o.SlowLane,
		errs:          make([]Record, 0, o.ErrorLane),
		errN:          o.ErrorLane,
	}
}

// SlowThreshold returns the configured slow mark (0 on a nil recorder) —
// the serving middleware shares it for its always-log decision.
func (rc *Recorder) SlowThreshold() time.Duration {
	if rc == nil {
		return 0
	}
	return rc.slowThreshold
}

// TailDir returns the artifact directory ("" when artifacts are off or the
// recorder is nil). The serving layer uses it to decide whether per-request
// traces are worth building at all.
func (rc *Recorder) TailDir() string {
	if rc == nil {
		return ""
	}
	return rc.tailDir
}

// Observe stores one completed request. tr, when non-nil, is the request's
// engine trace; it is written to the tail directory only if the request
// tail-samples (slow past the threshold, or errored), so building the trace
// is cheap insurance and writing it is rare. Safe for concurrent use; the
// file write happens outside the lock.
func (rc *Recorder) Observe(rec Record, tr *trace.Trace) {
	if rc == nil {
		return
	}
	slow := rec.Latency >= rc.slowThreshold
	keepTrace := (slow || rec.errored()) && tr != nil && rc.tailDir != ""
	if keepTrace {
		rec.TraceFile = filepath.Join(rc.tailDir, "req-"+SanitizeID(rec.ID)+".json")
	}

	rc.mu.Lock()
	rc.total++
	rec.Seq = rc.total
	if len(rc.ring) < cap(rc.ring) {
		rc.ring = append(rc.ring, rec)
	} else {
		rc.ring[rc.next] = rec
	}
	rc.next = (rc.next + 1) % cap(rc.ring)
	// Slow lane: the K slowest requests ever, kept as a min-heap so the
	// common fast request costs one comparison against the current floor.
	if len(rc.slow) < rc.slowN {
		rc.slow = append(rc.slow, rec)
		siftUp(rc.slow, len(rc.slow)-1)
	} else if rec.Latency > rc.slow[0].Latency {
		rc.slow[0] = rec
		siftDown(rc.slow, 0)
	}
	if rec.errored() {
		if len(rc.errs) < rc.errN {
			rc.errs = append(rc.errs, rec)
		} else {
			rc.errs[rc.eNext] = rec
		}
		rc.eNext = (rc.eNext + 1) % rc.errN
	}
	rc.mu.Unlock()

	if keepTrace {
		if err := tr.WriteFile(rec.TraceFile); err != nil {
			rc.traceErrs.Add(1)
		} else {
			rc.traceWrites.Add(1)
		}
	}
}

// Snapshot is a point-in-time copy of the recorder's three lanes.
type Snapshot struct {
	// Total counts every request observed since startup.
	Total uint64 `json:"total"`
	// TraceWrites / TraceErrors count tail-sampled trace artifacts.
	TraceWrites uint64 `json:"trace_writes,omitempty"`
	TraceErrors uint64 `json:"trace_errors,omitempty"`
	// SlowThresholdNs is the configured slow mark.
	SlowThresholdNs int64 `json:"slow_threshold_ns"`
	// Recent holds the ring, newest first.
	Recent []Record `json:"recent"`
	// Slowest holds the slow lane, slowest first.
	Slowest []Record `json:"slowest"`
	// Errors holds the error lane, newest first.
	Errors []Record `json:"errors"`
}

// Snapshot copies the current lanes. The nil recorder returns the zero
// snapshot.
func (rc *Recorder) Snapshot() Snapshot {
	if rc == nil {
		return Snapshot{}
	}
	rc.mu.Lock()
	snap := Snapshot{
		Total:           rc.total,
		SlowThresholdNs: int64(rc.slowThreshold),
		Recent:          make([]Record, 0, len(rc.ring)),
		Slowest:         append([]Record(nil), rc.slow...),
		Errors:          make([]Record, 0, len(rc.errs)),
	}
	// The ring in arrival order starts at next (the oldest slot once the
	// ring has wrapped); emit newest first.
	for i := 0; i < len(rc.ring); i++ {
		idx := rc.next - 1 - i
		if idx < 0 {
			idx += len(rc.ring)
		}
		snap.Recent = append(snap.Recent, rc.ring[idx])
	}
	for i := 0; i < len(rc.errs); i++ {
		idx := rc.eNext - 1 - i
		if idx < 0 {
			idx += len(rc.errs)
		}
		snap.Errors = append(snap.Errors, rc.errs[idx])
	}
	rc.mu.Unlock()
	snap.TraceWrites = rc.traceWrites.Load()
	snap.TraceErrors = rc.traceErrs.Load()
	// The slow lane is a heap; order it slowest-first for presentation.
	sortByLatencyDesc(snap.Slowest)
	return snap
}

// sortByLatencyDesc orders records by latency, slowest first, breaking ties
// by sequence so snapshots are deterministic.
func sortByLatencyDesc(recs []Record) {
	for i := 1; i < len(recs); i++ {
		for j := i; j > 0 && less(recs[j-1], recs[j]); j-- {
			recs[j-1], recs[j] = recs[j], recs[j-1]
		}
	}
}

func less(a, b Record) bool {
	if a.Latency != b.Latency {
		return a.Latency < b.Latency
	}
	return a.Seq < b.Seq
}

// siftUp/siftDown maintain the slow lane's min-heap on Latency.
func siftUp(h []Record, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].Latency <= h[i].Latency {
			return
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

func siftDown(h []Record, i int) {
	for {
		min, l, r := i, 2*i+1, 2*i+2
		if l < len(h) && h[l].Latency < h[min].Latency {
			min = l
		}
		if r < len(h) && h[r].Latency < h[min].Latency {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// SanitizeID maps a request id to a filesystem- and log-safe token: ASCII
// letters, digits, '.', '_' and '-' pass through, anything else becomes
// '-', and the result is capped at 64 bytes ("anon" if nothing survives).
func SanitizeID(id string) string {
	if len(id) > 64 {
		id = id[:64]
	}
	out := []byte(id)
	ok := true
	for i := 0; i < len(out); i++ {
		c := out[i]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
			c == '.' || c == '_' || c == '-' {
			continue
		}
		out[i] = '-'
		ok = false
	}
	if len(out) == 0 {
		return "anon"
	}
	if ok {
		return id
	}
	return string(out)
}
