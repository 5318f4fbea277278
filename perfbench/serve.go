package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"distinct/internal/core"
	"distinct/internal/obs"
	"distinct/internal/obs/trace"
	"distinct/internal/reldb"
	"distinct/internal/serve"
)

// The serve-mixed traffic: Poisson arrivals at serveRate over every name
// with two or more references, Zipf-distributed by a popularity rank that
// the seed shuffles, and one database bump every bumpEvery. Each bump makes
// every cached answer stale, and the revalidations it starts compete with
// the requests for the cores. README.md says where each figure comes from;
// serveRate is an assumption of the benchmark's own.
const (
	serveRate  = 100.0
	bumpEvery  = 2 * time.Second        // the CI overload drill's loadgen -insert-every
	zipfS      = 0.8                    // Web request popularity, Breslau et al., INFOCOM 1999
	serveLimit = 250 * time.Millisecond // slo_share's latency limit: cmd/loadgen's -slo-p99
	renderAttr = "paper-key"            // reference attribute rendered in responses
)

// timedBackend wraps the engine's serving backend. It times every call,
// and when book is set it traces each call as an operation of its own —
// the server may run it in the background or share it between coalesced
// requests — with the engine's stage spans beneath it.
type timedBackend struct {
	inner *serve.EngineBackend
	book  *traceBook
	next  atomic.Int64 // operation ids for backend calls
	busy  atomic.Int64 // calls in progress

	mu    sync.Mutex
	calls []float64 // seconds per call
}

// backendOps is the first operation id given to backend calls, above any
// request id.
const backendOps = 1 << 30

func (b *timedBackend) Disambiguate(ctx context.Context, name string, opts core.BatchOptions) (groups [][]string, inc *core.Incident, err error) {
	b.busy.Add(1)
	defer b.busy.Add(-1)
	t0 := time.Now()
	op := backendOps + int(b.next.Add(1))
	// The closure keeps the call's error in err and reports none itself.
	_ = b.book.run(op, "serve.backend", func(tr *trace.Trace) error {
		groups, inc, err = b.inner.DisambiguateAt(ctx, tr.Root(), name, opts)
		return nil
	})
	d := time.Since(t0).Seconds()
	b.mu.Lock()
	b.calls = append(b.calls, d)
	b.mu.Unlock()
	return groups, inc, err
}

func (b *timedBackend) NumRefs(name string) int    { return b.inner.NumRefs(name) }
func (b *timedBackend) Names(minRefs int) []string { return b.inner.Names(minRefs) }
func (b *timedBackend) Version() int64             { return b.inner.Version() }

// callTimes returns the times of the calls made since the first skip.
func (b *timedBackend) callTimes(skip int) []float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]float64(nil), b.calls[skip:]...)
}

// waitIdle waits, at most 30 s, until no call is in progress: the
// revalidations the last bump started may still run after the load ends.
func (b *timedBackend) waitIdle() {
	for end := time.Now().Add(30 * time.Second); b.busy.Load() > 0 && time.Now().Before(end); {
		time.Sleep(10 * time.Millisecond)
	}
}

// numCalls is how many calls the backend has served.
func (b *timedBackend) numCalls() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.calls)
}

// serveFixture is a serve-mixed set-up: the trained engine, its names,
// and every name's direct answer from the engine.
type serveFixture struct {
	*fixture
	names    []string // every name with at least minRefs references
	expected map[string][][]string
	backend  *serve.EngineBackend
}

// setUpServe generates, opens and trains, then asks the engine directly for
// every name's groups. Those answers warm its neighborhood cache and are
// what every served response is checked against.
func setUpServe(ctx context.Context, o *options, book *traceBook, reg *obs.Registry) (*serveFixture, error) {
	fx, err := setUp(ctx, o, book, reg, false)
	if err != nil {
		return nil, err
	}
	sf := &serveFixture{
		fixture:  fx,
		names:    fx.eng.NamesWithRefs(minRefs),
		expected: make(map[string][][]string),
		backend:  serve.NewEngineBackend(fx.eng, renderAttr),
	}
	var mu sync.Mutex
	err = book.run(0, "serve.expected", func(tr *trace.Trace) error {
		return forEach(len(sf.names), func(i int) error {
			name := sf.names[i]
			sp := tr.Start("serve.backend")
			groups, inc, err := sf.backend.DisambiguateAt(ctx, sp, name, core.BatchOptions{})
			sp.End()
			if err == nil && inc != nil {
				err = fmt.Errorf("incident %s at %s", inc.Reason, inc.Stage)
			}
			if err != nil {
				return fmt.Errorf("direct answer for %q: %w", name, err)
			}
			mu.Lock()
			sf.expected[name] = groups
			mu.Unlock()
			return nil
		})
	})
	return sf, err
}

// forEach calls f(0..n-1) on GOMAXPROCS goroutines. A worker stops at its
// first error; forEach returns the workers' errors joined.
func forEach(n int, f func(i int) error) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, runtime.GOMAXPROCS(0))
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n && errs[w] == nil; i = int(next.Add(1)) - 1 {
				errs[w] = f(i)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// server is a serve.Server with default options on a loopback listener.
type server struct {
	srv     *serve.Server
	http    *http.Server
	base    string
	client  *http.Client
	backend *timedBackend
	done    chan struct{}
}

// startServer serves the engine backend on 127.0.0.1; reg, when non-nil,
// receives the server's counters.
func startServer(sf *serveFixture, book *traceBook, reg *obs.Registry) (*server, error) {
	b := &timedBackend{inner: sf.backend, book: book}
	srv, err := serve.New(serve.Options{Backend: b, Obs: reg})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	conns := runtime.GOMAXPROCS(0)
	s := &server{
		srv:     srv,
		http:    &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		base:    "http://" + ln.Addr().String() + "/v1/name/",
		backend: b,
		done:    make(chan struct{}),
		client: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
		},
	}
	go func() {
		defer close(s.done)
		_ = s.http.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	return s, nil
}

// stop shuts the HTTP server and the serve.Server down and waits for both.
func (s *server) stop() {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.srv.Drain(ctx)
	_ = s.http.Shutdown(ctx)
	<-s.done
	s.srv.Close()
}

// nameBody is the part of a GET /v1/name response the benchmark checks.
type nameBody struct {
	Name     string     `json:"name"`
	Groups   [][]string `json:"groups"`
	Degraded bool       `json:"degraded"`
}

// get fetches one name. ok is false for a transport error, a non-2xx
// status, an unreadable body, or a non-degraded answer that differs from
// the engine's direct one. A degraded answer cannot be compared; callers
// count it apart.
func (s *server) get(expected map[string][][]string, name string) (body nameBody, ok bool) {
	resp, err := s.client.Get(s.base + url.PathEscape(name))
	if err != nil {
		return body, false
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 || json.NewDecoder(resp.Body).Decode(&body) != nil {
		return body, false
	}
	return body, body.Name == name && (body.Degraded || reflect.DeepEqual(body.Groups, expected[name]))
}

// warm requests every name once, so the result cache is full before
// measurement, and checks the answers.
func (s *server) warm(sf *serveFixture) error {
	return forEach(len(sf.names), func(i int) error {
		if _, ok := s.get(sf.expected, sf.names[i]); !ok {
			return fmt.Errorf("warm-up request for %q failed or differed from the engine", sf.names[i])
		}
		return nil
	})
}

// arrival is one scheduled request: when it is due, relative to the start
// of the load, and which name it asks for.
type arrival struct {
	due  time.Duration
	name string
}

// schedule draws the load's arrivals from the seed: exponential gaps at
// the given rate, and names Zipf(zipfS)-distributed by a popularity rank
// that the seed shuffles, as cmd/loadgen shuffles its name mix.
func schedule(seed int64, names []string, rate float64, length time.Duration) []arrival {
	rng := rand.New(rand.NewSource(seed))
	ranked := append([]string(nil), names...)
	rng.Shuffle(len(ranked), func(i, j int) { ranked[i], ranked[j] = ranked[j], ranked[i] })
	// cum[k] is the weight of ranks 1..k+1; rank r weighs r^-zipfS.
	cum := make([]float64, len(ranked))
	sum := 0.0
	for k := range cum {
		sum += math.Pow(float64(k+1), -zipfS)
		cum[k] = sum
	}
	var out []arrival
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= length {
			return out
		}
		k := sort.SearchFloat64s(cum, rng.Float64()*sum)
		out = append(out, arrival{due: t, name: ranked[min(k, len(ranked)-1)]})
	}
}

// loadStats is what one load run measured.
type loadStats struct {
	opStats
	lags     []float64 // seconds each request was sent after it was due
	backlog  int       // requests due within the window but sent after it
	degraded int       // 2xx answers marked degraded, which miss the latency limit
	bumps    int
}

// load sends the schedule open-loop over at most GOMAXPROCS connections:
// each request goes out when due, or as soon as a connection frees up, and
// is timed from when it was due. A database bump fires every bumpPeriod.
// With book set, each request is traced as operation opBase+i.
func (s *server) load(sf *serveFixture, sched []arrival, length, bumpPeriod time.Duration, book *traceBook, opBase int) *loadStats {
	st := &loadStats{}
	lat := make([]float64, len(sched))
	lag := make([]float64, len(sched))
	sent := make([]time.Duration, len(sched))
	ok := make([]bool, len(sched))
	degraded := make([]bool, len(sched))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	stopBumps := make(chan struct{})
	bumpsDone := make(chan int)
	go func() {
		n := 0
		tick := time.NewTicker(bumpPeriod)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				sf.backend.Bump()
				n++
			case <-stopBumps:
				bumpsDone <- n
				return
			}
		}
	}()
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(sched); i = int(next.Add(1)) - 1 {
				a := sched[i]
				if wait := a.due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				sent[i] = time.Since(start)
				_ = book.run(opBase+i, "serve.request", func(*trace.Trace) error {
					var body nameBody
					body, ok[i] = s.get(sf.expected, a.name)
					degraded[i] = body.Degraded
					return nil
				})
				lat[i] = (time.Since(start) - a.due).Seconds()
				lag[i] = (sent[i] - a.due).Seconds()
			}
		}()
	}
	wg.Wait()
	st.window = time.Since(start).Seconds()
	close(stopBumps)
	st.bumps = <-bumpsDone
	for i := range sched {
		st.lat = append(st.lat, lat[i])
		st.lags = append(st.lags, lag[i])
		if sent[i] > length {
			st.backlog++
		}
		st.attempted++
		if !ok[i] {
			st.failed++
			continue
		}
		if degraded[i] {
			st.degraded++
			continue
		}
		if lat[i] <= serveLimit.Seconds() {
			st.within++
		}
	}
	return st
}

// scoreServed fetches the ambiguous names through the server and scores
// the served groups. A failed or wrong answer counts as a failed
// operation.
func (s *server) scoreServed(sf *serveFixture, st *opStats) error {
	db := sf.eng.DB()
	f1, err := meanF1(sf.world, sf.eng, func(name string) ([][]reldb.TupleID, error) {
		body, ok := s.get(sf.expected, name)
		if !ok || body.Degraded {
			st.attempted++
			st.failed++
		}
		byKey := make(map[string][]reldb.TupleID)
		for _, r := range sf.eng.RefsForName(name) {
			k := db.Tuple(r).Val(renderAttr)
			byKey[k] = append(byKey[k], r)
		}
		groups := make([][]reldb.TupleID, len(body.Groups))
		for i, g := range body.Groups {
			for _, k := range g {
				if len(byKey[k]) == 0 {
					return nil, fmt.Errorf("served key %q is not a reference of %q", k, name)
				}
				groups[i] = append(groups[i], byKey[k][0])
				byKey[k] = byKey[k][1:]
			}
		}
		return groups, nil
	})
	if err != nil {
		return err
	}
	st.f1, st.scored = f1, true
	return nil
}

func secondsDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func runServeMixed(ctx context.Context, o *options) (*result, error) {
	var sf *serveFixture
	var srv *server
	drop := func() {
		if srv != nil {
			srv.stop()
		}
		sf, srv = nil, nil
	}
	defer drop()
	setup, err := repeatSetUp(o.setups, drop, func() error {
		var err error
		if sf, err = setUpServe(ctx, o, nil, nil); err != nil {
			return err
		}
		if srv, err = startServer(sf, nil, nil); err != nil {
			return err
		}
		return srv.warm(sf)
	})
	if err != nil {
		return nil, err
	}
	st, err := measureServe(o, sf, srv)
	if err != nil {
		return nil, err
	}
	srv.backend.waitIdle()
	return st.endToEnd(setup), nil
}

// measureServe runs the load on a warm server and scores its answers.
func measureServe(o *options, sf *serveFixture, srv *server) (*loadStats, error) {
	length := secondsDur(o.seconds)
	sched := schedule(o.seed, sf.names, o.serveRate, length)
	calls := srv.backend.numCalls()
	st := srv.load(sf, sched, length, o.bumpEvery, nil, 0)
	fmt.Fprintf(o.log, "serve-mixed: %d requests, %d bumps, %d backend calls, %d degraded, p99 %.3f ms, lag p99 %.3f ms, backlog %d\n",
		len(sched), st.bumps, srv.backend.numCalls()-calls, st.degraded, 1000*quantile(st.lat, 0.99), 1000*quantile(st.lags, 0.99), st.backlog)
	return st, srv.scoreServed(sf, &st.opStats)
}

// traceServeMixed runs the schedule twice on fresh warm servers: first
// untraced, then traced with the server's counters on. Each half gets half
// the run's time.
func traceServeMixed(ctx context.Context, o *options) (*result, error) {
	t := newTracedRun()
	sf, err := setUpServe(ctx, o, t.book, t.reg)
	if err != nil {
		return nil, err
	}
	half := secondsDur(o.seconds / 2)
	sched := schedule(o.seed, sf.names, o.serveRate, half)

	plainSrv, err := startServer(sf, nil, nil)
	if err != nil {
		return nil, err
	}
	if err := plainSrv.warm(sf); err != nil {
		plainSrv.stop()
		return nil, err
	}
	plainCalls := plainSrv.backend.numCalls()
	g0 := readGo()
	plain := plainSrv.load(sf, sched, half, o.bumpEvery, nil, 0)
	t.goUse.add(g0, readGo())
	plainSrv.stop()
	calls := plainSrv.backend.callTimes(plainCalls)

	tracedSrv, err := startServer(sf, t.book, t.reg)
	if err != nil {
		return nil, err
	}
	defer tracedSrv.stop()
	if err := tracedSrv.warm(sf); err != nil {
		return nil, err
	}
	t.begin()
	warmOps := backendOps + tracedSrv.backend.numCalls()
	traced := tracedSrv.load(sf, sched, half, o.bumpEvery, t.book, 1)
	t.finish()
	if err := tracedSrv.scoreServed(sf, &traced.opStats); err != nil {
		return nil, err
	}

	// Counts are per request of the traced half, whose server and engine
	// report to the registry.
	t.ops = traced.attempted
	t.plainOps, t.tracedOps = plain.lat, traced.lat
	t.st = traced.opStats
	t.st.attempted += plain.attempted
	t.st.failed += plain.failed
	// Per-request layer times cover every trace of the traced half: the
	// requests and the backend calls they caused.
	for i := range sched {
		t.traced[1+i] = true
	}
	for _, tr := range t.book.snapshot() {
		if tr.Op > warmOps {
			t.traced[tr.Op] = true
		}
	}
	t.perOps = float64(len(sched))
	sendToDone := make([]float64, len(plain.lat))
	for i := range plain.lat {
		sendToDone[i] = plain.lat[i] - plain.lags[i]
	}
	t.plain["serve.request"] = sendToDone
	t.plain["serve.backend"] = calls

	return t.perLayer(o, func(res *result) {
		reqs := t.delta("serve.requests")
		res.set("serve.cache_hit_share", (t.delta("serve.cache_hits")+t.delta("serve.stale_hits"))/reqs, "share")
		res.set("serve.stale_share", t.delta("serve.stale_hits")/reqs, "share")
		res.set("serve.rejected_share", (t.delta("serve.rejected_429")+t.delta("serve.rejected_503"))/reqs, "share")
		res.set("serve.degraded_share", t.delta("serve.degraded")/reqs, "share")
		res.set("serve.backend_p50_ms", 1000*median(calls), "ms")
		res.set("serve.backend_p99_ms", 1000*quantile(calls, 0.99), "ms")
		res.set("serve.backend_calls", float64(len(calls)), "count")
		res.set("serve.revalidations", t.delta("serve.revalidations"), "count")
		res.set("serve.request_p99_ms", 1000*quantile(plain.lat, 0.99), "ms")
		res.set("load.lag_p99_ms", 1000*quantile(plain.lags, 0.99), "ms")
		res.set("load.backlog_end", float64(plain.backlog), "count")
	}), nil
}
