package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"distinct/internal/core"
	"distinct/internal/obs"
	"distinct/internal/obs/trace"
)

// Latency limits for slo_share: about 1.5 times the median operation time
// of ten-seed runs on the machine README.md names (1.10 s and 1.17 s per
// pass, 1.99 s and 2.15 s per pipeline). A pass or pipeline over its limit
// counts as a miss, like a failed one, so the share falls as operations
// slow down.
const (
	sweepLimit    = 1700 * time.Millisecond
	pipelineLimit = 3100 * time.Millisecond
)

// traceBound is the largest gap, as a share, allowed between a traced
// phase and the same phase untraced before the replay is flagged. It
// equals the op_p50_ms bound in BENCHMARK.json.
const traceBound = 0.25

// opStats collects the measured operations of a run.
type opStats struct {
	lat       []float64 // seconds per operation, failed ones included
	window    float64   // seconds from the first operation's start to the last one's end
	attempted int
	failed    int
	within    int // correct operations within the latency limit
	f1        float64
	scored    bool
}

func (st *opStats) record(d time.Duration, ok bool, limit time.Duration) {
	st.attempted++
	st.lat = append(st.lat, d.Seconds())
	if !ok {
		st.failed++
		return
	}
	if d <= limit {
		st.within++
	}
}

// endToEnd fills in the end-to-end metrics every workload reports.
func (st *opStats) endToEnd(setup float64) *result {
	res := &result{Attempted: st.attempted, Failed: st.failed, Correct: st.failed == 0 && st.scored}
	res.set("setup_s", setup, "s")
	res.set("op_p50_ms", 1000*median(st.lat), "ms")
	res.set("ops_per_s", float64(st.attempted-st.failed)/st.window, "1/s")
	res.set("slo_share", float64(st.within)/float64(st.attempted), "share")
	res.set("pairwise_f1", st.f1, "share")
	res.set("heap_live_mb", heapLiveMB(), "MB")
	return res
}

// measureFor runs op(0), op(1), ... until the run's time is up, and at
// least atLeast times. It returns the seconds the operations took from the
// first start to the last end; an error from op ends the run.
func measureFor(seconds float64, atLeast int, op func(i int) error) (float64, error) {
	start := time.Now()
	end := start.Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; i < atLeast || time.Now().Before(end); i++ {
		if err := op(i); err != nil {
			return 0, err
		}
	}
	return time.Since(start).Seconds(), nil
}

// checkSweep reports whether a pass gave exactly the set-up's groups with
// no incident.
func checkSweep(fx *fixture, res *core.BatchResult, err error) bool {
	return err == nil && len(res.Incidents) == 0 && sweepDigest(res) == fx.digest
}

// score sets the run's pairwise F1 from its first correct pass.
func (st *opStats) score(fx *fixture, eng *core.Engine, res *core.BatchResult) error {
	if st.scored {
		return nil
	}
	f1, err := sweepF1(fx.world, eng, res)
	if err != nil {
		return err
	}
	st.f1, st.scored = f1, true
	return nil
}

// ---- sweep-warm: repeated whole-database passes on one warm engine ----

func runSweepWarm(ctx context.Context, o *options) (*result, error) {
	var fx *fixture
	setup, err := repeatSetUp(o.setups, func() { fx = nil }, func() error {
		var err error
		fx, err = setUp(ctx, o, nil, nil, true)
		return err
	})
	if err != nil {
		return nil, err
	}
	st, err := measureSweeps(ctx, o, fx)
	if err != nil {
		return nil, err
	}
	res := st.endToEnd(setup)
	res.digest = fx.digest
	logSize(o, fx, st)
	return res, nil
}

// logSize states the input size the run's figures hold at, and how the
// operation times spread.
func logSize(o *options, fx *fixture, st *opStats) {
	fmt.Fprintf(o.log, "%s: %d references in %d names with at least %d references; %d operations, p50 %.3f s, p90 %.3f s, max %.3f s\n",
		o.workload, fx.refs, fx.names, minRefs, len(st.lat), median(st.lat), quantile(st.lat, 0.9), quantile(st.lat, 1))
}

// measureSweeps times warm passes over the fixture's engine.
func measureSweeps(ctx context.Context, o *options, fx *fixture) (*opStats, error) {
	st := &opStats{}
	var err error
	st.window, err = measureFor(o.seconds, 1, func(int) error {
		t0 := time.Now()
		res, err := sweep(ctx, nil, 0, fx.eng)
		d := time.Since(t0)
		ok := checkSweep(fx, res, err)
		st.record(d, ok, sweepLimit)
		if ok {
			return st.score(fx, fx.eng, res)
		}
		return nil
	})
	return st, err
}

// ---- pipeline-cold: generated database to groups, from scratch ----

func runPipelineCold(ctx context.Context, o *options) (*result, error) {
	var fx *fixture
	setup, err := repeatSetUp(o.setups, func() { fx = nil }, func() error {
		var err error
		fx, err = setUp(ctx, o, nil, nil, true)
		return err
	})
	if err != nil {
		return nil, err
	}
	// Only the world is needed from here on; each operation builds its own
	// engine. The last one stays live, so heap_live_mb is the heap of a
	// freshly built and swept engine.
	fx.eng = nil
	var last *core.Engine
	st := &opStats{}
	st.window, err = measureFor(o.seconds, 1, func(int) error {
		t0 := time.Now()
		eng, res, err := pipeline(ctx, nil, 0, fx, nil, nil)
		d := time.Since(t0)
		last = eng
		ok := checkSweep(fx, res, err)
		st.record(d, ok, pipelineLimit)
		if ok {
			return st.score(fx, eng, res)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := st.endToEnd(setup)
	runtime.KeepAlive(last)
	res.digest = fx.digest
	logSize(o, fx, st)
	return res, nil
}

// pipeline is one pipeline-cold operation: open, train and one cold pass.
// phase, when non-nil, receives each phase's wall time.
func pipeline(ctx context.Context, book *traceBook, op int, fx *fixture, reg *obs.Registry, phase func(string, time.Duration)) (*core.Engine, *core.BatchResult, error) {
	if phase == nil {
		phase = func(string, time.Duration) {}
	}
	t0 := time.Now()
	eng, err := open(ctx, book, op, fx.world, reg)
	if err != nil {
		return nil, nil, err
	}
	phase("core.open", time.Since(t0))
	t0 = time.Now()
	if err := train(ctx, book, op, eng); err != nil {
		return nil, nil, err
	}
	phase("core.train", time.Since(t0))
	t0 = time.Now()
	res, err := sweep(ctx, book, op, eng)
	phase("core.sweep", time.Since(t0))
	return eng, res, err
}

// ---- traced runs ----

// tracedRun is the state of a traced run: its trace book and registry,
// the untraced and traced phase times it compares, and the traced op ids.
type tracedRun struct {
	book      *traceBook
	reg       *obs.Registry
	plain     map[string][]float64 // phase -> untraced seconds
	traced    map[int]bool         // ids of traced operations
	plainOps  []float64            // untraced operation seconds
	tracedOps []float64            // traced operation seconds
	base, end map[string]int64     // counter values when measurement began and ended
	ops       int                  // operations measured, traced or not
	perOps    float64              // what per-layer times divide by; 0 = len(traced)
	goUse     goDelta              // runtime use of the untraced operations
	st        opStats
}

func newTracedRun() *tracedRun {
	return &tracedRun{book: newTraceBook(), reg: obs.NewRegistry(), plain: make(map[string][]float64), traced: make(map[int]bool)}
}

// counterNames are the program's registry counters the traced run reads.
var counterNames = []string{
	"prop.csr_edges", "sim.prefetch_propagated", "blocks.pairs_kept", "blocks.pairs_naive",
	"cluster.merges", "cluster.heap_stale_pops",
	"serve.requests", "serve.cache_hits", "serve.stale_hits", "serve.rejected_429",
	"serve.rejected_503", "serve.revalidations", "serve.degraded",
}

func (t *tracedRun) counters() map[string]int64 {
	m := make(map[string]int64, len(counterNames))
	for _, n := range counterNames {
		m[n] = t.reg.Counter(n).Value()
	}
	return m
}

// begin and finish mark the start and end of measurement.
func (t *tracedRun) begin()  { t.base = t.counters() }
func (t *tracedRun) finish() { t.end = t.counters() }

// delta is a counter's increase during measurement.
func (t *tracedRun) delta(name string) float64 { return float64(t.end[name] - t.base[name]) }

// perOp is a counter's increase during measurement, per operation.
func (t *tracedRun) perOp(name string) float64 { return t.delta(name) / float64(t.ops) }

// ratio is the increase of num over that of den during measurement.
func (t *tracedRun) ratio(num, den string) float64 {
	if t.delta(den) == 0 {
		return 0
	}
	return t.delta(num) / t.delta(den)
}

// alternate runs untraced and traced operations in turn until the run's
// time is up. plainOp times its own phases through the callback; tracedOp
// books its traces under the given operation id.
func (t *tracedRun) alternate(seconds float64, plainOp func(phase func(string, time.Duration)) error, tracedOp func(op int) error) error {
	var err error
	t.st.window, err = measureFor(seconds, 2, func(i int) error {
		t.ops++
		if i%2 == 0 {
			g0 := readGo()
			t0 := time.Now()
			err := plainOp(func(p string, d time.Duration) { t.plain[p] = append(t.plain[p], d.Seconds()) })
			t.plainOps = append(t.plainOps, time.Since(t0).Seconds())
			t.goUse.add(g0, readGo())
			return err
		}
		op := i
		t0 := time.Now()
		err := tracedOp(op)
		t.tracedOps = append(t.tracedOps, time.Since(t0).Seconds())
		t.traced[op] = true
		return err
	})
	t.finish()
	return err
}

// flagPhases compares each phase's traced and untraced median and reports
// the phases, with the layers beneath them, that differ by more than
// traceBound. A phase is the root span of a traced operation's trace.
func (t *tracedRun) flagPhases(o *options, traces []opTrace) {
	durs := make(map[string][]float64)
	layers := make(map[string]map[string]bool)
	var below func(p string, n *trace.SpanNode)
	below = func(p string, n *trace.SpanNode) {
		for _, c := range n.Children {
			layers[p][layerOf(c.Name)] = true
			below(p, c)
		}
	}
	for _, tr := range traces {
		p := tr.Root.Name
		if _, isPhase := t.plain[p]; !isPhase || !t.traced[tr.Op] {
			continue
		}
		durs[p] = append(durs[p], time.Duration(tr.Root.DurNs).Seconds())
		if layers[p] == nil {
			layers[p] = map[string]bool{}
		}
		below(p, tr.Root)
	}
	for p, plain := range t.plain {
		a, b := median(durs[p]), median(plain)
		if b == 0 {
			continue
		}
		gap := a/b - 1
		status := "ok"
		if gap > traceBound || gap < -traceBound {
			status = "FLAGGED"
		}
		var ls []string
		for l := range layers[p] {
			ls = append(ls, l)
		}
		sort.Strings(ls)
		fmt.Fprintf(o.log, "replay %s: %s traced %.4f s vs untraced %.4f s (%+.1f%%), layers %v\n",
			status, p, a, b, 100*gap, ls)
	}
}

// perLayer reports the per-layer metrics of a traced run. Layers absent
// from a workload report 0.
func (t *tracedRun) perLayer(o *options, setup func(*result)) *result {
	traces := t.book.snapshot()
	n := t.perOps
	if n == 0 {
		n = float64(len(t.traced))
	}
	layers := layersOf(traces, t.traced, n)
	writeSelfTable(o.log, o.workload, layers)
	t.flagPhases(o, traces)
	if err := writeSpans(o.spanDir, o.workload, o.seed, traces); err != nil {
		fmt.Fprintln(o.log, "writing spans:", err)
	}
	res := &result{Attempted: t.st.attempted, Failed: t.st.failed, Correct: t.st.failed == 0 && t.st.scored}
	for _, m := range []struct{ metric, layer string }{
		{"dblp.generate_s", "dblp.generate"},
		{"reldb.expand_s", "reldb.expand"},
		{"reldb.compile_plans_s", "reldb.compile_plans"},
		{"prop.prefetch_s", "prop.prefetch"},
		{"trainset.build_s", "trainset.build"},
		{"sim.features_s", "sim.features"},
		{"svm.train_s", "svm.train"},
		{"core.similarities_s", "core.similarities"},
		{"cluster.agglomerate_s", "cluster.agglomerate"},
	} {
		res.set(m.metric, layers.seconds(m.layer), "s")
	}
	res.set("reldb.csr_edges", t.perOp("prop.csr_edges"), "count")
	res.set("prop.refs_propagated", t.perOp("sim.prefetch_propagated"), "count")
	res.set("core.pairs", t.perOp("blocks.pairs_kept"), "count")
	res.set("core.blocks_kept_share", t.ratio("blocks.pairs_kept", "blocks.pairs_naive"), "share")
	res.set("cluster.merges", t.perOp("cluster.merges"), "count")
	res.set("cluster.heap_stale_pops", t.perOp("cluster.heap_stale_pops"), "count")
	plainOps := float64(len(t.plainOps))
	res.set("go.alloc_mb", t.goUse.allocBytes/plainOps/(1<<20), "MB")
	res.set("go.gc_cpu_share", t.goUse.gcShare(), "share")
	res.set("trace.overhead_share", median(t.tracedOps)/median(t.plainOps)-1, "share")
	for _, n := range []string{
		"serve.cache_hit_share", "serve.stale_share", "serve.rejected_share", "serve.degraded_share",
		"serve.backend_p50_ms", "serve.backend_p99_ms", "serve.backend_calls",
		"serve.revalidations", "serve.request_p99_ms", "load.lag_p99_ms", "load.backlog_end",
	} {
		res.set(n, 0, perLayerUnit[n])
	}
	if setup != nil {
		setup(res)
	}
	return res
}

// perLayerUnit gives the unit of each serving-side per-layer metric.
var perLayerUnit = map[string]string{
	"serve.cache_hit_share": "share",
	"serve.stale_share":     "share",
	"serve.rejected_share":  "share",
	"serve.degraded_share":  "share",
	"serve.backend_p50_ms":  "ms",
	"serve.backend_p99_ms":  "ms",
	"serve.backend_calls":   "count",
	"serve.revalidations":   "count",
	"serve.request_p99_ms":  "ms",
	"load.lag_p99_ms":       "ms",
	"load.backlog_end":      "count",
}

func traceSweepWarm(ctx context.Context, o *options) (*result, error) {
	t := newTracedRun()
	fx, err := setUp(ctx, o, t.book, t.reg, true)
	if err != nil {
		return nil, err
	}
	t.begin()
	check := func(res *core.BatchResult, err error, d time.Duration) error {
		ok := checkSweep(fx, res, err)
		t.st.record(d, ok, sweepLimit)
		if ok {
			return t.st.score(fx, fx.eng, res)
		}
		return nil
	}
	err = t.alternate(o.seconds,
		func(phase func(string, time.Duration)) error {
			t0 := time.Now()
			res, err := sweep(ctx, nil, 0, fx.eng)
			phase("core.sweep", time.Since(t0))
			return check(res, err, time.Since(t0))
		},
		func(op int) error {
			t0 := time.Now()
			res, err := sweep(ctx, t.book, op, fx.eng)
			return check(res, err, time.Since(t0))
		})
	if err != nil {
		return nil, err
	}
	res := t.perLayer(o, nil)
	res.digest = fx.digest
	return res, nil
}

func tracePipelineCold(ctx context.Context, o *options) (*result, error) {
	t := newTracedRun()
	fx, err := setUp(ctx, o, t.book, t.reg, true)
	if err != nil {
		return nil, err
	}
	fx.eng = nil
	t.begin()
	check := func(eng *core.Engine, res *core.BatchResult, err error, d time.Duration) error {
		ok := checkSweep(fx, res, err)
		t.st.record(d, ok, pipelineLimit)
		if ok {
			return t.st.score(fx, eng, res)
		}
		return nil
	}
	err = t.alternate(o.seconds,
		func(phase func(string, time.Duration)) error {
			t0 := time.Now()
			eng, res, err := pipeline(ctx, nil, 0, fx, t.reg, phase)
			return check(eng, res, err, time.Since(t0))
		},
		func(op int) error {
			t0 := time.Now()
			eng, res, err := pipeline(ctx, t.book, op, fx, t.reg, nil)
			return check(eng, res, err, time.Since(t0))
		})
	if err != nil {
		return nil, err
	}
	res := t.perLayer(o, nil)
	res.digest = fx.digest
	return res, nil
}
