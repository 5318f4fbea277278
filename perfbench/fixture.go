package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"distinct/internal/cluster"
	"distinct/internal/core"
	"distinct/internal/dblp"
	"distinct/internal/eval"
	"distinct/internal/obs"
	"distinct/internal/obs/trace"
	"distinct/internal/reldb"
	"distinct/internal/trainset"
)

// minRefs is the sweep's threshold: every name with at least two
// references is disambiguated, the "clean the whole database" job.
const minRefs = 2

// fixture is one set-up: a generated world and a trained engine whose
// neighborhood cache has been warmed by one full sweep.
type fixture struct {
	world  *dblp.World
	eng    *core.Engine
	names  int    // names with >= minRefs references
	refs   int    // references carried by those names
	digest string // group digest of the set-up sweep
}

// engineConfig is the paper's configuration, as the experiments harness
// and cmd/distinctd open it: supervised weights, the combined measure, the
// default min-sim, and a training set that excludes the evaluated names,
// sampled with the world's seed.
func engineConfig(w *dblp.World, reg *obs.Registry, tr *trace.Trace) core.Config {
	return core.Config{
		RefRelation: dblp.ReferenceRelation,
		RefAttr:     dblp.ReferenceAttr,
		SkipExpand:  []string{dblp.TitleAttr},
		Supervised:  true,
		Measure:     cluster.Combined,
		Train: trainset.Options{
			NumPositive: 1000,
			NumNegative: 1000,
			Exclude:     w.AmbiguousNames(),
			Seed:        w.Config.Seed,
		},
		Obs:   reg,
		Trace: tr,
	}
}

// open opens an engine over the world in a "core.open" trace; the
// engine's expand, enumerate and compile_plans stages land beneath it.
func open(ctx context.Context, book *traceBook, op int, w *dblp.World, reg *obs.Registry) (*core.Engine, error) {
	var eng *core.Engine
	err := book.run(op, "core.open", func(tr *trace.Trace) error {
		var err error
		eng, err = core.NewEngineCtx(ctx, w.DB, engineConfig(w, reg, tr))
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	eng.SetTrace(nil)
	return eng, nil
}

// train learns the engine's path weights in a "core.train" trace.
func train(ctx context.Context, book *traceBook, op int, eng *core.Engine) error {
	err := book.run(op, "core.train", func(tr *trace.Trace) error {
		eng.SetTrace(tr)
		defer eng.SetTrace(nil)
		_, err := eng.TrainCtx(ctx)
		return err
	})
	if err != nil {
		return fmt.Errorf("train: %w", err)
	}
	return nil
}

// sweep runs one whole-database pass in a "core.sweep" trace.
func sweep(ctx context.Context, book *traceBook, op int, eng *core.Engine) (*core.BatchResult, error) {
	var res *core.BatchResult
	err := book.run(op, "core.sweep", func(tr *trace.Trace) error {
		eng.SetTrace(tr)
		defer eng.SetTrace(nil)
		var err error
		res, err = eng.DisambiguateAllCtx(ctx, core.BatchOptions{MinRefs: minRefs})
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	return res, nil
}

// setUp generates the world and opens and trains an engine. With warm set
// it also runs one warm-up sweep, whose groups become the reference every
// later pass is checked against.
func setUp(ctx context.Context, o *options, book *traceBook, reg *obs.Registry, warm bool) (*fixture, error) {
	var w *dblp.World
	err := book.run(0, "dblp.generate", func(*trace.Trace) error {
		var err error
		w, err = dblp.Generate(o.world())
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	eng, err := open(ctx, book, 0, w, reg)
	if err != nil {
		return nil, err
	}
	if err := train(ctx, book, 0, eng); err != nil {
		return nil, err
	}
	fx := &fixture{world: w, eng: eng}
	for _, name := range eng.NamesWithRefs(minRefs) {
		fx.names++
		fx.refs += len(eng.RefsForName(name))
	}
	if !warm {
		return fx, nil
	}
	res, err := sweep(ctx, book, 0, eng)
	if err != nil {
		return nil, err
	}
	if len(res.Incidents) > 0 {
		return nil, fmt.Errorf("set-up sweep: %d incidents, first %+v", len(res.Incidents), res.Incidents[0])
	}
	fx.digest = sweepDigest(res)
	return fx, nil
}

// repeatSetUp runs build n times and returns the median of its wall
// times, so setup_s is a median rather than one sample. drop releases what
// the previous build made before the heap is collected and the clock
// starts; the caller keeps what the last build made.
func repeatSetUp(n int, drop func(), build func() error) (float64, error) {
	var times []float64
	for i := 0; i < n; i++ {
		drop()
		runtime.GC()
		t0 := time.Now()
		if err := build(); err != nil {
			return 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times), nil
}

// sweepDigest hashes a pass's output: the number of names examined, then
// every split name with its groups in the engine's order.
func sweepDigest(res *core.BatchResult) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d\n", res.NamesExamined)
	for _, ng := range res.Split {
		fmt.Fprintf(h, "%s:%v\n", ng.Name, ng.Groups)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// sweepF1 scores a pass against the generator's gold clusters: the mean
// pairwise F1 over the world's ambiguous names (Table 1 of the paper). A
// name the pass did not split is one group of all its references.
func sweepF1(w *dblp.World, eng *core.Engine, res *core.BatchResult) (float64, error) {
	split := make(map[string][][]reldb.TupleID, len(res.Split))
	for _, ng := range res.Split {
		split[ng.Name] = ng.Groups
	}
	return meanF1(w, eng, func(name string) ([][]reldb.TupleID, error) {
		if g, ok := split[name]; ok {
			return g, nil
		}
		return [][]reldb.TupleID{eng.RefsForName(name)}, nil
	})
}

// meanF1 averages pairwise F1 over the ambiguous names, taking each name's
// predicted groups (engine tuple IDs) from pred.
func meanF1(w *dblp.World, eng *core.Engine, pred func(name string) ([][]reldb.TupleID, error)) (float64, error) {
	names := w.AmbiguousNames()
	if len(names) == 0 {
		return 0, fmt.Errorf("world has no ambiguous names to score")
	}
	sum := 0.0
	for _, name := range names {
		var gold eval.Clustering
		for _, c := range w.GoldClusters(name) {
			gold = append(gold, eng.MapRefs(c))
		}
		groups, err := pred(name)
		if err != nil {
			return 0, err
		}
		m, err := eval.Evaluate(groups, gold)
		if err != nil {
			return 0, fmt.Errorf("scoring %q: %w", name, err)
		}
		sum += m.F1
	}
	return sum / float64(len(names)), nil
}

// goSample reads the runtime's cumulative allocation and GC CPU, and the
// process's CPU time.
type goSample struct {
	allocBytes, gcCPU, procCPU float64
}

var goMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readGo() goSample {
	s := make([]metrics.Sample, len(goMetricNames))
	for i, n := range goMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return goSample{
		allocBytes: float64(s[0].Value.Uint64()),
		gcCPU:      s[1].Value.Float64(),
		procCPU:    cpu.Seconds(),
	}
}

// goDelta accumulates allocation, GC CPU and process CPU over measured
// operations.
type goDelta struct {
	allocBytes, gcCPU, procCPU float64
}

func (d *goDelta) add(before, after goSample) {
	d.allocBytes += after.allocBytes - before.allocBytes
	d.gcCPU += after.gcCPU - before.gcCPU
	d.procCPU += after.procCPU - before.procCPU
}

// gcShare is the GC's share of the process's CPU time. The runtime credits
// GC CPU when a cycle ends, so over a window with no collection it is 0.
func (d goDelta) gcShare() float64 {
	if d.procCPU == 0 {
		return 0
	}
	return d.gcCPU / d.procCPU
}

// heapLiveMB returns the live heap in MB after forced collections. It
// collects until two readings 100 ms apart agree within 1%, at most 30
// times, so background work still finishing when the run ends (a serving
// revalidation, say) and objects kept in sync.Pools do not count.
func heapLiveMB() float64 {
	read := func() float64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc) / (1 << 20)
	}
	prev := read()
	for i := 0; i < 30; i++ {
		time.Sleep(100 * time.Millisecond)
		cur := read()
		if math.Abs(cur-prev) <= 0.01*prev {
			return cur
		}
		prev = cur
	}
	return prev
}
