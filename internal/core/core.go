// Package core implements the DISTINCT methodology end to end (Yin, Han,
// Yu; ICDE 2007): given a relational database and a relation containing
// references that share names, it
//
//  1. expands attribute values into tuples (Section 2.1),
//  2. enumerates the join paths from the reference relation,
//  3. optionally learns one weight per join path for each of the two
//     similarity measures, using an SVM over an automatically constructed
//     training set (Section 3),
//  4. computes pairwise similarities between same-named references —
//     weighted set resemblance and weighted random walk probability — and
//  5. groups the references with agglomerative clustering under the
//     composite measure (Section 4).
//
// The package is the engine; the public façade for library users is the
// repository root package distinct.
package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"distinct/internal/cluster"
	"distinct/internal/fault"
	"distinct/internal/obs"
	"distinct/internal/obs/trace"
	"distinct/internal/reldb"
	"distinct/internal/sim"
	"distinct/internal/svm"
	"distinct/internal/trainset"
)

// Config tells the engine where the references live and how to process
// them. Zero-valued fields take the documented defaults.
type Config struct {
	// RefRelation and RefAttr locate the references to disambiguate, e.g.
	// Publish.author: RefAttr must be a foreign key to the relation keyed by
	// the shared names.
	RefRelation, RefAttr string

	// SkipExpand lists "Relation.attr" attributes excluded from
	// attribute-value expansion (free text such as paper titles).
	SkipExpand []string

	// MaxPathLen caps join-path length. Default 4.
	MaxPathLen int

	// Supervised selects SVM-learned join-path weights (the full DISTINCT);
	// when false every path gets the same weight, giving the unsupervised
	// variants of the paper's Figure 4.
	Supervised bool

	// Measure selects the cluster similarity measure. Default
	// cluster.Combined (DISTINCT's composite measure).
	Measure cluster.Measure

	// MinSim is the clustering stop threshold. The paper runs DISTINCT with
	// min-sim 0.0005 on its unnormalised learned weights; this engine
	// normalises path weights to sum 1, which shifts the similarity scale,
	// so the equivalent default here is DefaultMinSim.
	MinSim float64

	// Train configures automatic training-set construction.
	Train trainset.Options

	// SVM configures the linear SVM solver.
	SVM svm.Options

	// Workers bounds the goroutines used for feature extraction (the
	// dominant cost). 0 means GOMAXPROCS; 1 forces sequential execution.
	Workers int

	// Obs, when non-nil, receives per-stage spans (wall time, items,
	// allocations) and pipeline counters for the whole run: expansion,
	// path enumeration, training, similarity matrices, blocking, batch
	// disambiguation, and clustering. Nil (the default) costs nothing on
	// any hot path; see internal/obs and DESIGN.md §8 for the taxonomy.
	Obs *obs.Registry

	// Trace, when non-nil, records decision-level provenance under the obs
	// aggregates: every pipeline stage becomes a parented span in the
	// trace's tree, the clusterer emits one event per merge and a final cut
	// event, training emits one path_weight event per learned join-path
	// weight, and — when the trace was built with SamplePairEvery — the
	// similarity stage attaches Explain-style per-path breakdowns for a
	// deterministic sample of reference pairs. Nil (the default) costs a
	// nil check per stage; see internal/obs/trace and DESIGN.md §9.
	Trace *trace.Trace
}

// DefaultMinSim is the default clustering threshold. It plays the role of
// the paper's min-sim = 0.0005: the absolute value differs because this
// engine normalises the learned path weights to sum 1 (the paper's raw SVM
// weights are larger), which rescales all similarities by a constant.
const DefaultMinSim = 0.01

func (c Config) withDefaults() Config {
	if c.MaxPathLen <= 0 {
		c.MaxPathLen = 4
	}
	if c.MinSim == 0 {
		c.MinSim = DefaultMinSim
	}
	return c
}

// Timings records how long each pipeline stage took; the experiments
// harness reports them next to the paper's 62.1 s figure.
type Timings struct {
	Expand       time.Duration
	Enumerate    time.Duration
	CompilePlans time.Duration
	TrainSet     time.Duration
	Features     time.Duration
	TrainSVM     time.Duration
	TotalTrain   time.Duration
}

// TrainReport summarises a training run.
type TrainReport struct {
	NumPaths      int
	NumPositive   int
	NumNegative   int
	NumRareNames  int
	ResemAccuracy float64 // training accuracy of the resemblance model
	WalkAccuracy  float64
	ResemWeights  []float64 // per-path, clipped and normalised
	WalkWeights   []float64
	Timings       Timings
}

// Engine is a ready-to-use DISTINCT instance over one database.
type Engine struct {
	cfg   Config
	db    *reldb.Database // attribute-expanded
	idMap map[reldb.TupleID]reldb.TupleID
	paths []reldb.JoinPath
	ext   *sim.Extractor

	resemW []float64 // per-path weights, non-negative, sum 1
	walkW  []float64

	timings Timings
	obs     *obs.Registry // nil when observability is off
	tr      *trace.Trace  // nil when tracing is off
}

// root returns the trace's root span (nil when tracing is off), the default
// parent for stage spans opened outside a batch sweep.
func (e *Engine) root() *trace.Span { return e.tr.Root() }

// SetTrace attaches (or, with nil, detaches) a trace after construction, so
// a long-lived engine can record each batch run into its own trace. The
// construction-time stages (expand, enumerate) belong to whatever trace was
// set in Config at that point.
func (e *Engine) SetTrace(tr *trace.Trace) { e.tr = tr }

// NewEngineCtx expands the database, enumerates join paths, compiles their
// propagation plans, and installs uniform path weights (call TrainCtx to
// replace them with learned weights). The input database is not modified.
// The expand, enumerate and compile_plans stages observe cancellation at
// their boundaries and return the context's error wrapped with the stage
// name.
func NewEngineCtx(ctx context.Context, db *reldb.Database, cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	rs := db.Schema.Relation(cfg.RefRelation)
	if rs == nil {
		return nil, fmt.Errorf("core: unknown reference relation %q", cfg.RefRelation)
	}
	ai := rs.AttrIndex(cfg.RefAttr)
	if ai < 0 {
		return nil, fmt.Errorf("core: relation %q has no attribute %q", cfg.RefRelation, cfg.RefAttr)
	}
	if rs.Attrs[ai].FK == "" {
		return nil, fmt.Errorf("core: reference attribute %s.%s must be a foreign key to the name relation", cfg.RefRelation, cfg.RefAttr)
	}

	st, err := begin(ctx, cfg.Obs, cfg.Trace.Root(), "expand")
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	ex, idMap, err := reldb.ExpandAttributes(db, cfg.SkipExpand...)
	if err != nil {
		return nil, st.fail(fmt.Errorf("attribute expansion: %w", err))
	}
	st.end(ex.NumTuples(), trace.Int("tuples", int64(ex.NumTuples())))
	expandDur := time.Since(t0)

	if st, err = begin(ctx, cfg.Obs, cfg.Trace.Root(), "enumerate"); err != nil {
		return nil, err
	}
	t0 = time.Now()
	paths := reldb.EnumerateJoinPaths(ex.Schema, cfg.RefRelation, reldb.EnumerateOptions{
		MaxLen: cfg.MaxPathLen,
		ExcludeFirst: []reldb.Step{
			{Rel: cfg.RefRelation, Attr: cfg.RefAttr, Forward: true},
		},
	})
	st.end(len(paths), trace.Int("paths", int64(len(paths))))
	enumDur := time.Since(t0)
	if len(paths) == 0 {
		return nil, fmt.Errorf("core: no join paths from %s within length %d", cfg.RefRelation, cfg.MaxPathLen)
	}

	e := &Engine{
		cfg:   cfg,
		db:    ex,
		idMap: idMap,
		paths: paths,
		ext:   sim.NewExtractor(ex, paths),
		obs:   cfg.Obs,
		tr:    cfg.Trace,
	}
	e.ext.SetMetrics(cfg.Obs)
	e.ext.SetWorkers(cfg.Workers)
	e.obs.Gauge("engine.paths").Set(float64(len(paths)))
	e.timings.Expand = expandDur
	e.timings.Enumerate = enumDur

	// Compile the join paths into CSR plans now, so the one-off cost lands
	// in engine construction (and its own stage span) instead of inflating
	// the first propagation. Distinct hops compile in parallel under
	// Config.Workers; the plan is shared read-only by all workers.
	if st, err = begin(ctx, cfg.Obs, cfg.Trace.Root(), "compile_plans"); err != nil {
		return nil, err
	}
	t0 = time.Now()
	before := ex.HopCompiles()
	hops, edges, _ := e.ext.CompilePlansCtx(ctx)
	attrs := []trace.Attr{trace.Int("hops", int64(hops)), trace.Int("edges", int64(edges))}
	if ex.HopCompiles() == before {
		// Every hop plan came out of the database's shared cache — an engine
		// opened over an already-warm database compiles nothing.
		attrs = append(attrs, trace.Bool("reused", true))
	}
	st.end(hops, attrs...)
	e.timings.CompilePlans = time.Since(t0)
	e.obs.Counter("prop.csr_hops").Add(int64(hops))
	e.obs.Counter("prop.csr_edges").Add(int64(edges))
	// Wall time is a gauge like the other duration-valued observations:
	// counters are reserved for exactly reproducible item counts.
	e.obs.Gauge("prop.csr_compile_ms").Set(float64(e.timings.CompilePlans) / float64(time.Millisecond))

	e.SetUniformWeights()
	return e, nil
}

// DB returns the attribute-expanded database the engine works on.
func (e *Engine) DB() *reldb.Database { return e.db }

// Paths returns the enumerated join paths in weight order.
func (e *Engine) Paths() []reldb.JoinPath { return e.paths }

// Weights returns the current per-path weights (resemblance, walk).
func (e *Engine) Weights() (resem, walk []float64) {
	return append([]float64(nil), e.resemW...), append([]float64(nil), e.walkW...)
}

// Timings returns stage durations observed so far.
func (e *Engine) Timings() Timings { return e.timings }

// MapRef translates a tuple ID of the original (pre-expansion) database
// into the engine's database. IDs already belonging to the engine's
// database are the caller's responsibility; unknown IDs map to themselves
// only if present in the map, otherwise InvalidTuple.
func (e *Engine) MapRef(id reldb.TupleID) reldb.TupleID {
	if nid, ok := e.idMap[id]; ok {
		return nid
	}
	return reldb.InvalidTuple
}

// MapRefs translates a slice of original tuple IDs.
func (e *Engine) MapRefs(ids []reldb.TupleID) []reldb.TupleID {
	out := make([]reldb.TupleID, len(ids))
	for i, id := range ids {
		out[i] = e.MapRef(id)
	}
	return out
}

// SetUniformWeights installs equal weights on every join path; this is the
// "without supervised learning" configuration of Figure 4.
func (e *Engine) SetUniformWeights() {
	n := len(e.paths)
	e.resemW = make([]float64, n)
	e.walkW = make([]float64, n)
	for i := range e.resemW {
		e.resemW[i] = 1 / float64(n)
		e.walkW[i] = 1 / float64(n)
	}
}

// SetWeights installs explicit per-path weights (clipped at zero and
// normalised to sum 1). Mostly useful for tests and ablations. A NaN or
// infinite weight is an error and leaves the engine's weights unchanged.
func (e *Engine) SetWeights(resem, walk []float64) error {
	if len(resem) != len(e.paths) || len(walk) != len(e.paths) {
		return fmt.Errorf("core: weight vectors must have %d entries", len(e.paths))
	}
	rw, err := normalize(resem)
	if err != nil {
		return fmt.Errorf("core: resemblance weights: %w", err)
	}
	ww, err := normalize(walk)
	if err != nil {
		return fmt.Errorf("core: walk weights: %w", err)
	}
	e.resemW, e.walkW = rw, ww
	return nil
}

// normalize clips negatives to zero and scales to sum 1 (uniform if all
// weights vanish). A NaN or infinite weight is an error. The weights are
// summed after scaling by the power of two just above their maximum, so
// the sum cannot overflow; scaling by a power of two is exact, so finite
// weights whose plain sum does not overflow normalise to the same bits as
// w[i] / Σ w.
func normalize(w []float64) ([]float64, error) {
	top := 0.0
	for i, v := range w {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("weight %d is %v", i, v)
		}
		top = max(top, v)
	}
	out := make([]float64, len(w))
	if top == 0 {
		for i := range out {
			out[i] = 1 / float64(len(out))
		}
		return out, nil
	}
	_, exp := math.Frexp(top)
	scale := math.Ldexp(1, -exp)
	sum := 0.0
	for i, v := range w {
		if v > 0 {
			out[i] = v * scale
			sum += out[i]
		}
	}
	for i := range out {
		out[i] /= sum
	}
	return out, nil
}

// TrainCtx builds the automatic training set, learns SVM models for both
// similarity measures, and installs the learned path weights. If the
// engine's configuration is unsupervised, it still reports the would-be
// models but leaves uniform weights in place. Cancellation is observed at
// the trainset / features / train_svm stage boundaries, between feature
// extraction items, and between SVM optimisation passes, and returns the
// context's error wrapped with the stage name.
func (e *Engine) TrainCtx(ctx context.Context) (*TrainReport, error) {
	total := time.Now()
	st, err := begin(ctx, e.obs, e.root(), "trainset")
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	ts, err := trainset.Build(e.db, e.cfg.RefRelation, e.cfg.RefAttr, e.cfg.Train)
	if err != nil {
		return nil, st.fail(fmt.Errorf("training set: %w", err))
	}
	st.end(len(ts.Pairs),
		trace.Int("pairs", int64(len(ts.Pairs))),
		trace.Int("positive", int64(ts.NumPositive)),
		trace.Int("negative", int64(ts.NumNegative)))
	e.obs.Counter("trainset.positive").Add(int64(ts.NumPositive))
	e.obs.Counter("trainset.negative").Add(int64(ts.NumNegative))
	e.timings.TrainSet = time.Since(t0)

	if st, err = begin(ctx, e.obs, e.root(), "features", trace.Int("pairs", int64(len(ts.Pairs)))); err != nil {
		return nil, err
	}
	t0 = time.Now()
	refs := make([]reldb.TupleID, 0, 2*len(ts.Pairs))
	for _, p := range ts.Pairs {
		refs = append(refs, p.R1, p.R2)
	}
	if err := e.ext.PrefetchCtx(ctx, refs, e.cfg.Workers, st.tsp); err != nil {
		return nil, st.fail(stageErr("prefetch", err))
	}
	resemEx := make([]svm.Example, len(ts.Pairs))
	walkEx := make([]svm.Example, len(ts.Pairs))
	err = parallelForCtx(ctx, len(ts.Pairs), e.cfg.Workers, func(i int) error {
		p := ts.Pairs[i]
		resemEx[i] = svm.Example{X: e.ext.ResemVector(p.R1, p.R2), Y: p.Label}
		walkEx[i] = svm.Example{X: e.ext.WalkVector(p.R1, p.R2), Y: p.Label}
		return nil
	})
	if err != nil {
		return nil, st.fail(err)
	}
	st.end(len(ts.Pairs))
	e.timings.Features = time.Since(t0)

	// Per-path similarities span orders of magnitude; scale each feature to
	// [0,1] for training, then fold the scale factors back into the weights
	// so they apply to raw similarities at clustering time.
	if st, err = begin(ctx, e.obs, e.root(), "train_svm", trace.Int("paths", int64(len(e.paths)))); err != nil {
		return nil, err
	}
	t0 = time.Now()
	resemScaler := svm.FitScaler(resemEx)
	walkScaler := svm.FitScaler(walkEx)
	resemScaled := resemScaler.Transform(resemEx)
	walkScaled := walkScaler.Transform(walkEx)
	resemModel, err := svm.TrainDCDCtx(ctx, resemScaled, e.cfg.SVM)
	if err != nil {
		return nil, st.fail(fmt.Errorf("resemblance SVM: %w", err))
	}
	walkModel, err := svm.TrainDCDCtx(ctx, walkScaled, e.cfg.SVM)
	if err != nil {
		return nil, st.fail(fmt.Errorf("walk SVM: %w", err))
	}
	resemW, err := normalize(resemScaler.FoldWeights(resemModel.PositiveWeights()))
	if err != nil {
		return nil, st.fail(fmt.Errorf("resemblance weights: %w", err))
	}
	walkW, err := normalize(walkScaler.FoldWeights(walkModel.PositiveWeights()))
	if err != nil {
		return nil, st.fail(fmt.Errorf("walk weights: %w", err))
	}
	e.timings.TrainSVM = time.Since(t0)
	e.timings.TotalTrain = time.Since(total)

	rep := &TrainReport{
		NumPaths:      len(e.paths),
		NumPositive:   ts.NumPositive,
		NumNegative:   ts.NumNegative,
		NumRareNames:  len(ts.RareNames),
		ResemAccuracy: svm.Accuracy(resemModel, resemScaled),
		WalkAccuracy:  svm.Accuracy(walkModel, walkScaled),
		ResemWeights:  resemW,
		WalkWeights:   walkW,
		Timings:       e.timings,
	}
	e.obs.Gauge("svm.resem_accuracy").Set(rep.ResemAccuracy)
	e.obs.Gauge("svm.walk_accuracy").Set(rep.WalkAccuracy)
	if st.tsp != nil {
		// One event per learned path weight; the run report renders these
		// as the join-path weight table.
		for p := range e.paths {
			st.tsp.Event("path_weight",
				trace.String("path", e.paths[p].String()),
				trace.Float("resem_w", rep.ResemWeights[p]),
				trace.Float("walk_w", rep.WalkWeights[p]))
		}
	}
	st.end(2*len(ts.Pairs),
		trace.Float("resem_accuracy", rep.ResemAccuracy),
		trace.Float("walk_accuracy", rep.WalkAccuracy),
		trace.Bool("supervised", e.cfg.Supervised))
	if e.cfg.Supervised {
		e.resemW = rep.ResemWeights
		e.walkW = rep.WalkWeights
	}
	return rep, nil
}

// RefsForName returns the references carrying the given name, in the
// engine's (expanded) database.
func (e *Engine) RefsForName(name string) []reldb.TupleID {
	src := e.db.Referencing(e.cfg.RefRelation, e.cfg.RefAttr, name)
	return append([]reldb.TupleID(nil), src...)
}

// PathMatrices holds per-join-path pairwise similarities among a fixed
// reference list: R[p][i][j] is the set resemblance along path p between
// references i and j, W[p][i][j] the directed walk probability from i to j.
// They are the expensive part of disambiguation; computing them once lets
// callers re-combine them under many weightings (the Figure 4 variants and
// the min-sim sweeps) without re-propagating.
//
// Each matrix set is backed by one flat path-major row-major []float64
// (RFlat, WFlat; cell (p,i,j) lives at p·n² + i·n + j). R and W are row
// views sliced into the backing arrays, kept so indexing code and tests
// read naturally; writes through either form are visible in both.
type PathMatrices struct {
	R, W         [][][]float64
	RFlat, WFlat []float64
}

// NewPathMatrices allocates zeroed per-path n×n matrix pairs with flat
// backing arrays.
func NewPathMatrices(numPaths, n int) *PathMatrices {
	pm := &PathMatrices{
		R:     make([][][]float64, numPaths),
		W:     make([][][]float64, numPaths),
		RFlat: make([]float64, numPaths*n*n),
		WFlat: make([]float64, numPaths*n*n),
	}
	rows := make([][]float64, 2*numPaths*n) // all row headers in one block
	for p := 0; p < numPaths; p++ {
		pm.R[p], rows = rows[:n:n], rows[n:]
		pm.W[p], rows = rows[:n:n], rows[n:]
		for i := 0; i < n; i++ {
			off := p*n*n + i*n
			pm.R[p][i] = pm.RFlat[off : off+n : off+n]
			pm.W[p][i] = pm.WFlat[off : off+n : off+n]
		}
	}
	return pm
}

// NumRefs returns the number of references the matrices cover.
func (pm *PathMatrices) NumRefs() int {
	if len(pm.R) == 0 {
		return 0
	}
	return len(pm.R[0])
}

// PathSimilaritiesCtx computes the per-path similarity matrices among
// refs. Neighborhoods are prefetched and the pairwise rows computed in
// parallel under Config.Workers. Each row walks the posting lists of its
// reference's neighbor tuples (see sim.Postings), yielding for every pair
// that shares a tuple on a path its resemblance and both directed walk
// probabilities at once. Cancellation is observed at the stage boundary and
// between pairwise rows.
func (e *Engine) PathSimilaritiesCtx(ctx context.Context, refs []reldb.TupleID) (*PathMatrices, error) {
	n := len(refs)
	np := len(e.paths)
	pairs := n * (n - 1) / 2
	st, err := begin(ctx, e.obs, e.root(), "path_sims",
		trace.Int("refs", int64(n)), trace.Int("pairs", int64(pairs)))
	if err != nil {
		return nil, err
	}
	pm := NewPathMatrices(np, n)
	if err := e.ext.PrefetchCtx(ctx, refs, e.cfg.Workers, st.tsp); err != nil {
		return nil, st.fail(stageErr("prefetch", err))
	}
	s := e.ext.BatchScratch()
	defer e.ext.PutBatchScratch(s)
	post := s.Postings(e.ext.NeighborhoodsAll(refs, nil), nil)
	nn := n * n
	// Row i fills entries (i,j) and (j,i) for j > i: every matrix cell is
	// written by exactly one row worker, so rows can run concurrently. Per
	// path, the row walks the posting lists of i's neighbor tuples
	// (sim.BatchScratch.Row), bit-identical to per-pair PairKernel calls;
	// pairs sharing no tuple on the path keep their zero cells.
	err = parallelForCtx(ctx, n, e.cfg.Workers, func(i int) error {
		ws := e.ext.BatchScratch()
		defer e.ext.PutBatchScratch(ws)
		for slot, p := range post.Paths() {
			touched, out := ws.Row(post, slot, i)
			base := p * nn
			row := base + i*n
			for _, j := range touched {
				t, j := out[j], int(j)
				pm.RFlat[row+j], pm.RFlat[base+j*n+i] = t.Resem, t.Resem
				pm.WFlat[row+j] = t.WalkAB
				pm.WFlat[base+j*n+i] = t.WalkBA
			}
		}
		return nil
	})
	if err != nil {
		return nil, st.fail(err)
	}
	st.end(pairs)
	return pm, nil
}

// Combine folds per-path matrices into one similarity matrix under the
// given path weights (resemblance and walk weights respectively). It
// streams over the flat backing arrays row by row, splitting each row at
// the diagonal so the inner loops carry no i == j test.
func Combine(pm *PathMatrices, resemW, walkW []float64) cluster.Matrix {
	n := pm.NumRefs()
	m := cluster.NewMatrix(n)
	for p := range pm.R {
		rw, ww := resemW[p], walkW[p]
		if rw == 0 && ww == 0 {
			continue
		}
		base := p * n * n
		for i := 0; i < n; i++ {
			off := base + i*n
			srcR := pm.RFlat[off : off+n]
			srcW := pm.WFlat[off : off+n]
			dstR := m.R[i]
			dstW := m.W[i]
			for j := 0; j < i; j++ {
				dstR[j] += rw * srcR[j]
				dstW[j] += ww * srcW[j]
			}
			for j := i + 1; j < n; j++ {
				dstR[j] += rw * srcR[j]
				dstW[j] += ww * srcW[j]
			}
		}
	}
	return m
}

// SimilaritiesCtx computes the pairwise combined similarities among refs
// under the engine's current weights: R[i][j] is the weighted set
// resemblance, W[i][j] the weighted directed walk probability from i to j.
// Cancellation is observed at the stage boundary and between pairwise rows.
func (e *Engine) SimilaritiesCtx(ctx context.Context, refs []reldb.TupleID) (cluster.Matrix, error) {
	return e.similaritiesCtxAt(ctx, e.root(), refs, blockSet{})
}

// similaritiesCtxAt is SimilaritiesCtx with the stage span parented under
// parent. When the trace was built with SamplePairEvery, every Nth pair (by
// triangular pair index — deterministic, no RNG) gets a "pair" event with
// its Explain-style per-path breakdown attached to the stage span.
//
// When refs is one block of a name, set carries the name's postings from
// the blocks stage (see blocks.go) and the rows read them through its
// index remap; the zero set makes the stage index refs itself.
//
// Callers that re-combine one block under many weightings (the experiment
// sweeps) hold PathSimilaritiesCtx's matrices and fold them with Combine:
// the same floats, since both accumulate per-path contributions in
// ascending path order.
func (e *Engine) similaritiesCtxAt(ctx context.Context, parent *trace.Span, refs []reldb.TupleID, set blockSet) (cluster.Matrix, error) {
	n := len(refs)
	st, err := begin(ctx, e.obs, parent, "similarities",
		trace.Int("refs", int64(n)), trace.Int("pairs", int64(n*(n-1)/2)))
	if err != nil {
		return cluster.Matrix{}, err
	}

	m := cluster.NewMatrix(n)
	if err := e.ext.PrefetchCtx(ctx, refs, e.cfg.Workers, st.tsp); err != nil {
		return cluster.Matrix{}, st.fail(stageErr("prefetch", err))
	}
	// A block reads its name's postings and needs no neighborhoods, but
	// the lookup stays so sim.cache_hits counts every stage alike.
	nbs := e.ext.NeighborhoodsAll(refs, nil)
	post := set.post
	if post == nil {
		// Not a block of a larger name: index refs on their own.
		s := e.ext.BatchScratch()
		defer e.ext.PutBatchScratch(s)
		post = s.Postings(nbs, e.weighted)
	}
	// Resolved once per stage: the per-row injection point below costs
	// one nil check per row when fault injection is off.
	freg := fault.From(ctx)
	err = parallelForCtx(ctx, n, e.cfg.Workers, func(i int) error {
		if freg != nil {
			if err := freg.Fire(ctx, "core.similarities.row"); err != nil {
				return err
			}
		}
		ws := e.ext.BatchScratch()
		defer e.ext.PutBatchScratch(ws)
		rowR, rowW := m.R[i], m.W[i]
		// Per weighted path, one posting-list walk over the partners
		// sharing a tuple with i; contributions accumulate into the row
		// in ascending path order — the same order (and therefore the
		// same floats) as the per-pair loop this replaces.
		for slot, p := range post.Paths() {
			rw, ww := e.resemW[p], e.walkW[p]
			touched, out := ws.Row(post, slot, set.row(i))
			for _, g := range touched {
				t, j := out[g], set.local(g)
				rowR[j] += rw * t.Resem
				rowW[j] += ww * t.WalkAB
				m.W[j][i] += ww * t.WalkBA
			}
		}
		// Mirror the symmetric resemblance; each (j,i) cell below the
		// diagonal is written by exactly one row worker.
		for j := i + 1; j < n; j++ {
			m.R[j][i] = rowR[j]
		}
		return nil
	})
	if err != nil {
		return cluster.Matrix{}, st.fail(err)
	}
	if st.tsp != nil {
		if every := e.tr.SamplePairEvery(); every > 0 {
			e.samplePairs(st.tsp, refs, m, every)
		}
	}
	st.end(n * (n - 1) / 2)
	return m, nil
}

// samplePairs attaches "pair" events with Explain-style per-path breakdowns
// for every sampleEvery-th pair (by triangular pair index — a pure function
// of (i, j, n), so the sample is identical whatever the worker count) to
// the similarities stage span. The sampled pairs' per-path values are
// recomputed with the pair-at-a-time reference kernel: the sample is
// sparse, so the cost is negligible next to the batched fill, and the
// values are identical. The serial (i, j) walk emits events already in the
// order the old per-worker collection had to sort into.
func (e *Engine) samplePairs(tsp *trace.Span, refs []reldb.TupleID, m cluster.Matrix, sampleEvery int) {
	n := len(refs)
	nbs := e.ext.NeighborhoodsAll(refs, nil)
	var events []trace.Event
	for i := 0; i < n; i++ {
		// rowBase is the triangular index of pair (i, i+1); pair (i, j) has
		// index rowBase + (j - i - 1).
		rowBase := i*n - i*(i+1)/2
		for j := i + 1; j < n; j++ {
			if (rowBase+j-i-1)%sampleEvery != 0 {
				continue
			}
			var breakdown []byte
			for p := range e.paths {
				rw, ww := e.resemW[p], e.walkW[p]
				if rw == 0 && ww == 0 {
					continue
				}
				pr, pij, pji := sim.PairKernel(nbs[i][p], nbs[j][p])
				if pr != 0 || pij != 0 || pji != 0 {
					if len(breakdown) > 0 {
						breakdown = append(breakdown, " | "...)
					}
					breakdown = fmt.Appendf(breakdown, "%s: resem=%g walk=%g",
						e.paths[p].String(), rw*pr, ww*(pij+pji)/2)
				}
			}
			events = append(events, trace.Event{Name: "pair", Attrs: []trace.Attr{
				trace.Int("i", int64(i)), trace.Int("j", int64(j)),
				trace.Int("ref_i", int64(refs[i])), trace.Int("ref_j", int64(refs[j])),
				trace.Float("resem", m.R[i][j]),
				trace.Float("walk_ij", m.W[i][j]), trace.Float("walk_ji", m.W[j][i]),
				trace.String("paths", string(breakdown)),
			}})
		}
	}
	if len(events) > 0 {
		tsp.EventAll(events)
	}
}

// ClusterMatrix clusters n references given a precombined similarity matrix
// under the supplied measure and threshold; refs[i] corresponds to row i.
func ClusterMatrix(refs []reldb.TupleID, m cluster.Matrix, measure cluster.Measure, minSim float64) [][]reldb.TupleID {
	// A background context neither cancels nor injects faults, so the
	// clusterer cannot fail.
	idx, _ := cluster.AgglomerateCtx(context.Background(), len(refs), m, cluster.Options{Measure: measure, MinSim: minSim})
	return groupRefs(refs, idx)
}

// clusterRefsCtxAt is ClusterMatrix under the engine's own measure,
// threshold and observability registry, wrapped in a "cluster" stage span
// parented under parent, with cancellation observed between merge
// iterations; the clusterer receives the span and emits its merge and cut
// events there.
func (e *Engine) clusterRefsCtxAt(ctx context.Context, parent *trace.Span, refs []reldb.TupleID, m cluster.Matrix) ([][]reldb.TupleID, error) {
	st, err := begin(ctx, e.obs, parent, "cluster", trace.Int("refs", int64(len(refs))))
	if err != nil {
		return nil, err
	}
	idx, err := cluster.AgglomerateCtx(ctx, len(refs), m, cluster.Options{
		Measure: e.cfg.Measure, MinSim: e.cfg.MinSim, Obs: e.obs, Span: st.tsp,
	})
	if err != nil {
		return nil, st.fail(err)
	}
	st.end(len(refs), trace.Int("clusters", int64(len(idx))))
	return groupRefs(refs, idx), nil
}

// groupRefs maps clusters of row indexes back to reference IDs.
func groupRefs(refs []reldb.TupleID, idx [][]int) [][]reldb.TupleID {
	out := make([][]reldb.TupleID, len(idx))
	for i, c := range idx {
		out[i] = make([]reldb.TupleID, len(c))
		for j, x := range c {
			out[i][j] = refs[x]
		}
	}
	return out
}

// DisambiguateRefsCtx clusters the given references (expanded-database IDs)
// and returns groups of reference IDs, one group per inferred real object.
// Cancellation (and any injected fault) surfaces as an error wrapped with
// the stage that observed it.
func (e *Engine) DisambiguateRefsCtx(ctx context.Context, refs []reldb.TupleID) ([][]reldb.TupleID, error) {
	return e.disambiguateRefsCtxAt(ctx, e.root(), refs)
}

// disambiguateRefsCtxAt is DisambiguateRefsCtx with all stage spans
// parented under parent (a per-name span during batch sweeps, the root
// otherwise).
func (e *Engine) disambiguateRefsCtxAt(ctx context.Context, parent *trace.Span, refs []reldb.TupleID) ([][]reldb.TupleID, error) {
	if len(refs) == 0 {
		return nil, nil
	}
	// With a positive threshold, references in different shared-neighbor
	// components can never merge, so clustering per component is exact and
	// avoids the quadratic pairwise stage across components.
	if e.cfg.MinSim > 0 {
		return e.disambiguateBlockedCtxAt(ctx, parent, refs)
	}
	m, err := e.similaritiesCtxAt(ctx, parent, refs, blockSet{})
	if err != nil {
		return nil, err
	}
	return e.clusterRefsCtxAt(ctx, parent, refs, m)
}

// DisambiguateNameCtx clusters every reference carrying the name.
func (e *Engine) DisambiguateNameCtx(ctx context.Context, name string) ([][]reldb.TupleID, error) {
	refs := e.RefsForName(name)
	if len(refs) == 0 {
		return nil, fmt.Errorf("core: no references named %q", name)
	}
	return e.disambiguateRefsCtxAt(ctx, e.root(), refs)
}
