package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"distinct/internal/obs/trace"
)

// opTrace is one finished program trace and the operation it belongs to.
// Every call the benchmark makes into a layer gets a trace of its own,
// whose root span is named after the call; the engine's stage spans sit
// beneath it. Traces of one operation share Op; Op 0 is the set-up.
type opTrace struct {
	Op    int             `json:"op"`
	Start int64           `json:"start_ns"` // when the trace began, since the run began
	Root  *trace.SpanNode `json:"root"`
}

// traceBook keeps a traced run's finished traces in memory until the run
// ends. A nil book records nothing, so untraced runs share the traced code
// path at the cost of a nil check per call.
type traceBook struct {
	t0     time.Time
	mu     sync.Mutex
	traces []opTrace
}

func newTraceBook() *traceBook { return &traceBook{t0: time.Now()} }

// run calls f with a fresh trace whose root span is named name, and books
// the trace under op when f returns. On a nil book f gets a nil trace,
// which the engine and the trace package treat as tracing off.
func (b *traceBook) run(op int, name string, f func(tr *trace.Trace) error) error {
	if b == nil {
		return f(nil)
	}
	start := time.Since(b.t0)
	tr := trace.New(trace.Options{RootName: name})
	err := f(tr)
	tr.Finish()
	b.mu.Lock()
	b.traces = append(b.traces, opTrace{Op: op, Start: int64(start), Root: tr.Tree()})
	b.mu.Unlock()
	return err
}

// snapshot returns a copy of the traces booked so far.
func (b *traceBook) snapshot() []opTrace {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]opTrace(nil), b.traces...)
}

// stageLayer maps the engine's own stage span names to layers.
var stageLayer = map[string]string{
	"expand":        "reldb.expand",
	"enumerate":     "reldb.enumerate",
	"compile_plans": "reldb.compile_plans",
	"trainset":      "trainset.build",
	"features":      "sim.features",
	"prefetch":      "prop.prefetch",
	"train_svm":     "svm.train",
	"batch":         "core.batch",
	"blocks":        "core.blocks",
	"similarities":  "core.similarities",
	"path_sims":     "core.similarities",
	"cluster":       "cluster.agglomerate",
}

// layerOf names the layer a span's self time is charged to: the engine's
// stage names map through stageLayer, the per-name spans of a sweep are the
// batch ladder, and the benchmark's own root spans are named by layer
// already.
func layerOf(name string) string {
	if l, ok := stageLayer[name]; ok {
		return l
	}
	if strings.HasPrefix(name, trace.NameSpanPrefix) {
		return "core.ladder"
	}
	return name
}

// addSelfTimes adds the self time of n and of every span beneath it to
// per, by layer. A span's self time is its duration minus the part its
// children cover. Children of one span may overlap (a sweep's per-name
// spans run on several workers), so the covered part is the union of their
// intervals; summed over spans, self time is worker time.
func addSelfTimes(per map[string]time.Duration, n *trace.SpanNode) {
	kids := append([]*trace.SpanNode(nil), n.Children...)
	sort.Slice(kids, func(a, b int) bool { return kids[a].StartNs < kids[b].StartNs })
	end := n.StartNs + n.DurNs
	covered, reach := int64(0), n.StartNs
	for _, c := range kids {
		lo, hi := max(c.StartNs, reach), min(c.StartNs+c.DurNs, end)
		if hi > lo {
			covered += hi - lo
			reach = hi
		}
		addSelfTimes(per, c)
	}
	per[layerOf(n.Name)] += time.Duration(n.DurNs - covered)
}

// layerReport is a traced run's self time per layer: per operation for
// the layers its operations ran, and at set-up time for layers that ran
// only during set-up, such as dblp or, on a warm workload, reldb.
type layerReport struct {
	perOp map[string]float64 // seconds per operation
	setup map[string]float64 // seconds, set-up-only layers
}

// seconds returns a layer's per-operation time, else its set-up time.
func (lr layerReport) seconds(layer string) float64 {
	if s, ok := lr.perOp[layer]; ok {
		return s
	}
	return lr.setup[layer]
}

// layersOf sums the self time per layer of the traced operations (ops
// holds their ids) and divides it by n.
func layersOf(traces []opTrace, ops map[int]bool, n float64) layerReport {
	perOp, setup := make(map[string]time.Duration), make(map[string]time.Duration)
	for _, t := range traces {
		switch {
		case ops[t.Op]:
			addSelfTimes(perOp, t.Root)
		case t.Op == 0:
			addSelfTimes(setup, t.Root)
		}
	}
	lr := layerReport{perOp: make(map[string]float64), setup: make(map[string]float64)}
	for l, d := range perOp {
		lr.perOp[l] = d.Seconds() / n
	}
	for l, d := range setup {
		if _, ran := lr.perOp[l]; !ran {
			lr.setup[l] = d.Seconds()
		}
	}
	return lr
}

// writeSelfTable prints the self-time table of a traced run, largest
// first: per-operation layers with their share of the operation's worker
// time, then the set-up-only layers.
func writeSelfTable(w io.Writer, workload string, lr layerReport) {
	rows := func(m map[string]float64) []string {
		names := make([]string, 0, len(m))
		for l := range m {
			names = append(names, l)
		}
		sort.Slice(names, func(i, j int) bool { return m[names[i]] > m[names[j]] })
		return names
	}
	total := 0.0
	for _, s := range lr.perOp {
		total += s
	}
	fmt.Fprintf(w, "%s: self time per operation by layer (worker time)\n", workload)
	for _, l := range rows(lr.perOp) {
		fmt.Fprintf(w, "  %-22s %12.6f s  %5.1f%%\n", l, lr.perOp[l], 100*lr.perOp[l]/total)
	}
	fmt.Fprintf(w, "%s: layers that ran only in set-up\n", workload)
	for _, l := range rows(lr.setup) {
		fmt.Fprintf(w, "  %-22s %12.6f s\n", l, lr.setup[l])
	}
}

// writeSpans writes the run's traces as JSON to dir/<workload>-seed<n>.json.
func writeSpans(dir, workload string, seed int64, traces []opTrace) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	b, err := json.Marshal(traces)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
