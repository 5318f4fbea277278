// Command perfbench is the repository's benchmark. It generates a
// DBLP-shaped world from a seed, runs one workload against the DISTINCT
// engine for a fixed time, checks every output, and prints one JSON result
// line. Run it from the repository root:
//
//	bash perfbench/run.sh --workload sweep-warm --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// a separate traced run reports per-layer metrics. README.md lists the
// workloads, the metrics and which end-to-end metric each layer moves.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"

	"distinct/internal/dblp"
)

// options configures one run. The command line sets the first four
// fields; tests shrink the rest.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool

	world     func() dblp.Config // the generated world, the same for every seed
	setups    int                // set-ups per run; setup_s is their median
	serveRate float64            // serve-mixed arrivals per second
	bumpEvery time.Duration      // serve-mixed period between database bumps
	spanDir   string             // where traced runs write their spans ("" = nowhere)
	log       io.Writer          // human-readable progress and tables
}

func defaultOptions() options {
	return options{
		world:     dblp.DefaultConfig,
		setups:    3,
		serveRate: serveRate,
		bumpEvery: bumpEvery,
		spanDir:   ".bench_build/spans",
		log:       os.Stderr,
	}
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last output line. digest is the group digest every
// checked operation was compared against, kept for tests.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	digest string
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// workloads maps each workload name to its untraced and traced runs.
var workloads = map[string]struct {
	run, traced func(context.Context, *options) (*result, error)
}{
	"sweep-warm":    {runSweepWarm, traceSweepWarm},
	"pipeline-cold": {runPipelineCold, tracePipelineCold},
	"serve-mixed":   {runServeMixed, traceServeMixed},
}

func run(ctx context.Context, o *options) (*result, error) {
	w, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if o.trace {
		return w.traced(ctx, o)
	}
	return w.run(ctx, o)
}

func main() {
	o := defaultOptions()
	flag.StringVar(&o.workload, "workload", "", "sweep-warm, pipeline-cold or serve-mixed")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the serving traffic")
	flag.Float64Var(&o.seconds, "seconds", 25, "how long to measure")
	traceFlag := flag.Int("trace", 0, "1 for the traced per-layer run")
	flag.Parse()
	o.trace = *traceFlag == 1
	res, err := run(context.Background(), &o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// median returns the middle value (mean of the middle two), 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}
