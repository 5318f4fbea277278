// Command distinctd serves DISTINCT disambiguation over HTTP: it loads (or
// generates) a world, trains the join-path weights once, and answers
//
//	GET  /v1/name/{name}        groups for one name
//	POST /v1/batch              {"names":[...]} -> per-name results
//	GET  /v1/names?min_refs=N   the name universe
//	GET  /healthz               200 while serving, 503 while draining
//	GET  /metrics, /debug/...   observability (never drain-gated)
//
// Requests for the same (name, database version) are coalesced into one
// engine computation; clean results are cached in a byte-bounded LRU keyed
// on the database version; a semaphore pool sheds overload as 429 with
// Retry-After. See DESIGN.md §13.
//
// SIGINT/SIGTERM start a graceful drain: /healthz flips to 503 (load
// balancers stop routing), in-flight requests finish, new ones are refused,
// and the listener shuts down — bounded by -drain-timeout.
//
// Usage:
//
//	distinctd -world world.json [-addr :8080]
//	distinctd -demo               # generate a synthetic world instead
//	          [-train N] [-seed S] [-unsupervised]
//	          [-cache-bytes B]    result- and 404-cache budget (0 default 16MiB, -1 off)
//	          [-concurrency N]    engine computation slots (0 = GOMAXPROCS)
//	          [-max-queue N]      admission queue depth (0 = 4x concurrency)
//	          [-name-timeout D]   per-request engine budget (degrade past it)
//	          [-drain-timeout D]  max time to wait for in-flight work at exit
//	          [-access-log]       structured access logs (sampled clean 200s)
//	          [-flight N]         flight-recorder ring size (/debug/requests)
//	          [-tail-slow D]      tail-sampling latency threshold
//	          [-tail-dir DIR]     per-request trace artifacts for the tail
//	          [-max-stale D]      stale-while-revalidate window (0 default 30s, -1s off)
//	          [-quota-rps R]      per-client token-bucket rate (0 disables quotas)
//	          [-quota-burst N]    per-client bucket capacity (0 = 2x rps, min 8)
//	          [-quota-concurrency N]  per-client in-flight cap (0 = unlimited)
//	          [-brownout]         load-shed ladder + retry budget (default on)
//	          [-admin-bump]       mount POST /debug/bump (overload drills only)
//
// Every response carries an X-Request-ID (client-echoed or minted) and, when
// the client sent a W3C traceparent, a traceparent reply with this server's
// span id. /debug/requests shows the flight recorder: the last N requests
// plus the K slowest and the recent errors, with trace artifact paths when
// -tail-dir is set. See DESIGN.md §14.
//
// Under overload the server degrades in order rather than falling off a
// cliff: stale-while-revalidate keeps hot names answering across version
// bumps, per-client quotas (keyed by X-Api-Key, else remote host) throttle
// hot clients with 429 before they can starve quiet ones, and the brownout
// ladder walks through forced-degraded computes, frozen revalidation, and
// finally 503 shedding of uncached lookups — recovering with hysteresis.
// /healthz?verbose=1 reports the ladder state; /debug/quotas the per-client
// table. See DESIGN.md §15.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"distinct"
	"distinct/internal/dataio"
	"distinct/internal/dblp"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "distinctd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr         = flag.String("addr", "localhost:8080", "listen address")
		worldPath    = flag.String("world", "", "world file written by dblpgen")
		demo         = flag.Bool("demo", false, "generate a synthetic demo world instead of loading one")
		trainN       = flag.Int("train", 300, "training pairs per class")
		seed         = flag.Int64("seed", 1, "training-set sampling seed")
		unsupervised = flag.Bool("unsupervised", false, "skip SVM weight learning")
		cacheBytes   = flag.Int64("cache-bytes", 0, "result-cache budget in bytes, shared by cached 404s (0 = 16MiB default, negative disables both)")
		concurrency  = flag.Int("concurrency", 0, "concurrent engine computations (0 = GOMAXPROCS)")
		maxQueue     = flag.Int("max-queue", 0, "admission queue depth before 429 (0 = 4x concurrency)")
		nameTimeout  = flag.Duration("name-timeout", 2*time.Second, "per-request engine budget; past it the answer degrades")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown bound for in-flight requests")
		renderAttr   = flag.String("render-attr", "paper-key", "reference attribute rendered into response groups")
		accessLog    = flag.Bool("access-log", false, "emit structured access logs to stderr (sampled on clean 200s)")
		accessSample = flag.Int("access-log-sample", 0, "log one clean fast 200 in N (0 = default 100, 1 = every request)")
		flightN      = flag.Int("flight", 0, "flight-recorder ring size at /debug/requests (0 = default 256, negative disables)")
		tailSlow     = flag.Duration("tail-slow", 0, "latency past which a request is tail-sampled (0 = default 500ms)")
		tailDir      = flag.String("tail-dir", "", "directory for tail-sampled per-request trace artifacts (empty disables)")
		sloTarget    = flag.Float64("slo-target", 0, "availability objective for the burn-rate gauge (0 = default 0.99)")
		batchFanout  = flag.Int("batch-fanout", 0, "concurrent lookups per batch request (0 = default 8, capped at concurrency)")
		maxStale     = flag.Duration("max-stale", 0, "stale-while-revalidate window after a version bump (0 = default 30s, negative disables)")
		quotaRPS     = flag.Float64("quota-rps", 0, "per-client token-bucket refill rate; 0 disables per-client quotas")
		quotaBurst   = flag.Int("quota-burst", 0, "per-client bucket capacity (0 = 2x quota-rps, min 8)")
		quotaConc    = flag.Int("quota-concurrency", 0, "per-client in-flight request cap (0 = unlimited)")
		brownout     = flag.Bool("brownout", true, "enable the brownout load-shed ladder and retry budget")
		adminBump    = flag.Bool("admin-bump", false, "mount POST /debug/bump (synthetic version bump for overload drills)")
	)
	flag.Parse()

	lg := slog.New(slog.NewTextHandler(os.Stderr, nil))

	var (
		db        *distinct.Database
		ambiguous []string
	)
	switch {
	case *worldPath != "":
		w, err := dataio.LoadWorldFile(*worldPath)
		if err != nil {
			return err
		}
		db = w.DB
		ambiguous = w.AmbiguousNames()
		lg.Info("world loaded", "path", *worldPath, "ambiguous_names", len(ambiguous))
	case *demo:
		cfg := dblp.DefaultConfig()
		cfg.Communities = 6
		cfg.AuthorsPerCommunity = 50
		w, err := dblp.Generate(cfg)
		if err != nil {
			return err
		}
		db = w.DB
		ambiguous = w.AmbiguousNames()
		lg.Info("demo world generated", "ambiguous_names", len(ambiguous))
	default:
		return fmt.Errorf("either -world or -demo is required")
	}

	// SIGINT/SIGTERM drive the graceful drain below; training also runs
	// under this context so a shutdown during startup aborts cleanly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	reg := distinct.NewMetrics()
	eng, err := distinct.OpenCtx(ctx, db, distinct.Config{
		RefRelation:  "Publish",
		RefAttr:      "author",
		SkipExpand:   []string{"Publications.title"},
		Unsupervised: *unsupervised,
		Train: distinct.TrainOptions{
			NumPositive: *trainN, NumNegative: *trainN,
			Exclude: ambiguous, Seed: *seed,
		},
		Metrics: reg,
	})
	if err != nil {
		return err
	}
	if !*unsupervised {
		t0 := time.Now()
		rep, err := eng.TrainCtx(ctx)
		if err != nil {
			return err
		}
		lg.Info("trained", "positive", rep.NumPositive, "negative", rep.NumNegative,
			"elapsed", time.Since(t0).Round(time.Millisecond))
	}

	if *tailDir != "" {
		if err := os.MkdirAll(*tailDir, 0o755); err != nil {
			return fmt.Errorf("tail-dir: %w", err)
		}
	}
	var accessLogger *slog.Logger
	if *accessLog {
		accessLogger = lg
	}
	api, err := distinct.NewAPIServer(distinct.APIOptions{
		Backend:          eng.APIBackend(*renderAttr),
		Obs:              reg,
		CacheBytes:       *cacheBytes,
		Concurrency:      *concurrency,
		MaxQueue:         *maxQueue,
		NameTimeout:      *nameTimeout,
		FlightRecords:    *flightN,
		TailSlow:         *tailSlow,
		TailDir:          *tailDir,
		AccessLog:        accessLogger,
		AccessLogSample:  *accessSample,
		SLOTarget:        *sloTarget,
		BatchFanout:      *batchFanout,
		MaxStale:         *maxStale,
		QuotaRPS:         *quotaRPS,
		QuotaBurst:       *quotaBurst,
		QuotaConcurrency: *quotaConc,
		Brownout:         *brownout,
		AllowBump:        *adminBump,
	})
	if err != nil {
		return err
	}
	defer api.Close()

	srv, err := distinct.ServeAPI(*addr, api)
	if err != nil {
		return err
	}
	lg.Info("serving", "addr", srv.Addr(),
		"cache_bytes", *cacheBytes, "concurrency", *concurrency, "name_timeout", *nameTimeout,
		"max_stale", *maxStale, "quota_rps", *quotaRPS, "brownout", *brownout)

	<-ctx.Done()
	stop() // a second signal now kills the process the default way

	// Drain: flip /healthz to 503, refuse new /v1 work, wait for in-flight
	// requests, then close the listener. Both phases share one deadline.
	lg.Info("draining", "timeout", *drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := api.Drain(dctx); err != nil {
		lg.Warn("drain incomplete", "err", err)
	}
	if err := srv.Shutdown(dctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	lg.Info("stopped")
	return nil
}
