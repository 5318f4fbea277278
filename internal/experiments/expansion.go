package experiments

import (
	"context"
	"fmt"
	"strings"

	"distinct/internal/cluster"
	"distinct/internal/core"
	"distinct/internal/dblp"
	"distinct/internal/eval"
	"distinct/internal/reldb"
	"distinct/internal/trainset"
)

// ExpansionRow is one configuration of the attribute-expansion ablation.
type ExpansionRow struct {
	Label    string
	NumPaths int
	Average  eval.Metrics
}

// ExpansionAblation ablates Section 2.1 of the paper: treating every
// distinct attribute value (publisher, year, location) as a tuple of a
// virtual relation, so value sharing becomes ordinary linkage. The
// "without" engines skip all expandable attributes, leaving only the
// structural joins (coauthors, venues). The ablation is run both
// supervised (trained path weights, fixed min-sim for the DISTINCT
// configuration) and unsupervised (uniform weights, per-configuration
// tuned min-sim, per the Figure 4 protocol) — the interesting contrast is
// unsupervised, where the expanded value paths inject noise that only the
// SVM weighting can neutralise.
func (h *Harness) ExpansionAblation() ([]ExpansionRow, error) {
	noExpand := []string{
		dblp.TitleAttr,
		"Proceedings.year", "Proceedings.location", "Conferences.publisher",
	}
	configs := []struct {
		label      string
		skip       []string
		supervised bool
	}{
		{label: "supervised, with expansion (DISTINCT)", skip: []string{dblp.TitleAttr}, supervised: true},
		{label: "supervised, without expansion", skip: noExpand, supervised: true},
		{label: "unsupervised, with expansion", skip: []string{dblp.TitleAttr}},
		{label: "unsupervised, without expansion", skip: noExpand},
	}
	var rows []ExpansionRow
	for _, cfg := range configs {
		engine, err := core.NewEngineCtx(context.Background(), h.World.DB, core.Config{
			RefRelation: dblp.ReferenceRelation,
			RefAttr:     dblp.ReferenceAttr,
			SkipExpand:  cfg.skip,
			Supervised:  cfg.supervised,
			Measure:     cluster.Combined,
			MinSim:      h.Opts.MinSim,
			Train: trainset.Options{
				NumPositive: h.Opts.TrainPositive,
				NumNegative: h.Opts.TrainNegative,
				Exclude:     h.World.AmbiguousNames(),
				Seed:        h.Opts.Seed,
			},
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: expansion ablation %q: %w", cfg.label, err)
		}
		if cfg.supervised {
			if _, err := engine.TrainCtx(context.Background()); err != nil {
				return nil, err
			}
		}
		// The weights are fixed per configuration, so each name's combined
		// similarities are computed once and every grid point below only
		// re-clusters them — the same groups the engine's blocked path
		// yields at a positive min-sim.
		names := h.World.AmbiguousNames()
		refs := make([][]reldb.TupleID, len(names))
		sims := make([]cluster.Matrix, len(names))
		gold := make([]eval.Clustering, len(names))
		for i, name := range names {
			refs[i] = engine.RefsForName(name)
			if sims[i], err = engine.SimilaritiesCtx(context.Background(), refs[i]); err != nil {
				return nil, err
			}
			for _, c := range h.World.GoldClusters(name) {
				gold[i] = append(gold[i], engine.MapRefs(c))
			}
		}
		evalAt := func(minSim float64) (eval.Metrics, error) {
			ms := make([]eval.Metrics, len(names))
			for i := range names {
				pred := core.ClusterMatrix(refs[i], sims[i], cluster.Combined, minSim)
				m, err := eval.Evaluate(eval.Clustering(pred), gold[i])
				if err != nil {
					return eval.Metrics{}, err
				}
				ms[i] = m
			}
			return eval.Average(ms), nil
		}
		// Fixed threshold for the DISTINCT configuration; per-config tuned
		// threshold elsewhere, matching the paper's Figure 4 protocol.
		var best eval.Metrics
		if cfg.supervised && len(cfg.skip) == 1 {
			if best, err = evalAt(h.Opts.MinSim); err != nil {
				return nil, err
			}
		} else {
			best.Accuracy = -1
			for _, ms := range h.Opts.MinSimGrid {
				avg, err := evalAt(ms)
				if err != nil {
					return nil, err
				}
				if avg.Accuracy > best.Accuracy {
					best = avg
				}
			}
		}
		rows = append(rows, ExpansionRow{
			Label:    cfg.label,
			NumPaths: len(engine.Paths()),
			Average:  best,
		})
	}
	return rows, nil
}

// FormatExpansion renders the ablation.
func FormatExpansion(rows []ExpansionRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-38s %7s %10s %8s %10s\n", "Configuration", "#paths", "precision", "recall", "f-measure")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-38s %7d %10.3f %8.3f %10.3f  %s\n",
			r.Label, r.NumPaths, r.Average.Precision, r.Average.Recall, r.Average.F1, bar(r.Average.F1))
	}
	return b.String()
}
