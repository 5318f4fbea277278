package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"distinct/internal/fault"
	"distinct/internal/obs"
	"distinct/internal/obs/trace"
	"distinct/internal/reldb"
)

// collidingDB is a database whose attribute expansion fails: a relation
// already carries the name expansion gives the virtual value relation of
// Publish.venue.
func collidingDB(t *testing.T) *reldb.Database {
	t.Helper()
	names, err := reldb.NewRelationSchema("Names", reldb.Attribute{Name: "name", Key: true})
	if err != nil {
		t.Fatal(err)
	}
	publish, err := reldb.NewRelationSchema("Publish",
		reldb.Attribute{Name: "id", Key: true},
		reldb.Attribute{Name: "author", FK: "Names"},
		reldb.Attribute{Name: "venue"})
	if err != nil {
		t.Fatal(err)
	}
	clash, err := reldb.NewRelationSchema(reldb.ValueRelationName("Publish", "venue"),
		reldb.Attribute{Name: "value", Key: true})
	if err != nil {
		t.Fatal(err)
	}
	schema, err := reldb.NewSchema(names, publish, clash)
	if err != nil {
		t.Fatal(err)
	}
	return reldb.NewDatabase(schema)
}

// spanDurations collects every span's exported duration by id.
func spanDurations(n *trace.SpanNode, out map[int]int64) map[int]int64 {
	out[n.ID] = n.DurNs
	for _, c := range n.Children {
		spanDurations(c, out)
	}
	return out
}

// TestFailedStagesCloseTheirSpans: a stage that fails after opening ends
// both of its spans. An unended trace span exports with its duration
// running up to export time, so two exports 10 ms apart must agree on
// every span, and each failed stage records one obs span with zero items.
func TestFailedStagesCloseTheirSpans(t *testing.T) {
	tr := trace.New(trace.Options{})
	expandReg, trainReg := obs.NewRegistry(), obs.NewRegistry()

	_, err := NewEngineCtx(context.Background(), collidingDB(t), Config{
		RefRelation: "Publish", RefAttr: "author", Obs: expandReg, Trace: tr,
	})
	var se *StageError
	if !errors.As(err, &se) || se.Stage != "expand" {
		t.Fatalf("expansion error = %v, want a StageError from expand", err)
	}

	w := testWorld(t)
	cfg := engineConfig(w, true)
	cfg.Train.MinRefs = 1 << 20
	cfg.Obs, cfg.Trace = trainReg, tr
	e, err := NewEngineCtx(context.Background(), w.DB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.TrainCtx(context.Background()); !errors.As(err, &se) || se.Stage != "trainset" {
		t.Fatalf("training error = %v, want a StageError from trainset", err)
	}

	tr.Finish()
	first := spanDurations(tr.Tree(), map[int]int64{})
	time.Sleep(10 * time.Millisecond)
	second := spanDurations(tr.Tree(), map[int]int64{})
	for id, d := range first {
		if second[id] != d {
			t.Errorf("span %d: duration %d ns, then %d ns in a later export (left open)", id, d, second[id])
		}
	}
	for reg, name := range map[*obs.Registry]string{expandReg: "expand", trainReg: "trainset"} {
		if st := reg.Snapshot().Stages[name]; st.Count != 1 || st.Items != 0 {
			t.Errorf("failed %s stage recorded count=%d items=%d, want one span with 0 items",
				name, st.Count, st.Items)
		}
	}
}

// TestFailedStageRecordsZeroItems: whichever stage fails, its obs span
// records its wall time with 0 items, and the returned error names the
// stage that observed the failure. A failed boundary (compile_plans here)
// opens no span at all.
func TestFailedStageRecordsZeroItems(t *testing.T) {
	w := testWorld(t)
	cases := []struct {
		name      string
		point     string // fault point whose first hit returns an error
		run       func(ctx context.Context, e *Engine) error
		wantErr   string // stage the returned StageError names
		stage     string // obs stage that must show one failed span
		wantSpans int64
	}{
		{
			name: "prefetch in features", point: "sim.prefetch",
			run: func(ctx context.Context, e *Engine) error {
				_, err := e.TrainCtx(ctx)
				return err
			},
			wantErr: "prefetch", stage: "features", wantSpans: 1,
		},
		{
			name: "prefetch in blocks", point: "sim.prefetch",
			run: func(ctx context.Context, e *Engine) error {
				_, err := e.DisambiguateNameCtx(ctx, "Wei Wang")
				return err
			},
			wantErr: "prefetch", stage: "blocks", wantSpans: 1,
		},
		{
			name: "similarities row", point: "core.similarities.row",
			run: func(ctx context.Context, e *Engine) error {
				e.SetMinSim(0) // one unblocked similarities stage
				_, err := e.DisambiguateNameCtx(ctx, "Wei Wang")
				return err
			},
			wantErr: "similarities", stage: "similarities", wantSpans: 1,
		},
		{
			name: "cluster merge", point: "cluster.merge",
			run: func(ctx context.Context, e *Engine) error {
				e.SetMinSim(0) // one unblocked cluster stage
				_, err := e.DisambiguateNameCtx(ctx, "Wei Wang")
				return err
			},
			wantErr: "cluster", stage: "cluster", wantSpans: 1,
		},
		{
			name: "compile_plans boundary", point: "core.compile_plans",
			wantErr: "compile_plans", stage: "compile_plans", wantSpans: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := fault.NewRegistry(1)
			f.Set(tc.point, fault.Rule{OnHit: 1, Err: fault.ErrInjected})
			ctx := fault.With(context.Background(), f)
			reg := obs.NewRegistry()
			cfg := engineConfig(w, true)
			cfg.Workers = 1
			cfg.Obs = reg
			e, err := NewEngineCtx(ctx, w.DB, cfg)
			if err == nil && tc.run != nil {
				err = tc.run(ctx, e)
			}
			var se *StageError
			if !errors.As(err, &se) || se.Stage != tc.wantErr || !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("err = %v, want the injected error from stage %s", err, tc.wantErr)
			}
			if st := reg.Snapshot().Stages[tc.stage]; st.Count != tc.wantSpans || st.Items != 0 {
				t.Errorf("stage %s: count=%d items=%d, want count=%d items=0",
					tc.stage, st.Count, st.Items, tc.wantSpans)
			}
		})
	}
}
