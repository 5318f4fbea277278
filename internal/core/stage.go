package core

import (
	"context"

	"distinct/internal/obs"
	"distinct/internal/obs/trace"
)

// stage is the instrumentation handle of one pipeline stage: its obs span
// (wall time, items, allocations) and its trace span, opened together by
// begin and closed together by end or fail. It is the only place in the
// package that opens a stage span, so every stage leaves by one of exactly
// two exits. The zero stage is inert.
type stage struct {
	name string
	sp   obs.Span
	tsp  *trace.Span
}

// begin runs the stage boundary (checkStage: cancellation and the
// "core."+name fault point) and opens the stage under reg and parent. A
// failed boundary opens nothing and returns the StageError.
func begin(ctx context.Context, reg *obs.Registry, parent *trace.Span, name string, attrs ...trace.Attr) (stage, error) {
	if err := checkStage(ctx, name); err != nil {
		return stage{}, err
	}
	return open(reg, parent, name, attrs...), nil
}

// open is begin without the boundary check. Only the batch stage calls it
// directly: its boundary runs before the global prefetch and its spans open
// after it, so the batch trace span does not absorb the prefetch time.
func open(reg *obs.Registry, parent *trace.Span, name string, attrs ...trace.Attr) stage {
	return stage{name: name, sp: reg.StartStage(name), tsp: parent.Start(name, attrs...)}
}

// end closes a stage that completed: the obs span credits items, and attrs
// are attached to the trace span before it ends.
func (s stage) end(items int, attrs ...trace.Attr) {
	s.sp.End(items)
	if len(attrs) > 0 {
		s.tsp.SetAttrs(attrs...)
	}
	s.tsp.End()
}

// fail closes a stage that failed — the obs span records its wall time with
// zero items — and returns err wrapped with the stage name (an error that
// already names an inner stage keeps it; see stageErr).
func (s stage) fail(err error) error {
	s.sp.End(0)
	s.tsp.End()
	return stageErr(s.name, err)
}
