// Package spanleak seeds span lifecycle violations for the
// spanleak analyzer's golden test.
package spanleak

import (
	"context"
	"errors"

	"dra4wfms/internal/telemetry"
	"dra4wfms/internal/trace"
)

var tel = telemetry.Default()

func goodDeferred(ctx context.Context) error {
	_, span := tel.StartSpan(ctx, "good_seconds")
	defer span.End()
	return nil
}

func goodSequential(ctx context.Context, fail bool) error {
	_, span := tel.StartSpan(ctx, "seq_seconds")
	err := work(fail)
	span.End()
	if err != nil {
		return err
	}
	return nil
}

func goodBranchEnd(ctx context.Context, fail bool) error {
	_, span := tel.StartSpan(ctx, "branch_seconds")
	if fail {
		span.End()
		return errors.New("fail")
	}
	span.End()
	return nil
}

func leakEarlyReturn(ctx context.Context, fail bool) error {
	_, span := tel.StartSpan(ctx, "leak_seconds")
	if fail {
		return errors.New("early") // want "return leaks telemetry span span"
	}
	span.End()
	return nil
}

// neverEnded leaves the span entirely unused ("declared and not used" is
// a type error the lenient loader tolerates); any other use of the
// variable counts as an escape and ends lexical tracking.
func neverEnded(ctx context.Context) {
	_, span := tel.StartSpan(ctx, "never_seconds") // want "never ended"
}

func dropped(ctx context.Context) {
	tel.StartSpan(ctx, "dropped_seconds")      // want "discarded"
	_, _ = tel.StartSpan(ctx, "blank_seconds") // want "discarded"
}

// escapes hands the span to a closure; ending it becomes the caller's
// responsibility, so the analyzer stays quiet.
func escapes(ctx context.Context) func() {
	_, span := tel.StartSpan(ctx, "escape_seconds")
	return func() { span.End() }
}

func suppressed(ctx context.Context, fail bool) error {
	_, span := tel.StartSpan(ctx, "supp_seconds")
	if fail {
		//lint:ignore spanleak fixture demo: abandoned span is observed via the leak counter
		return errors.New("early")
	}
	span.End()
	return nil
}

func work(fail bool) error {
	if fail {
		return errors.New("work failed")
	}
	return nil
}

// ---- threading the derived context; the trace collector's starters ----

var col = trace.Default()

func goodCtxDeferred(ctx context.Context) error {
	ctx, span := tel.StartSpan(ctx, "good_ctx_seconds")
	defer span.End()
	return use(ctx)
}

func goodTraceRoot(ctx context.Context) error {
	ctx, root := col.StartRoot(ctx, "client_drive_seconds", nil)
	defer root.End()
	return use(ctx)
}

func leakCtxEarlyReturn(ctx context.Context, fail bool) error {
	ctx, span := tel.StartSpan(ctx, "leak_ctx_seconds")
	if fail {
		return errors.New("early") // want "return leaks telemetry span span"
	}
	span.End()
	return use(ctx)
}

// neverEndedTrace starts a traced span and forgets it entirely: besides
// the lost observation, its node vanishes from the distributed trace
// tree, orphaning children started under the returned context.
func neverEndedTrace(ctx context.Context) error {
	ctx, span := col.StartSpan(ctx, "never_trace_seconds", nil) // want "never ended"
	return use(ctx)
}

func droppedCtx(ctx context.Context) {
	_, _ = tel.StartSpan(ctx, "dropped_ctx_seconds") // want "discarded"
	tel.StartSpan(ctx, "stmt_ctx_seconds")           // want "discarded"
}

// escapesCtx passes the pair span onward (SetStatus is a use): the
// analyzer leaves ownership to the reader.
func escapesCtx(ctx context.Context, fail bool) error {
	ctx, span := col.StartSpan(ctx, "escape_ctx_seconds", nil)
	defer span.End()
	if fail {
		span.SetStatus("error")
		return errors.New("fail")
	}
	return use(ctx)
}

func use(ctx context.Context) error {
	_ = ctx
	return nil
}
