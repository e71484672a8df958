package trace_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"dra4wfms/internal/telemetry"
	"dra4wfms/internal/trace"
)

// histogram returns a fresh latency histogram: the duration sink the
// instrumented packages give their spans.
func histogram(labels ...string) *telemetry.Histogram {
	return telemetry.New().Histogram("op_seconds", telemetry.LatencyBuckets, labels...)
}

// TestSampledSpanHistogramMatchesRing: one clock reading per span, so
// the histogram and /v1/traces report the same duration for one
// operation.
func TestSampledSpanHistogramMatchesRing(t *testing.T) {
	c := trace.NewCollector(8)
	h := histogram()
	ctx, root := c.StartRoot(context.Background(), "client_drive", nil)
	_, span := c.StartSpan(ctx, "portal_store_seconds", h)
	time.Sleep(time.Millisecond)
	span.End()
	root.End()

	var got []trace.FinishedSpan
	for _, fs := range c.Spans(root.Context().TraceID.String()) {
		if fs.Name == "portal_store_seconds" {
			got = append(got, fs)
		}
	}
	if len(got) != 1 {
		t.Fatalf("ring holds %d portal spans, want 1", len(got))
	}
	if h.Count() != 1 || h.Sum() != got[0].Duration.Seconds() {
		t.Fatalf("histogram count=%d sum=%v, ring duration %v", h.Count(), h.Sum(), got[0].Duration)
	}
}

// TestSecondEndAddsNoObservation: End is idempotent for the histogram
// as it is for the ring, sampled or not.
func TestSecondEndAddsNoObservation(t *testing.T) {
	c := trace.NewCollector(8)
	ctx, root := c.StartRoot(context.Background(), "client_drive", nil)
	defer root.End()
	for _, parent := range []context.Context{ctx, context.Background()} {
		h := histogram()
		_, span := c.StartSpan(parent, "portal_store_seconds", h)
		span.End()
		span.End()
		if h.Count() != 1 {
			t.Errorf("sampled=%v: two Ends made %d observations, want 1", span.Context().Sampled, h.Count())
		}
	}
}

// TestStartSpanWithoutContextIsInert: outside a trace the span still
// times the operation into its histogram, but mints no IDs, leaves the
// context as it was and lands nothing in the ring. A nil span is inert.
func TestStartSpanWithoutContextIsInert(t *testing.T) {
	c := trace.NewCollector(16)
	h := histogram()
	parent := context.Background()
	ctx, span := c.StartSpan(parent, "pool_put_seconds", h)
	if ctx != parent {
		t.Fatal("StartSpan derived a context outside a trace")
	}
	if _, ok := trace.FromContext(ctx); ok {
		t.Fatal("StartSpan invented a SpanContext")
	}
	if span.Context() != (trace.SpanContext{}) {
		t.Fatalf("unsampled span minted IDs: %+v", span.Context())
	}
	span.SetAttr("k", "v")
	span.SetStatus("error")
	span.End()
	if h.Count() != 1 {
		t.Fatalf("histogram count = %d, want 1", h.Count())
	}
	if c.Len() != 0 {
		t.Fatal("span without a trace landed in the ring")
	}

	var nilSpan *trace.Span
	nilSpan.SetAttr("k", "v")
	nilSpan.SetStatus("error")
	nilSpan.End()
	if nilSpan.Context() != (trace.SpanContext{}) {
		t.Fatal("nil span has a context")
	}
}

type testLogger struct {
	mu    sync.Mutex
	lines []string
}

func (l *testLogger) Printf(format string, v ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, v...))
}

func (l *testLogger) snapshot() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.lines...)
}

func TestSpanRecordsAndLogsSlowOps(t *testing.T) {
	c := trace.NewCollector(8)
	log := &testLogger{}
	c.SetSlowOpLogger(log)
	c.SetSlowOpThreshold(time.Nanosecond) // everything is slow

	h := histogram("phase", "verify")
	_, span := c.StartSpan(context.Background(), "op_seconds", h, "phase", "verify")
	time.Sleep(time.Millisecond)
	span.End()
	if h.Count() != 1 || h.Sum() < 0.001 {
		t.Fatalf("histogram count=%d sum=%v", h.Count(), h.Sum())
	}
	lines := log.snapshot()
	if len(lines) != 1 || !strings.Contains(lines[0], "op_seconds") || !strings.Contains(lines[0], "verify") {
		t.Fatalf("slow-op log = %q", lines)
	}

	// Below threshold: silent.
	c.SetSlowOpThreshold(time.Hour)
	_, fast := c.StartSpan(context.Background(), "op_seconds", nil)
	fast.End()
	if n := len(log.snapshot()); n != 1 {
		t.Fatalf("fast op was logged (%d lines)", n)
	}
}
