// Package trace is a fixture stub mirroring the real module's collector
// span API surface for analyzer tests.
package trace

import (
	"context"
	"time"
)

// Collector mirrors trace.Collector.
type Collector struct{}

// Default mirrors trace.Default.
func Default() *Collector { return &Collector{} }

// DurationSink mirrors trace.DurationSink.
type DurationSink interface {
	ObserveDuration(d time.Duration)
}

// Span mirrors trace.Span.
type Span struct{}

// StartRoot mirrors trace.(*Collector).StartRoot.
func (c *Collector) StartRoot(ctx context.Context, name string, sink DurationSink, labels ...string) (context.Context, *Span) {
	return ctx, &Span{}
}

// StartSpan mirrors trace.(*Collector).StartSpan.
func (c *Collector) StartSpan(ctx context.Context, name string, sink DurationSink, labels ...string) (context.Context, *Span) {
	return ctx, &Span{}
}

// End mirrors trace.(*Span).End.
func (s *Span) End() {}

// SetStatus mirrors trace.(*Span).SetStatus.
func (s *Span) SetStatus(status string) {}
