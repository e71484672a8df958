// Package telemetry is a fixture stub mirroring the real module's span
// API surface for analyzer tests.
package telemetry

import (
	"context"

	"dra4wfms/internal/trace"
)

// Registry mirrors telemetry.Registry.
type Registry struct{}

// Default mirrors telemetry.Default.
func Default() *Registry { return &Registry{} }

// StartSpan mirrors telemetry.(*Registry).StartSpan: the span starter
// returning a (ctx, span) pair.
func (r *Registry) StartSpan(ctx context.Context, name string, labels ...string) (context.Context, *trace.Span) {
	return trace.Default().StartSpan(ctx, name, nil, labels...)
}
