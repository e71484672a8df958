// Package trace is a dependency-free distributed tracing layer for the
// DRA4WfMS reproduction: W3C-style trace context (128-bit trace ID,
// 64-bit span ID, a sampled flag) that propagates across HTTP hops as a
// `traceparent` header and across asynchronous relay hops inside outbox
// WAL records, plus a bounded in-process ring of finished spans that each
// tier exposes at GET /v1/traces.
//
// The paper's nonrepudiation story is an audit story — every document
// hop (AEA → portal → TFC → pool) must be reconstructible after the
// fact. Span is the repository's only span type, and it serves both
// questions asked of a hop: "how slow is the portal store path on
// average" (its duration feeds a DurationSink, in practice a
// telemetry histogram) and "where did workflow instance X spend its
// time" (inside a sampled trace it lands in the ring, correlated with
// the spans of one cascade under a single trace ID across every process
// that touched it). End reads the clock once, so the histogram and the
// ring report the same duration. Instrumented code starts spans through
// telemetry.(*Registry).StartSpan; the collector's slow-op log sees
// every span, sampled or not.
//
// Sampling is decided exactly once, at the trace root. Downstream hops
// honor the inbound sampled flag verbatim and never resample, so a
// trace is always either complete across all tiers or absent entirely —
// partial traces are worse than none when attributing a signature
// cascade's latency.
package trace

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strings"
)

// TraceID identifies one end-to-end trace (one workflow cascade's
// journey, typically).
type TraceID [16]byte

// IsZero reports whether the ID is the invalid all-zero ID.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String renders the ID as 32 lowercase hex digits.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// SpanID identifies one span within a trace.
type SpanID [8]byte

// IsZero reports whether the ID is the invalid all-zero ID.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the ID as 16 lowercase hex digits.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// SpanContext is the propagated part of a trace: which trace the caller
// is in, which span is the current parent, and whether the root decided
// to sample.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
	Sampled bool
}

// Valid reports whether the context carries usable IDs.
func (c SpanContext) Valid() bool { return !c.TraceID.IsZero() && !c.SpanID.IsZero() }

// Version prefix of the traceparent rendering. Only version 00 is
// emitted or accepted.
const traceparentVersion = "00"

// Traceparent renders the context in W3C trace-context form:
//
//	00-<32 hex trace-id>-<16 hex span-id>-<01|00>
//
// The trailing flags octet carries only the sampled bit.
func (c SpanContext) Traceparent() string {
	flags := "00"
	if c.Sampled {
		flags = "01"
	}
	return traceparentVersion + "-" + c.TraceID.String() + "-" + c.SpanID.String() + "-" + flags
}

// ParseTraceparent parses a W3C-style traceparent header. It accepts
// only version 00, lowercase hex IDs (the spec's HEXDIGLC), non-zero IDs
// and the two flags octets this package emits, 00 and 01, so an accepted
// header renders back through Traceparent unchanged. Anything else
// returns ok=false and callers fall back to starting a fresh root.
func ParseTraceparent(s string) (SpanContext, bool) {
	parts := strings.Split(strings.TrimSpace(s), "-")
	if len(parts) != 4 || parts[0] != traceparentVersion {
		return SpanContext{}, false
	}
	var c SpanContext
	if !decodeLowerHex(c.TraceID[:], parts[1]) || !decodeLowerHex(c.SpanID[:], parts[2]) {
		return SpanContext{}, false
	}
	switch parts[3] {
	case "01":
		c.Sampled = true
	case "00":
	default:
		return SpanContext{}, false
	}
	if !c.Valid() {
		return SpanContext{}, false
	}
	return c, true
}

// decodeLowerHex fills dst from s, which must be exactly 2*len(dst)
// lowercase hex digits.
func decodeLowerHex(dst []byte, s string) bool {
	if len(s) != 2*len(dst) || strings.ToLower(s) != s {
		return false
	}
	_, err := hex.Decode(dst, []byte(s))
	return err == nil
}

// ctxKey is the private context key for SpanContext values.
type ctxKey struct{}

// ContextWith returns ctx carrying c.
func ContextWith(ctx context.Context, c SpanContext) context.Context {
	return context.WithValue(ctx, ctxKey{}, c)
}

// FromContext extracts the SpanContext stashed by ContextWith, if any.
func FromContext(ctx context.Context) (SpanContext, bool) {
	if ctx == nil {
		return SpanContext{}, false
	}
	c, ok := ctx.Value(ctxKey{}).(SpanContext)
	return c, ok && c.Valid()
}

// TraceparentFromContext renders the context's traceparent, or "" when
// the context carries no trace.
func TraceparentFromContext(ctx context.Context) string {
	c, ok := FromContext(ctx)
	if !ok {
		return ""
	}
	return c.Traceparent()
}

// newTraceID draws a random 128-bit trace ID.
func newTraceID() (TraceID, error) {
	var t TraceID
	if _, err := rand.Read(t[:]); err != nil {
		return TraceID{}, fmt.Errorf("trace: generating trace id: %w", err)
	}
	if t.IsZero() {
		t[0] = 1 // all-zero is reserved as invalid
	}
	return t, nil
}

// newSpanID draws a random 64-bit span ID.
func newSpanID() (SpanID, error) {
	var s SpanID
	if _, err := rand.Read(s[:]); err != nil {
		return SpanID{}, fmt.Errorf("trace: generating span id: %w", err)
	}
	if s.IsZero() {
		s[0] = 1
	}
	return s, nil
}

// --- sampling ----------------------------------------------------------------

// Sampler decides, once per trace and only at the root, whether the
// trace records spans. The decision rides the sampled flag to every
// downstream hop; non-root hops never consult a Sampler.
type Sampler interface {
	// Sample reports whether the trace with the given ID records.
	Sample(t TraceID) bool
}

type alwaysSampler struct{}

func (alwaysSampler) Sample(TraceID) bool { return true }

type neverSampler struct{}

func (neverSampler) Sample(TraceID) bool { return false }

// AlwaysSample records every trace.
func AlwaysSample() Sampler { return alwaysSampler{} }

// NeverSample records no traces (propagation headers still flow, with
// the sampled flag clear).
func NeverSample() Sampler { return neverSampler{} }

// ratioSampler keeps approximately ratio of traces, deciding
// deterministically from the trace ID so every process that might
// independently inspect the same ID agrees.
type ratioSampler struct {
	bound uint64
}

func (s ratioSampler) Sample(t TraceID) bool {
	return binary.BigEndian.Uint64(t[:8]) < s.bound
}

// RatioSample samples the given fraction of traces (clamped to [0, 1]).
// 0 behaves as NeverSample, 1 as AlwaysSample.
func RatioSample(ratio float64) Sampler {
	switch {
	case ratio <= 0:
		return neverSampler{}
	case ratio >= 1:
		return alwaysSampler{}
	}
	return ratioSampler{bound: uint64(ratio * float64(^uint64(0)))}
}
