package httpapi

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"time"

	"dra4wfms/internal/telemetry"
	"dra4wfms/internal/trace"
)

// Runtime telemetry: every route registered through instrument records a
// per-route request counter (split by status class), a latency histogram,
// and accepted request-body bytes; authWrap counts oversized rejections.
var (
	tel       = telemetry.Default()
	mRejected = tel.Counter("http_requests_rejected_total")
)

// MetricsContentType is the Prometheus text exposition content type
// served by GET /v1/metrics.
const MetricsContentType = "text/plain; version=0.0.4; charset=utf-8"

// TraceparentHeader carries trace context across HTTP hops in the W3C
// trace-context format (version 00): 00-<traceid>-<spanid>-<flags>.
// It is deliberately excluded from request signatures (auth.go signs
// method, path, date, nonce, and body only), so intermediaries and
// retries may rewrite the span ID without invalidating the request.
const TraceparentHeader = "traceparent"

// statusWriter captures the response status for the request counter.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with per-route telemetry. route is the mux
// pattern (e.g. "POST /v1/documents"), which keeps the label cardinality
// fixed regardless of path parameters.
func instrument(route string, next http.HandlerFunc) http.HandlerFunc {
	// Eager creation makes the route visible in /v1/metrics before any
	// traffic hits it.
	latency := tel.Histogram("http_request_seconds", telemetry.LatencyBuckets, "route", route)
	bodyBytes := tel.Counter("http_request_body_bytes_total", "route", route)
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		ctx := r.Context()
		// A propagated deadline bounds everything downstream of this
		// route — auth, verification, pool writes. An already-expired
		// request is answered 504 without spending a single RSA verify
		// on it; a live one becomes the request context's deadline so
		// long-running stages (verify pool, cluster writes) abandon the
		// work the moment the caller stops waiting for it.
		h := next
		if dl, ok := ParseDeadline(r.Header); ok {
			if !dl.After(time.Now()) {
				mDeadlineExpired.Inc()
				h = func(w http.ResponseWriter, r *http.Request) {
					http.Error(w, "propagated deadline expired before processing", http.StatusGatewayTimeout)
				}
			} else {
				var cancel context.CancelFunc
				ctx, cancel = context.WithDeadline(ctx, dl)
				defer cancel()
			}
		}
		// A valid inbound traceparent makes this request a mid-trace hop:
		// continue that trace, honoring its sampled flag. Otherwise this
		// server is the trace root and samples exactly once, here.
		var span *trace.Span
		if sc, ok := trace.ParseTraceparent(r.Header.Get(TraceparentHeader)); ok {
			ctx, span = trace.Default().StartSpan(trace.ContextWith(ctx, sc), "http_request_seconds", latency, "route", route)
		} else {
			ctx, span = trace.Default().StartRoot(ctx, "http_request_seconds", latency, "route", route)
		}
		span.SetAttr("route", route)
		h(sw, r.WithContext(ctx))
		if sw.status >= 400 {
			span.SetStatus(fmt.Sprintf("http %d", sw.status))
		}
		span.End()
		tel.Counter("http_requests_total", "route", route, "code", fmt.Sprintf("%dxx", sw.status/100)).Inc()
		if r.ContentLength > 0 {
			bodyBytes.Add(r.ContentLength)
		}
	}
}

// handleMetrics serves the process-wide registry in Prometheus text
// exposition format. The endpoint is deliberately unauthenticated:
// scrapers cannot sign requests, and the registry holds only aggregate
// operational data — never document contents.
func handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", MetricsContentType)
	_ = telemetry.Default().WritePrometheus(w)
}

// TracesResponse is the JSON envelope of GET /v1/traces.
type TracesResponse struct {
	// TraceID echoes the resolved trace filter (set when ?trace= was
	// given or ?process= resolved through an instance binding).
	TraceID string `json:"trace_id,omitempty"`
	// Bindings maps workflow instance IDs to trace IDs; present only on
	// unfiltered listings.
	Bindings map[string]string `json:"bindings,omitempty"`
	// Spans are the finished spans, oldest first.
	Spans []trace.FinishedSpan `json:"spans"`
}

// handleTraces serves the process-local span ring. Query parameters:
// ?trace=<32 hex> filters to one trace; ?process=<instance id> resolves
// through the portal's instance→trace binding first. Unauthenticated for
// the same reason as /v1/metrics: spans hold timing and identifiers,
// never document contents.
func handleTraces(w http.ResponseWriter, r *http.Request) {
	col := trace.Default()
	var resp TracesResponse
	q := r.URL.Query()
	switch {
	case q.Get("trace") != "":
		resp.TraceID = q.Get("trace")
	case q.Get("process") != "":
		tid, ok := col.InstanceTrace(q.Get("process"))
		if !ok {
			http.Error(w, "no trace bound to process "+q.Get("process"), http.StatusNotFound)
			return
		}
		resp.TraceID = tid
	default:
		resp.Bindings = col.Bindings()
	}
	resp.Spans = col.Spans(resp.TraceID)
	w.Header().Set("Content-Type", ContentJSON)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(resp)
}

// registerObservability wires GET /v1/metrics, GET /v1/traces, the
// lifecycle probes (GET /v1/healthz, GET /v1/readyz) and, when pprof is
// enabled, the /debug/pprof/* handlers onto mux.
func registerObservability(mux *http.ServeMux, enablePprof bool, probes *Probes) {
	mux.HandleFunc("GET /v1/metrics", handleMetrics)
	mux.HandleFunc("GET /v1/traces", handleTraces)
	mux.HandleFunc("GET /v1/healthz", handleHealthz)
	mux.HandleFunc("GET /v1/readyz", readyzHandler(probes))
	if enablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
}
