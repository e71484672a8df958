package trace

import (
	"context"
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// FinishedSpan is one completed span as kept in the ring, served by
// GET /v1/traces, and written to the JSONL export.
type FinishedSpan struct {
	TraceID  string `json:"trace_id"`
	SpanID   string `json:"span_id"`
	ParentID string `json:"parent_id,omitempty"`
	Name     string `json:"name"`
	// Tier attributes the span to an architectural tier (portal, tfc,
	// aea, pool, relay, dsig, http, client).
	Tier     string            `json:"tier"`
	Start    time.Time         `json:"start"`
	Duration time.Duration     `json:"duration_ns"`
	Status   string            `json:"status,omitempty"`
	Attrs    map[string]string `json:"attrs,omitempty"`
}

// End returns the span's completion instant.
func (f FinishedSpan) End() time.Time { return f.Start.Add(f.Duration) }

// tierOf derives the architectural tier from a span name. Span names
// here are uniformly "<tier>_<operation>_seconds" (roots included:
// "http_request_seconds", "client_remote_drive_seconds"), so the first
// underscore-delimited token attributes the span.
func tierOf(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '_' {
			return name[:i]
		}
	}
	return name
}

// DurationSink receives a finished span's duration.
// *telemetry.Histogram satisfies it through ObserveDuration.
type DurationSink interface {
	ObserveDuration(d time.Duration)
}

// Logger receives slow-operation reports; *log.Logger satisfies it.
type Logger interface {
	Printf(format string, v ...any)
}

// Span is one in-flight timed operation. End reads the clock once and
// feeds that duration to the span's sink (a latency histogram), to the
// collector's slow-op log and — only when the span belongs to a sampled
// trace — to the ring. An unsampled span carries no IDs: its Context is
// zero and SetAttr/SetStatus are no-ops. A nil *Span is valid and inert.
type Span struct {
	c      *Collector
	sink   DurationSink
	name   string
	labels []string
	ctx    SpanContext // zero unless sampled
	parent SpanID
	start  time.Time

	mu     sync.Mutex
	status string
	attrs  map[string]string
	ended  bool
}

// Context returns the span's SpanContext (zero for nil and unsampled
// spans).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.ctx
}

// SetAttr attaches one key/value attribute to a sampled span (document
// IDs, CER counts, relay attempt numbers — metadata only, never
// document contents).
func (s *Span) SetAttr(key, value string) {
	if s == nil || !s.ctx.Sampled {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = map[string]string{}
	}
	s.attrs[key] = value
	s.mu.Unlock()
}

// SetStatus records a sampled span's outcome ("ok" is implied when
// unset).
func (s *Span) SetStatus(status string) {
	if s == nil || !s.ctx.Sampled {
		return
	}
	s.mu.Lock()
	s.status = status
	s.mu.Unlock()
}

// End finishes the span: one duration goes to the sink, the slow-op log
// and, when sampled, the collector ring (and the JSONL export, when
// configured). Safe on nil spans; second and later calls are no-ops.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	d := time.Since(s.start)
	var fs FinishedSpan
	if s.ctx.Sampled {
		fs = FinishedSpan{
			TraceID:  s.ctx.TraceID.String(),
			SpanID:   s.ctx.SpanID.String(),
			Name:     s.name,
			Tier:     tierOf(s.name),
			Start:    s.start,
			Duration: d,
			Status:   s.status,
		}
		if !s.parent.IsZero() {
			fs.ParentID = s.parent.String()
		}
		if len(s.attrs) > 0 {
			fs.Attrs = make(map[string]string, len(s.attrs))
			for k, v := range s.attrs {
				fs.Attrs[k] = v
			}
		}
	}
	s.mu.Unlock()
	if s.sink != nil {
		s.sink.ObserveDuration(d)
	}
	s.c.logSlow(s.name, s.labels, d)
	if s.ctx.Sampled {
		s.c.add(fs)
	}
}

// maxBindings bounds the instance→trace table; oldest bindings are
// evicted first.
const maxBindings = 1024

// Collector keeps a bounded ring of finished spans plus the workflow
// instance → trace ID bindings registered by the portal. All methods
// are safe for concurrent use.
type Collector struct {
	mu      sync.Mutex
	ring    []FinishedSpan
	next    int
	wrapped bool

	sampler Sampler

	bindings  map[string]string // workflow instance (process) ID → trace ID
	bindOrder []string

	outMu sync.Mutex
	out   io.Writer
	enc   *json.Encoder

	slowNanos atomic.Int64 // spans slower than this are logged; 0 = off
	logMu     sync.RWMutex
	logger    Logger
}

// DefaultCapacity is the ring size of the package-wide Default
// collector: enough for several full Fig-9 cascades per tier without
// unbounded growth.
const DefaultCapacity = 4096

// NewCollector creates a collector with a ring of the given capacity
// (minimum 1) that samples every trace until SetSampler says otherwise.
func NewCollector(capacity int) *Collector {
	if capacity < 1 {
		capacity = 1
	}
	return &Collector{
		ring:     make([]FinishedSpan, capacity),
		sampler:  AlwaysSample(),
		bindings: map[string]string{},
	}
}

var defaultCollector = NewCollector(DefaultCapacity)

// Default returns the process-wide collector every instrumented package
// records into.
func Default() *Collector { return defaultCollector }

// SetSampler installs the root sampling policy. Only trace roots
// consult it; mid-trace hops honor the propagated sampled flag.
func (c *Collector) SetSampler(s Sampler) {
	if s == nil {
		s = AlwaysSample()
	}
	c.mu.Lock()
	c.sampler = s
	c.mu.Unlock()
}

// SetOutput streams every finished span to w as one JSON object per
// line, in addition to the ring. nil disables the export.
func (c *Collector) SetOutput(w io.Writer) {
	c.outMu.Lock()
	c.out = w
	if w != nil {
		c.enc = json.NewEncoder(w)
	} else {
		c.enc = nil
	}
	c.outMu.Unlock()
}

// SetSlowOpThreshold enables logging of spans slower than d (0
// disables). Every span ending through this collector is checked,
// sampled or not.
func (c *Collector) SetSlowOpThreshold(d time.Duration) { c.slowNanos.Store(int64(d)) }

// SetSlowOpLogger directs slow-op reports to l (nil silences them even
// when the threshold is set).
func (c *Collector) SetSlowOpLogger(l Logger) {
	c.logMu.Lock()
	c.logger = l
	c.logMu.Unlock()
}

func (c *Collector) logSlow(name string, labels []string, d time.Duration) {
	if slow := c.slowNanos.Load(); slow <= 0 || int64(d) < slow {
		return
	}
	c.logMu.RLock()
	l := c.logger
	c.logMu.RUnlock()
	if l == nil {
		return
	}
	if len(labels) > 0 {
		l.Printf("trace: slow op %s%v took %v", name, labels, d)
	} else {
		l.Printf("trace: slow op %s took %v", name, d)
	}
}

func (c *Collector) add(fs FinishedSpan) {
	c.mu.Lock()
	c.ring[c.next] = fs
	c.next++
	if c.next == len(c.ring) {
		c.next = 0
		c.wrapped = true
	}
	c.mu.Unlock()

	c.outMu.Lock()
	if c.enc != nil {
		_ = c.enc.Encode(fs)
	}
	c.outMu.Unlock()
}

// StartRoot begins a new trace: it draws a fresh trace ID, consults the
// sampler exactly once, and returns ctx carrying the new SpanContext
// (with the sampled flag clear when the sampler declines, so downstream
// hops stay consistent). The returned span is timed either way; it
// lands in the ring only when sampled. sink and labels are as for
// StartSpan.
func (c *Collector) StartRoot(ctx context.Context, name string, sink DurationSink, labels ...string) (context.Context, *Span) {
	s := &Span{c: c, sink: sink, name: name, labels: labels, start: time.Now()}
	tid, err := newTraceID()
	if err != nil {
		return ctx, s
	}
	sid, err := newSpanID()
	if err != nil {
		return ctx, s
	}
	c.mu.Lock()
	sampled := c.sampler.Sample(tid)
	c.mu.Unlock()
	sc := SpanContext{TraceID: tid, SpanID: sid, Sampled: sampled}
	if sampled {
		s.ctx = sc
	}
	return ContextWith(ctx, sc), s
}

// StartSpan begins timing an operation named name inside the trace
// carried by ctx. End feeds the duration to sink (nil for none) and to
// the slow-op log, which prints labels beside the name. When ctx
// belongs to a sampled trace the span is also a child in that trace:
// the returned context carries it as parent, so pass that context
// downstream. Otherwise ctx comes back unchanged and the span mints no
// IDs: this package never promotes a mid-path operation to a trace
// root, and never resamples.
func (c *Collector) StartSpan(ctx context.Context, name string, sink DurationSink, labels ...string) (context.Context, *Span) {
	s := &Span{c: c, sink: sink, name: name, labels: labels, start: time.Now()}
	parent, ok := FromContext(ctx)
	if !ok || !parent.Sampled {
		return ctx, s
	}
	sid, err := newSpanID()
	if err != nil {
		return ctx, s
	}
	s.ctx = SpanContext{TraceID: parent.TraceID, SpanID: sid, Sampled: true}
	s.parent = parent.SpanID
	return ContextWith(ctx, s.ctx), s
}

// BindInstance records that workflow instance (process) ID belongs to
// the given trace, so a whole cascade is queryable by either handle.
func (c *Collector) BindInstance(processID string, t TraceID) {
	if processID == "" || t.IsZero() {
		return
	}
	c.mu.Lock()
	if _, exists := c.bindings[processID]; !exists {
		c.bindOrder = append(c.bindOrder, processID)
		if len(c.bindOrder) > maxBindings {
			delete(c.bindings, c.bindOrder[0])
			c.bindOrder = c.bindOrder[1:]
		}
	}
	c.bindings[processID] = t.String()
	c.mu.Unlock()
}

// InstanceTrace resolves a workflow instance ID to its trace ID.
func (c *Collector) InstanceTrace(processID string) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.bindings[processID]
	return t, ok
}

// Bindings returns a copy of the instance→trace table.
func (c *Collector) Bindings() map[string]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]string, len(c.bindings))
	for k, v := range c.bindings {
		out[k] = v
	}
	return out
}

// Spans returns finished spans in arrival order (oldest first),
// filtered to the given trace ID when traceID is non-empty.
func (c *Collector) Spans(traceID string) []FinishedSpan {
	c.mu.Lock()
	defer c.mu.Unlock()
	var ordered []FinishedSpan
	if c.wrapped {
		ordered = append(ordered, c.ring[c.next:]...)
	}
	ordered = append(ordered, c.ring[:c.next]...)
	if traceID == "" {
		return ordered
	}
	out := ordered[:0:0]
	for _, fs := range ordered {
		if fs.TraceID == traceID {
			out = append(out, fs)
		}
	}
	return out
}

// Len reports how many finished spans the ring currently holds.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.wrapped {
		return len(c.ring)
	}
	return c.next
}

// Reset discards all finished spans and bindings (test helper).
func (c *Collector) Reset() {
	c.mu.Lock()
	c.next = 0
	c.wrapped = false
	for i := range c.ring {
		c.ring[i] = FinishedSpan{}
	}
	c.bindings = map[string]string{}
	c.bindOrder = nil
	c.mu.Unlock()
}
