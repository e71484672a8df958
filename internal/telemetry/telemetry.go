// Package telemetry is the runtime metrics substrate of the DRA4WfMS
// reproduction: a dependency-free registry of atomic counters, gauges
// and histograms with fixed log-scale buckets, rendered in Prometheus
// text exposition format at GET /v1/metrics.
//
// The paper's scalability argument (Section 4: portals, the NoSQL
// document pool, and the MapReduce layer absorb load because documents —
// not engines — carry all process state) is only testable in a running
// system if signature-verification cost, pool scan latency, and portal
// request throughput are observable while traffic is served. Every
// middleware package (aea, portal, pool, tfc, dsig, xmlenc, httpapi)
// records into the process-wide Default registry.
//
// There is one span type, trace.Span. Registry.StartSpan starts one
// with a latency histogram of this registry as its duration sink, so the
// histogram, the slow-op log and the distributed trace ring
// (internal/trace) all see the same single clock reading per operation.
//
// Everything is safe for concurrent use and allocation-free on the hot
// recording paths (atomic adds; metric lookup is a read-locked map hit,
// and instrumented packages cache their metric handles at init).
package telemetry

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dra4wfms/internal/trace"
)

// --- bucket layouts ----------------------------------------------------------

// ExpBuckets returns count upper bounds starting at start, each factor
// times the previous — the fixed log-scale layout every histogram here
// uses. A final +Inf bucket is implicit in Histogram.
func ExpBuckets(start, factor float64, count int) []float64 {
	if start <= 0 || factor <= 1 || count <= 0 {
		panic("telemetry: ExpBuckets needs start > 0, factor > 1, count > 0")
	}
	out := make([]float64, count)
	b := start
	for i := range out {
		out[i] = b
		b *= factor
	}
	return out
}

// LatencyBuckets spans 1µs … ~8.4s in factor-2 steps (24 buckets), in
// seconds — wide enough for both sub-millisecond pool reads and
// multi-second RSA key generation.
var LatencyBuckets = ExpBuckets(1e-6, 2, 24)

// SizeBuckets spans 64B … ~1GiB in factor-4 steps (13 buckets), in bytes.
var SizeBuckets = ExpBuckets(64, 4, 13)

// --- metrics -----------------------------------------------------------------

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta (negative deltas are ignored; counters only go up).
func (c *Counter) Add(delta int64) {
	if delta > 0 {
		c.v.Add(delta)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomically settable float value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta with a CAS loop.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed log-scale buckets. Bounds are
// upper bounds; an implicit +Inf bucket catches the tail.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Uint64 // len(bounds)+1, last is +Inf
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = LatencyBuckets
	}
	if !sort.Float64sAreSorted(bounds) {
		panic("telemetry: histogram bounds must be sorted")
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveDuration records a latency in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile estimates the q-quantile (0 < q <= 1) by linear interpolation
// within the owning bucket, the standard Prometheus histogram_quantile
// approach. Returns 0 with no observations; observations in the +Inf
// bucket clamp to the highest finite bound.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i := range h.counts {
		n := float64(h.counts[i].Load())
		if cum+n >= rank && n > 0 {
			if i == len(h.bounds) { // +Inf bucket
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			return lo + (h.bounds[i]-lo)*((rank-cum)/n)
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}

// bucketCumulative returns (upper bound, cumulative count) pairs, ending
// with (+Inf, total), for exposition.
func (h *Histogram) bucketCumulative() ([]float64, []uint64) {
	bounds := make([]float64, len(h.bounds)+1)
	cums := make([]uint64, len(h.bounds)+1)
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if i < len(h.bounds) {
			bounds[i] = h.bounds[i]
		} else {
			bounds[i] = math.Inf(1)
		}
		cums[i] = cum
	}
	return bounds, cums
}

// --- registry ----------------------------------------------------------------

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// family groups all label variants of one metric name.
type family struct {
	name    string
	kind    metricKind
	mu      sync.Mutex
	samples map[string]any // label key → *Counter | *Gauge | *Histogram
	labels  map[string][]string
}

// Registry holds a process's metrics. The zero value is not usable; use
// New or the package-wide Default.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{families: map[string]*family{}}
}

var defaultRegistry = New()

// Default returns the process-wide registry every instrumented package
// records into.
func Default() *Registry { return defaultRegistry }

// labelKey canonicalizes label pairs; pairs must be even-length.
func labelKey(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic("telemetry: labels must be key/value pairs")
	}
	pairs := make([]string, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		pairs = append(pairs, labels[i]+"\x00"+labels[i+1])
	}
	sort.Strings(pairs)
	return strings.Join(pairs, "\x01")
}

func (r *Registry) familyFor(name string, kind metricKind) *family {
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil {
		r.mu.Lock()
		f = r.families[name]
		if f == nil {
			f = &family{name: name, kind: kind, samples: map[string]any{}, labels: map[string][]string{}}
			r.families[name] = f
		}
		r.mu.Unlock()
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q already registered as %s, requested as %s", name, f.kind, kind))
	}
	return f
}

// Counter returns (creating on first use) the counter name with the given
// label pairs.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	f := r.familyFor(name, kindCounter)
	key := labelKey(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.samples[key]; ok {
		return m.(*Counter)
	}
	c := &Counter{}
	f.samples[key] = c
	f.labels[key] = append([]string(nil), labels...)
	return c
}

// Gauge returns (creating on first use) the gauge name with the given
// label pairs.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	f := r.familyFor(name, kindGauge)
	key := labelKey(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.samples[key]; ok {
		return m.(*Gauge)
	}
	g := &Gauge{}
	f.samples[key] = g
	f.labels[key] = append([]string(nil), labels...)
	return g
}

// Histogram returns (creating on first use) the histogram name with the
// given bucket upper bounds (nil = LatencyBuckets) and label pairs. The
// bounds of the first creation win for all label variants.
func (r *Registry) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	f := r.familyFor(name, kindHistogram)
	key := labelKey(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.samples[key]; ok {
		return m.(*Histogram)
	}
	h := newHistogram(bounds)
	f.samples[key] = h
	f.labels[key] = append([]string(nil), labels...)
	return h
}

// --- spans -------------------------------------------------------------------

// StartSpan begins timing an operation: the returned trace span feeds
// its duration, in seconds, to the histogram name (LatencyBuckets) with
// the given labels, to the trace collector's slow-op log and, inside a
// sampled distributed trace, to the trace ring as a child span of the
// same name. Pass the returned context downstream so nested spans
// attach beneath this one. Usage:
//
//	ctx, span := telemetry.Default().StartSpan(ctx, "portal_store_seconds")
//	defer span.End()
func (r *Registry) StartSpan(ctx context.Context, name string, labels ...string) (context.Context, *trace.Span) {
	return trace.Default().StartSpan(ctx, name, r.Histogram(name, LatencyBuckets, labels...), labels...)
}

// --- snapshots ---------------------------------------------------------------

// CounterSnapshot is one counter's point-in-time value.
type CounterSnapshot struct {
	Name   string   `json:"name"`
	Labels []string `json:"labels,omitempty"`
	Value  int64    `json:"value"`
}

// GaugeSnapshot is one gauge's point-in-time value.
type GaugeSnapshot struct {
	Name   string   `json:"name"`
	Labels []string `json:"labels,omitempty"`
	Value  float64  `json:"value"`
}

// HistogramSnapshot summarizes one histogram: count, sum, and the
// interpolated p50/p95/p99.
type HistogramSnapshot struct {
	Name   string   `json:"name"`
	Labels []string `json:"labels,omitempty"`
	Count  uint64   `json:"count"`
	Sum    float64  `json:"sum"`
	P50    float64  `json:"p50"`
	P95    float64  `json:"p95"`
	P99    float64  `json:"p99"`
}

// Snapshot is a consistent-enough point-in-time view of a registry
// (individual metrics are read atomically; the set is read under lock).
type Snapshot struct {
	Counters   []CounterSnapshot   `json:"counters,omitempty"`
	Gauges     []GaugeSnapshot     `json:"gauges,omitempty"`
	Histograms []HistogramSnapshot `json:"histograms,omitempty"`
}

// sortedFamilies returns families by name; each family's sample keys
// sorted. Used by Snapshot and WritePrometheus for stable output.
func (r *Registry) sortedFamilies() []*family {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// Snapshot captures every metric in the registry, sorted by name.
func (r *Registry) Snapshot() Snapshot {
	var snap Snapshot
	for _, f := range r.sortedFamilies() {
		f.mu.Lock()
		keys := make([]string, 0, len(f.samples))
		for k := range f.samples {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			labels := f.labels[k]
			switch m := f.samples[k].(type) {
			case *Counter:
				snap.Counters = append(snap.Counters, CounterSnapshot{Name: f.name, Labels: labels, Value: m.Value()})
			case *Gauge:
				snap.Gauges = append(snap.Gauges, GaugeSnapshot{Name: f.name, Labels: labels, Value: m.Value()})
			case *Histogram:
				snap.Histograms = append(snap.Histograms, HistogramSnapshot{
					Name: f.name, Labels: labels,
					Count: m.Count(), Sum: m.Sum(),
					P50: m.Quantile(0.50), P95: m.Quantile(0.95), P99: m.Quantile(0.99),
				})
			}
		}
		f.mu.Unlock()
	}
	return snap
}
