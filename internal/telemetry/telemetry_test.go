package telemetry

import (
	"context"
	"fmt"
	"io"
	"log"
	"math"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"dra4wfms/internal/trace"
)

func TestCounterAndGauge(t *testing.T) {
	r := New()
	c := r.Counter("ops_total")
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters are monotonic
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if again := r.Counter("ops_total"); again != c {
		t.Fatal("same name+labels did not return the same counter")
	}
	if other := r.Counter("ops_total", "kind", "x"); other == c {
		t.Fatal("different labels returned the same counter")
	}

	g := r.Gauge("depth")
	g.Set(2.5)
	g.Add(-0.5)
	if g.Value() != 2 {
		t.Fatalf("gauge = %v, want 2", g.Value())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := New()
	h := r.Histogram("lat", ExpBuckets(1, 2, 10)) // 1,2,4,…,512
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 5050 {
		t.Fatalf("sum = %v", h.Sum())
	}
	p50 := h.Quantile(0.50)
	if p50 < 32 || p50 > 64 {
		t.Fatalf("p50 = %v, want within (32, 64]", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 64 || p99 > 128 {
		t.Fatalf("p99 = %v, want within (64, 128]", p99)
	}
	// Values beyond the last bound land in +Inf and clamp to the top bound.
	h.Observe(1e9)
	if q := h.Quantile(1); q != 512 {
		t.Fatalf("clamped quantile = %v, want 512", q)
	}
	// Empty histogram.
	if q := r.Histogram("empty", nil).Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %v", q)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1e-6, 2, 4)
	want := []float64{1e-6, 2e-6, 4e-6, 8e-6}
	for i := range want {
		if math.Abs(b[i]-want[i]) > 1e-15 {
			t.Fatalf("bucket %d = %v, want %v", i, b[i], want[i])
		}
	}
}

func TestKindConflictPanics(t *testing.T) {
	r := New()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on kind conflict")
		}
	}()
	r.Histogram("x", nil)
}

// sampleLine matches one exposition sample: name{labels} value.
var sampleLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (-?[0-9.e+-]+|\+Inf|NaN)$`)

func TestWritePrometheusFormat(t *testing.T) {
	r := New()
	r.Counter("requests_total", "route", "/v1/documents", "code", "2xx").Add(7)
	r.Gauge("pool_regions").Set(3)
	h := r.Histogram("req_seconds", ExpBuckets(0.001, 10, 3))
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(99) // +Inf bucket

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	// Every line must be a TYPE comment or a well-formed sample.
	types := 0
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			types++
			continue
		}
		if !sampleLine.MatchString(line) {
			t.Fatalf("malformed exposition line: %q", line)
		}
	}
	if types != 3 {
		t.Fatalf("TYPE lines = %d, want 3\n%s", types, out)
	}
	for _, want := range []string{
		`requests_total{route="/v1/documents",code="2xx"} 7`,
		"# TYPE req_seconds histogram",
		`req_seconds_bucket{le="0.001"} 1`,
		`req_seconds_bucket{le="0.1"} 2`,
		`req_seconds_bucket{le="+Inf"} 3`,
		"req_seconds_count 3",
		"pool_regions 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Cumulative bucket counts must be non-decreasing (already asserted
	// implicitly above) and label values escaped.
	r2 := New()
	r2.Counter("esc", "k", "a\"b\\c\nd").Inc()
	sb.Reset()
	if err := r2.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `esc{k="a\"b\\c\nd"} 1`) {
		t.Fatalf("unescaped label value: %s", sb.String())
	}
}

func TestSnapshot(t *testing.T) {
	r := New()
	r.Counter("c").Add(3)
	r.Gauge("g").Set(1.5)
	h := r.Histogram("h", ExpBuckets(1, 2, 8))
	for i := 0; i < 10; i++ {
		h.Observe(5)
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 1 || snap.Counters[0].Value != 3 {
		t.Fatalf("counters = %+v", snap.Counters)
	}
	if len(snap.Gauges) != 1 || snap.Gauges[0].Value != 1.5 {
		t.Fatalf("gauges = %+v", snap.Gauges)
	}
	if len(snap.Histograms) != 1 {
		t.Fatalf("histograms = %+v", snap.Histograms)
	}
	hs := snap.Histograms[0]
	if hs.Count != 10 || hs.Sum != 50 || hs.P50 <= 4 || hs.P50 > 8 {
		t.Fatalf("histogram snapshot = %+v", hs)
	}
}

// TestConcurrentRegistry hammers counters, gauges, histograms, spans, the
// exposition writer, and snapshots from 32 goroutines; `go test -race`
// proves the registry race-free (the Makefile check target runs it so).
func TestConcurrentRegistry(t *testing.T) {
	r := New()
	col := trace.Default()
	col.SetSlowOpThreshold(time.Nanosecond)
	col.SetSlowOpLogger(log.New(io.Discard, "", 0))
	t.Cleanup(func() {
		col.SetSlowOpThreshold(0)
		col.SetSlowOpLogger(nil)
	})
	const goroutines = 32
	const iters = 500

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			label := fmt.Sprintf("w%d", g%4)
			for i := 0; i < iters; i++ {
				r.Counter("hammer_total", "worker", label).Inc()
				r.Gauge("hammer_depth").Add(1)
				r.Histogram("hammer_values", ExpBuckets(1, 2, 16)).Observe(float64(i % 100))
				_, span := r.StartSpan(context.Background(), "hammer_span_seconds", "worker", label)
				span.End()
				if i%100 == 0 {
					var sb strings.Builder
					if err := r.WritePrometheus(&sb); err != nil {
						t.Errorf("WritePrometheus: %v", err)
					}
					_ = r.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()

	var total int64
	for _, c := range r.Snapshot().Counters {
		if c.Name == "hammer_total" {
			total += c.Value
		}
	}
	if total != goroutines*iters {
		t.Fatalf("hammer_total = %d, want %d", total, goroutines*iters)
	}
	if n := r.Histogram("hammer_values", nil).Count(); n != goroutines*iters {
		t.Fatalf("hammer_values count = %d, want %d", n, goroutines*iters)
	}
	if n := r.Histogram("hammer_span_seconds", nil, "worker", "w0").Count(); n == 0 {
		t.Fatal("no spans recorded for w0")
	}
	if g := r.Gauge("hammer_depth").Value(); g != goroutines*iters {
		t.Fatalf("gauge = %v, want %d", g, goroutines*iters)
	}
}
