package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	c := NewCollector(16)
	ctx, span := c.StartRoot(context.Background(), "client_drive", nil)
	if !span.Context().Sampled {
		t.Fatal("root span not sampled under AlwaysSample")
	}
	sc, ok := FromContext(ctx)
	if !ok {
		t.Fatal("context missing SpanContext after StartRoot")
	}
	header := sc.Traceparent()
	if !strings.HasPrefix(header, "00-") || !strings.HasSuffix(header, "-01") {
		t.Fatalf("traceparent = %q, want 00-…-01", header)
	}
	got, ok := ParseTraceparent(header)
	if !ok {
		t.Fatalf("ParseTraceparent(%q) failed", header)
	}
	if got != sc {
		t.Fatalf("round trip mismatch: %+v != %+v", got, sc)
	}
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"00-abc-def-01",
		"01-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", // unknown version
		"00-00000000000000000000000000000000-b7ad6b7169203331-01", // zero trace id
		"00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01", // zero span id
		"00-0af7651916cd43dd8448eb211c80319g-b7ad6b7169203331-01", // non-hex
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331",    // missing flags
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00F067AA0BA902B7-01", // upper-case hex
		"00-0af7651916cd43dd8448eb211c80319C-b7ad6b7169203331-01", // one upper-case digit
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-03", // flags beyond the sampled bit
	}
	for _, s := range bad {
		if _, ok := ParseTraceparent(s); ok {
			t.Errorf("ParseTraceparent(%q) accepted malformed input", s)
		}
	}
	sc, ok := ParseTraceparent("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-00")
	if !ok || sc.Sampled {
		t.Fatalf("valid unsampled header: ok=%v sampled=%v", ok, sc.Sampled)
	}
}

func TestParentChildLinks(t *testing.T) {
	c := NewCollector(16)
	ctx, root := c.StartRoot(context.Background(), "client_drive", nil)
	ctx2, child := c.StartSpan(ctx, "portal_store_seconds", nil)
	_, grandchild := c.StartSpan(ctx2, "pool_put_seconds", nil)
	grandchild.End()
	child.End()
	root.End()

	spans := c.Spans(root.Context().TraceID.String())
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byName := map[string]FinishedSpan{}
	for _, fs := range spans {
		byName[fs.Name] = fs
	}
	if byName["portal_store_seconds"].ParentID != byName["client_drive"].SpanID {
		t.Error("child's parent is not the root")
	}
	if byName["pool_put_seconds"].ParentID != byName["portal_store_seconds"].SpanID {
		t.Error("grandchild's parent is not the child")
	}
	if byName["portal_store_seconds"].Tier != "portal" || byName["pool_put_seconds"].Tier != "pool" {
		t.Errorf("tier derivation wrong: %q, %q",
			byName["portal_store_seconds"].Tier, byName["pool_put_seconds"].Tier)
	}
	if byName["client_drive"].Tier != "client" {
		t.Errorf("root tier = %q, want client", byName["client_drive"].Tier)
	}
}

// TestSamplingDecidedOnceAtRoot is the regression test for per-hop
// resampling: with a 0% sampler the root declines and no downstream hop
// may record anything — even a hop whose own collector samples at 100% —
// and with a 100% root every hop records regardless of its local
// sampler. Partial traces must be impossible.
func TestSamplingDecidedOnceAtRoot(t *testing.T) {
	t.Run("root declines, downstream honors", func(t *testing.T) {
		rootC := NewCollector(16)
		rootC.SetSampler(NeverSample())
		downC := NewCollector(16)
		downC.SetSampler(AlwaysSample()) // must be ignored mid-trace

		ctx, span := rootC.StartRoot(context.Background(), "client_drive", nil)
		if span.Context().Sampled {
			t.Fatal("0% sampler returned a recording root span")
		}
		sc, ok := FromContext(ctx)
		if !ok || sc.Sampled {
			t.Fatalf("unsampled root context: ok=%v sampled=%v (context must still propagate)", ok, sc.Sampled)
		}

		// Simulate the HTTP hop: serialize, parse, continue downstream.
		remote, ok := ParseTraceparent(sc.Traceparent())
		if !ok {
			t.Fatal("unsampled traceparent did not parse")
		}
		_, hop := downC.StartSpan(ContextWith(context.Background(), remote), "portal_store_seconds", nil)
		hop.End()
		span.End()
		if rootC.Len() != 0 || downC.Len() != 0 {
			t.Fatalf("unsampled trace recorded spans: root=%d down=%d", rootC.Len(), downC.Len())
		}
	})

	t.Run("root samples, downstream records", func(t *testing.T) {
		rootC := NewCollector(16)
		rootC.SetSampler(AlwaysSample())
		downC := NewCollector(16)
		downC.SetSampler(NeverSample()) // must be ignored mid-trace

		ctx, span := rootC.StartRoot(context.Background(), "client_drive", nil)
		if !span.Context().Sampled {
			t.Fatal("100% sampler declined the root")
		}
		sc, _ := FromContext(ctx)
		remote, _ := ParseTraceparent(sc.Traceparent())
		_, hop := downC.StartSpan(ContextWith(context.Background(), remote), "portal_store_seconds", nil)
		if !hop.Context().Sampled {
			t.Fatal("downstream hop resampled a sampled trace away")
		}
		hop.End()
		span.End()
		if downC.Len() != 1 {
			t.Fatalf("downstream recorded %d spans, want 1", downC.Len())
		}
	})
}

func TestRatioSamplerBoundaries(t *testing.T) {
	if _, ok := RatioSample(0).(neverSampler); !ok {
		t.Error("RatioSample(0) is not NeverSample")
	}
	if _, ok := RatioSample(1).(alwaysSampler); !ok {
		t.Error("RatioSample(1) is not AlwaysSample")
	}
	s := RatioSample(0.5)
	var lo, hi TraceID
	hi[0] = 0xff
	lo[15] = 1
	if !s.Sample(lo) {
		t.Error("0.5 sampler rejected a low trace ID")
	}
	if s.Sample(hi) {
		t.Error("0.5 sampler accepted a high trace ID")
	}
	// Deterministic: the same ID always gets the same verdict.
	for i := 0; i < 3; i++ {
		if s.Sample(hi) {
			t.Fatal("sampler verdict not deterministic")
		}
	}
}

func TestRingEviction(t *testing.T) {
	c := NewCollector(4)
	ctx, root := c.StartRoot(context.Background(), "client_drive", nil)
	root.End()
	for i := 0; i < 6; i++ {
		_, s := c.StartSpan(ctx, "portal_store_seconds", nil)
		s.End()
	}
	if got := c.Len(); got != 4 {
		t.Fatalf("ring holds %d spans, want capacity 4", got)
	}
	spans := c.Spans("")
	if len(spans) != 4 {
		t.Fatalf("Spans returned %d, want 4", len(spans))
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].Start.Before(spans[i-1].Start) {
			t.Fatal("Spans not in arrival order after wrap")
		}
	}
}

func TestBindInstance(t *testing.T) {
	c := NewCollector(4)
	_, root := c.StartRoot(context.Background(), "portal_store_initial_seconds", nil)
	tid := root.Context().TraceID
	c.BindInstance("p-123", tid)
	got, ok := c.InstanceTrace("p-123")
	if !ok || got != tid.String() {
		t.Fatalf("InstanceTrace = %q, %v; want %q", got, ok, tid)
	}
	if _, ok := c.InstanceTrace("p-999"); ok {
		t.Fatal("unknown instance resolved")
	}
	if b := c.Bindings(); b["p-123"] != tid.String() {
		t.Fatalf("Bindings() = %v", b)
	}
}

func TestJSONLOutput(t *testing.T) {
	c := NewCollector(8)
	var buf bytes.Buffer
	c.SetOutput(&buf)
	ctx, root := c.StartRoot(context.Background(), "client_drive", nil)
	_, child := c.StartSpan(ctx, "portal_store_seconds", nil)
	child.SetAttr("doc", "X_A(0)")
	child.End()
	root.End()

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("JSONL export has %d lines, want 2", len(lines))
	}
	var fs FinishedSpan
	if err := json.Unmarshal([]byte(lines[0]), &fs); err != nil {
		t.Fatalf("line 0 not valid JSON: %v", err)
	}
	if fs.Name != "portal_store_seconds" || fs.Attrs["doc"] != "X_A(0)" {
		t.Fatalf("unexpected first exported span: %+v", fs)
	}
}

func TestAssembleAndWaterfall(t *testing.T) {
	c := NewCollector(32)
	ctx, root := c.StartRoot(context.Background(), "client_drive", nil)
	ctx2, portal := c.StartSpan(ctx, "portal_store_seconds", nil)
	_, pool := c.StartSpan(ctx2, "pool_put_seconds", nil)
	time.Sleep(time.Millisecond)
	pool.End()
	portal.End()
	_, relaySpan := c.StartSpan(ctx, "relay_delivery_seconds", nil)
	relaySpan.SetStatus("error")
	relaySpan.End()
	root.End()

	spans := c.Spans(root.Context().TraceID.String())
	// Duplicate one span, as when two tiers serve overlapping rings.
	spans = append(spans, spans[0])
	roots := Assemble(spans)
	if len(roots) != 1 {
		t.Fatalf("Assemble produced %d roots, want 1", len(roots))
	}
	var count int
	Walk(roots, func(n *Node, depth int) {
		count++
		if n.Span.Name == "pool_put_seconds" && depth != 2 {
			t.Errorf("pool span at depth %d, want 2", depth)
		}
	})
	if count != 4 {
		t.Fatalf("tree has %d nodes, want 4 (duplicate collapsed)", count)
	}

	var buf bytes.Buffer
	Waterfall(&buf, roots)
	out := buf.String()
	for _, want := range []string{"4 spans", "portal_store_seconds", "relay_delivery_seconds", "[error]", "per-tier span time"} {
		if !strings.Contains(out, want) {
			t.Errorf("waterfall missing %q:\n%s", want, out)
		}
	}
}

func TestAssembleOrphanBecomesRoot(t *testing.T) {
	spans := []FinishedSpan{
		{TraceID: "t", SpanID: "a", Name: "root", Tier: "client"},
		{TraceID: "t", SpanID: "b", ParentID: "zz", Name: "orphan", Tier: "relay"},
	}
	roots := Assemble(spans)
	if len(roots) != 2 {
		t.Fatalf("got %d roots, want 2 (orphan promoted)", len(roots))
	}
}

func TestDoubleEndRecordsOnce(t *testing.T) {
	c := NewCollector(8)
	_, root := c.StartRoot(context.Background(), "client_drive", nil)
	root.End()
	root.End()
	if c.Len() != 1 {
		t.Fatalf("double End recorded %d spans", c.Len())
	}
}

// FuzzParseTraceparent: no input panics, and every accepted header
// renders back to its trimmed self — nothing is accepted that the next
// hop would receive altered.
func FuzzParseTraceparent(f *testing.F) {
	for _, s := range []string{
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-00",
		"  00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01\t",
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00F067AA0BA902B7-01",
		"00-00000000000000000000000000000000-b7ad6b7169203331-01",
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-",
		"ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
		"00-abc-def-01",
		"---",
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sc, ok := ParseTraceparent(s)
		if !ok {
			return
		}
		if !sc.Valid() {
			t.Fatalf("ParseTraceparent(%q) accepted invalid IDs: %+v", s, sc)
		}
		if got, want := sc.Traceparent(), strings.TrimSpace(s); got != want {
			t.Fatalf("ParseTraceparent(%q) renders back as %q", want, got)
		}
	})
}
