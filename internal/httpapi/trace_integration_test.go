package httpapi

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dra4wfms/internal/aea"
	"dra4wfms/internal/document"
	"dra4wfms/internal/relay"
	"dra4wfms/internal/testenv"
	"dra4wfms/internal/trace"
	"dra4wfms/internal/wfdef"
)

// failFirst fails the first round trip — the forwarder's KindProcess
// delivery — so the relay is forced into a retry; both attempts must land
// in the same trace.
type failFirst struct{ failed atomic.Bool }

func (f *failFirst) RoundTrip(req *http.Request) (*http.Response, error) {
	if f.failed.CompareAndSwap(false, true) {
		return nil, errors.New("injected: first process delivery dropped")
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestDistributedTraceAcrossTiers is the acceptance test for the tracing
// tentpole: one Fig. 9 review workflow driven over real HTTP through
// portal and TFC servers — the AEA→TFC hop routed through a durable
// relay whose first delivery attempt is dropped — must yield ONE trace
// whose assembled tree contains correctly parent-linked spans from the
// client, http, portal, tfc, relay, pool, and dsig tiers, with the relay
// retry visible as two attempts of the same trace.
func TestDistributedTraceAcrossTiers(t *testing.T) {
	col := trace.Default()
	col.Reset()
	w := newWorld(t)

	// Fig. 9 under the advanced operational model: identical process graph
	// to Fig. 9A, but every hop passes through the TFC tier — the only
	// model that can produce TFC spans at all.
	def := wfdef.Fig9B()
	doc, err := document.New(def, w.env.KeyOf("designer@acme"), testenv.ProcessID(), now)
	if err != nil {
		t.Fatal(err)
	}
	pid := doc.ProcessID()

	// The test driver is the trace root, exactly like `dractl remote`.
	ctx, rootSpan := col.StartRoot(context.Background(), "client_drive_seconds", nil)
	traceID := rootSpan.Context().TraceID.String()

	designer := w.clientFor(t, "designer@acme")
	if _, err := designer.StoreInitialCtx(ctx, doc); err != nil {
		t.Fatal(err)
	}

	// Activity A's TFC hop goes through a relay forwarder with an injected
	// first-attempt failure: at-least-once delivery, same trace.
	fwd, err := NewForwarder("", w.env.KeyOf(wfdef.Fig9Participants["A"]), relay.Config{
		Workers:        2,
		MaxAttempts:    4,
		AttemptTimeout: 5 * time.Second,
		Backoff:        relay.BackoffPolicy{Base: time.Millisecond, Cap: 5 * time.Millisecond},
		Breaker:        relay.BreakerPolicy{Threshold: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fwd.Close() })
	fwd.SetHTTP(&http.Client{Transport: &failFirst{}})
	fwd.SetClock(w.clock)

	steps := []struct {
		act    string
		inputs aea.Inputs
	}{
		{"A", aea.Inputs{"request": "r"}},
		{"B1", aea.Inputs{"techReview": "ok"}},
		{"B2", aea.Inputs{"budgetReview": "ok"}},
		{"C", aea.Inputs{"summary": "s"}},
		{"D", aea.Inputs{"accept": "true"}},
	}
	for _, s := range steps {
		participant := wfdef.Fig9Participants[s.act]
		cli := w.clientFor(t, participant)
		cur, err := cli.RetrieveCtx(ctx, pid)
		if err != nil {
			t.Fatal(err)
		}
		interm, err := w.agents[s.act].ExecuteToTFCCtx(ctx, cur, s.act, s.inputs)
		if err != nil {
			t.Fatal(err)
		}
		var outDoc *document.Document
		if s.act == "A" {
			// Durable relay hop with the forced retry.
			_, outDoc, err = fwd.Process(ctx, w.tfcSrv.URL, interm)
		} else {
			_, outDoc, err = w.tfcClientFor(t, participant).ProcessViaTFCCtx(ctx, interm)
		}
		if err != nil {
			t.Fatalf("%s via TFC: %v", s.act, err)
		}
		if _, err := cli.StoreCtx(ctx, outDoc); err != nil {
			t.Fatal(err)
		}
	}
	rootSpan.End()

	// Fetch the trace over the wire exactly as dractl trace does — from
	// both tiers, merged (here both tiers share one process and ring, so
	// the merge also exercises Assemble's span-ID dedup).
	portalResp, err := w.clientFor(t, "designer@acme").Traces(traceID)
	if err != nil {
		t.Fatal(err)
	}
	tfcResp, err := w.tfcClientFor(t, "designer@acme").Traces(traceID)
	if err != nil {
		t.Fatal(err)
	}
	spans := append(portalResp.Spans, tfcResp.Spans...)
	if len(spans) == 0 {
		t.Fatal("no spans recorded for the drive's trace")
	}
	for _, fs := range spans {
		if fs.TraceID != traceID {
			t.Fatalf("span %s has trace %s, want %s", fs.Name, fs.TraceID, traceID)
		}
	}

	// The portal bound the workflow instance to the trace: the cascade is
	// queryable by process ID too.
	byProcess, err := w.clientFor(t, "designer@acme").Traces("")
	if err != nil {
		t.Fatal(err)
	}
	if byProcess.Bindings[pid] != traceID {
		t.Fatalf("instance binding %q = %q, want %q", pid, byProcess.Bindings[pid], traceID)
	}

	// Every architectural tier contributed spans.
	byID := map[string]trace.FinishedSpan{}
	tiers := map[string]int{}
	for _, fs := range portalResp.Spans {
		byID[fs.SpanID] = fs
		tiers[fs.Tier]++
	}
	for _, tier := range []string{"client", "http", "portal", "tfc", "relay", "pool", "dsig"} {
		if tiers[tier] == 0 {
			t.Errorf("no spans from tier %q (got %v)", tier, tiers)
		}
	}

	rootID := rootSpan.Context().SpanID.String()

	// The relay retry: two delivery attempts, both children of the root
	// (the forwarder enqueued under the driver's span), first errored.
	var attempts []trace.FinishedSpan
	for _, fs := range byID {
		if fs.Name == "relay_delivery_seconds" {
			attempts = append(attempts, fs)
		}
	}
	if len(attempts) != 2 {
		t.Fatalf("relay delivery spans = %d, want 2 (failed attempt + retry)", len(attempts))
	}
	var sawFail, sawOK bool
	for _, a := range attempts {
		if a.ParentID != rootID {
			t.Errorf("relay attempt parent = %s, want root %s", a.ParentID, rootID)
		}
		switch a.Attrs["attempt"] {
		case "1":
			sawFail = a.Status == "error"
		case "2":
			sawOK = a.Status == ""
		}
	}
	if !sawFail || !sawOK {
		t.Fatalf("attempts = %+v, want attempt 1 errored and attempt 2 clean", attempts)
	}

	// The retried delivery's HTTP hop is a child of the retry span, and
	// the TFC's processing span is a child of that HTTP hop: the trace
	// crosses the wire with correct links.
	var retrySpan trace.FinishedSpan
	for _, a := range attempts {
		if a.Attrs["attempt"] == "2" {
			retrySpan = a
		}
	}
	var tfcHTTP trace.FinishedSpan
	for _, fs := range byID {
		if fs.Tier == "http" && fs.ParentID == retrySpan.SpanID {
			tfcHTTP = fs
		}
	}
	if tfcHTTP.SpanID == "" {
		t.Fatal("no http span parented to the relay retry — traceparent not forwarded on redelivery")
	}
	if route := tfcHTTP.Attrs["route"]; route != "POST /v1/process" {
		t.Fatalf("relay retry's http span route = %q, want POST /v1/process", route)
	}
	foundTFCChild := false
	for _, fs := range byID {
		if fs.Tier == "tfc" && fs.ParentID == tfcHTTP.SpanID {
			foundTFCChild = true
		}
	}
	if !foundTFCChild {
		t.Fatal("no tfc span parented to the retried hop's http span")
	}

	// Assembly: the merged (duplicated) fetch collapses to one tree rooted
	// at the driver span, with no orphans.
	roots := trace.Assemble(spans)
	if len(roots) != 1 {
		t.Fatalf("assembled roots = %d, want 1", len(roots))
	}
	if roots[0].Span.Name != "client_drive_seconds" {
		t.Fatalf("root span = %q", roots[0].Span.Name)
	}
	visited := 0
	trace.Walk(roots, func(n *trace.Node, depth int) { visited++ })
	if visited != len(byID) {
		t.Fatalf("walked %d spans, ring holds %d — orphaned spans in the tree", visited, len(byID))
	}

	// The waterfall names every tier and the retry's error status.
	var buf bytes.Buffer
	trace.Waterfall(&buf, roots)
	render := buf.String()
	for _, want := range []string{"portal", "tfc", "relay", "pool", "dsig", "[error]", "per-tier span time"} {
		if !strings.Contains(render, want) {
			t.Errorf("waterfall missing %q:\n%s", want, render)
		}
	}
}
