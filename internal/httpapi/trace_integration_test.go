package httpapi

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"dra4wfms/internal/aea"
	"dra4wfms/internal/document"
	"dra4wfms/internal/testenv"
	"dra4wfms/internal/trace"
	"dra4wfms/internal/wfdef"
)

// TestDistributedTraceAcrossTiers: one Fig. 9 review workflow driven
// over real HTTP through portal and TFC servers — every AEA→TFC hop a
// signed Client call, as the benchmark driver makes it, and the portal's
// webhook to the first participant answered 503 once — must yield ONE
// trace whose assembled tree contains correctly parent-linked spans from
// the client, http, portal, tfc, relay, pool, and dsig tiers, with the
// relay retry visible as two attempts of the same trace.
func TestDistributedTraceAcrossTiers(t *testing.T) {
	col := trace.Default()
	col.Reset()
	w := newWorld(t)
	w.env.MustRegister("portal@cloud")
	_, webhooks := w.webhookPortal(t, "")

	// A's callback refuses the first delivery and records the traceparent
	// the retry carries.
	var (
		hits         atomic.Int32
		retryParent  atomic.Value
		participantA = wfdef.Fig9Participants["A"]
	)
	callback := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if hits.Add(1) == 1 {
			http.Error(rw, "busy", http.StatusServiceUnavailable)
			return
		}
		retryParent.Store(req.Header.Get(TraceparentHeader))
	}))
	t.Cleanup(callback.Close)
	if err := w.clientFor(t, participantA).RegisterWebhook(callback.URL, ""); err != nil {
		t.Fatal(err)
	}

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
		_, outDoc, err := w.tfcClientFor(t, participant).ProcessViaTFCCtx(ctx, interm)
		if err != nil {
			t.Fatalf("%s via TFC: %v", s.act, err)
		}
		if _, err := cli.StoreCtx(ctx, outDoc); err != nil {
			t.Fatal(err)
		}
	}
	rootSpan.End()
	webhooks.Relay().Flush()

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

	// Every TFC hop crossed the wire with correct links: the TFC's
	// processing span is a child of the http span of POST /v1/process.
	tfcHops := 0
	for _, fs := range byID {
		if parent, ok := byID[fs.ParentID]; ok && fs.Tier == "tfc" &&
			parent.Tier == "http" && parent.Attrs["route"] == "POST /v1/process" {
			tfcHops++
		}
	}
	if tfcHops != len(steps) {
		t.Fatalf("tfc spans under a POST /v1/process http span = %d, want %d", tfcHops, len(steps))
	}

	// The relay retry: two delivery attempts of A's webhook, both children
	// of the portal span of the store that enabled A, the first errored.
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
	var retrySpan trace.FinishedSpan
	for _, a := range attempts {
		if a.ParentID != attempts[0].ParentID || byID[a.ParentID].Tier != "portal" {
			t.Errorf("relay attempt parent = %+v, want the portal store span, shared by both attempts", byID[a.ParentID])
		}
		switch a.Attrs["attempt"] {
		case "1":
			sawFail = a.Status == "error"
		case "2":
			sawOK = a.Status == ""
			retrySpan = a
		}
	}
	if !sawFail || !sawOK {
		t.Fatalf("attempts = %+v, want attempt 1 errored and attempt 2 clean", attempts)
	}

	// The retried delivery carried the retry span as its parent: the
	// callback can join the trace under the attempt that reached it.
	got, _ := retryParent.Load().(string)
	if sc, ok := trace.ParseTraceparent(got); !ok || sc.TraceID.String() != traceID || sc.SpanID.String() != retrySpan.SpanID {
		t.Fatalf("retried webhook traceparent = %q, want trace %s, parent span %s", got, traceID, retrySpan.SpanID)
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
