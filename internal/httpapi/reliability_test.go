package httpapi

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"dra4wfms/internal/aea"
	"dra4wfms/internal/chaos"
	"dra4wfms/internal/document"
	"dra4wfms/internal/relay"
	"dra4wfms/internal/testenv"
	"dra4wfms/internal/wfdef"
)

// TestReceiverIdempotency delivers the same signed CER append twice — as
// a relay retry would after a lost acknowledgement — and asserts the
// document gains exactly one CER, the second request is answered from
// the idempotency cache, and the dup shows up in telemetry.
func TestReceiverIdempotency(t *testing.T) {
	w := newWorld(t)
	doc, err := document.New(wfdef.Fig9A(), w.env.KeyOf("designer@acme"), testenv.ProcessID(), now)
	if err != nil {
		t.Fatal(err)
	}
	pid := doc.ProcessID()
	if _, err := w.clientFor(t, "designer@acme").StoreInitial(doc); err != nil {
		t.Fatal(err)
	}
	alice := wfdef.Fig9Participants["A"]
	cli := w.clientFor(t, alice)
	cur, err := cli.Retrieve(pid)
	if err != nil {
		t.Fatal(err)
	}
	out, err := w.agents["A"].Execute(cur, "A", aea.Inputs{"request": "r"}, now)
	if err != nil {
		t.Fatal(err)
	}
	body := out.Doc.Bytes()
	key := relay.IdempotencyKey(KindStore, w.portalSrv.URL, body)
	before := tel.Counter("http_requests_deduplicated_total").Value()

	send := func(principal string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, w.portalSrv.URL+"/v1/documents", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", ContentXML)
		req.Header.Set(HeaderIdempotencyKey, key)
		// Each delivery attempt is signed afresh (the nonce cache rejects
		// verbatim replays); only the idempotency key is shared.
		if err := SignRequest(req, body, w.env.KeyOf(principal), w.clock()); err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, b
	}

	r1, b1 := send(alice)
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("first store: %s: %s", r1.Status, b1)
	}
	if r1.Header.Get(HeaderIdempotentReplay) != "" {
		t.Fatal("first store must not be marked as a replay")
	}
	r2, b2 := send(alice)
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("redelivered store: %s: %s", r2.Status, b2)
	}
	if r2.Header.Get(HeaderIdempotentReplay) != "true" {
		t.Fatal("redelivery not answered from the idempotency cache")
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("replayed response differs:\n%s\nvs\n%s", b1, b2)
	}

	// Exactly one CER: initial signature + A's CER cascade.
	final, err := cli.Retrieve(pid)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := final.VerifyAll(w.env.Registry); err != nil || n != 2 {
		t.Fatalf("VerifyAll = %d, %v — want exactly 2 (initial + one CER)", n, err)
	}
	if got := tel.Counter("http_requests_deduplicated_total").Value(); got != before+1 {
		t.Fatalf("deduplicated counter advanced by %d, want 1", got-before)
	}

	// The cache is scoped per principal: another caller reusing the key
	// is not served alice's cached response — the handler runs (the
	// portal's merge keeps the re-store harmless, but not from the cache).
	bob := wfdef.Fig9Participants["B1"]
	r3, _ := send(bob)
	if r3.Header.Get(HeaderIdempotentReplay) != "" {
		t.Fatal("idempotency cache leaked across principals")
	}
	final, err = cli.Retrieve(pid)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := final.VerifyAll(w.env.Registry); err != nil || n != 2 {
		t.Fatalf("after cross-principal redelivery VerifyAll = %d, %v — want still 2", n, err)
	}
}

// faultyWorld builds forwarders whose every hop passes through one
// seeded chaos network dropping, duplicating, and un-acking deliveries.
type faultyWorld struct {
	w    *world
	net  *chaos.Network
	rnd  func() float64
	fwds []*Forwarder
}

func newFaultyWorld(t *testing.T, seed int64) *faultyWorld {
	t.Helper()
	src := rand.New(rand.NewSource(seed))
	var mu sync.Mutex
	net := chaos.NewNetwork(seed)
	net.SetDefault(chaos.LinkFaults{Drop: 0.2, Dup: 0.2, AckLoss: 0.1})
	return &faultyWorld{
		w:   newWorld(t),
		net: net,
		rnd: func() float64 {
			mu.Lock()
			defer mu.Unlock()
			return src.Float64()
		},
	}
}

// forwarderFor starts a relay forwarder for one principal with 20% of
// hops dropped, 20% duplicated, and 10% delivered-but-unacknowledged.
func (fw *faultyWorld) forwarderFor(t *testing.T, id string) *Forwarder {
	t.Helper()
	cfg := relay.Config{
		Workers:        2,
		MaxAttempts:    50,
		AttemptTimeout: 5 * time.Second,
		Backoff:        relay.BackoffPolicy{Base: 2 * time.Millisecond, Cap: 20 * time.Millisecond},
		Breaker:        relay.BreakerPolicy{Threshold: -1},
		Rand:           fw.rnd,
	}
	f, err := NewForwarder("", fw.w.env.KeyOf(id), cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.SetHTTP(&http.Client{Transport: fw.net.RoundTripper(id, nil, nil)})
	f.SetClock(fw.w.clock)
	t.Cleanup(func() { _ = f.Close() })
	fw.fwds = append(fw.fwds, f)
	return f
}

// verify asserts the exactly-once outcome: workflow completed with one
// CER per activity (wantSigs total signatures — 6 for Fig. 9A, 11 for
// Fig. 9B where each step also carries the TFC's notarization), no
// delivery stuck outside the DLQ, faults actually fired, and the relay
// metrics visible in the exposition.
func (fw *faultyWorld) verify(t *testing.T, pid string, wantSigs int) {
	t.Helper()
	designer := fw.w.clientFor(t, "designer@acme")
	st, err := designer.Status(pid)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "completed" || len(st.Steps) != 5 {
		t.Fatalf("status under faults = %+v", st)
	}
	final, err := designer.Retrieve(pid)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := final.VerifyAll(fw.w.env.Registry); err != nil || n != wantSigs {
		t.Fatalf("VerifyAll = %d, %v — want %d (exactly one CER per activity)", n, err, wantSigs)
	}
	var attempts, delivered uint64
	for _, f := range fw.fwds {
		s := f.Relay().Stats()
		if s.Pending != 0 || s.Dead != 0 {
			t.Fatalf("deliveries stuck outside the DLQ: %+v", s)
		}
		attempts, delivered = attempts+uint64(s.Attempts), delivered+uint64(s.Delivered)
	}
	if attempts <= delivered {
		t.Fatalf("no delivery was ever retried (%d attempts, %d delivered): no fault fired; the run proved nothing", attempts, delivered)
	}
	t.Logf("faults forced %d retries over %d deliveries", attempts-delivered, delivered)

	metrics, err := designer.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"relay_queue_depth", "relay_dlq_size", "relay_delivered_total", "relay_attempts_total", "relay_breaker_state"} {
		if !strings.Contains(metrics, name) {
			t.Fatalf("metric %s missing from /v1/metrics exposition", name)
		}
	}
}

// TestFaultInjectionBasicModel drives the Fig. 9A workflow with every
// portal hop relayed through injected faults and proves exactly-once
// completion.
func TestFaultInjectionBasicModel(t *testing.T) {
	fw := newFaultyWorld(t, 9)
	ctx := context.Background()
	doc, err := document.New(wfdef.Fig9A(), fw.w.env.KeyOf("designer@acme"), testenv.ProcessID(), now)
	if err != nil {
		t.Fatal(err)
	}
	pid := doc.ProcessID()
	if _, err := fw.forwarderFor(t, "designer@acme").StoreInitial(ctx, fw.w.portalSrv.URL, doc); err != nil {
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
		cur, err := fw.w.clientFor(t, participant).Retrieve(pid)
		if err != nil {
			t.Fatal(err)
		}
		out, err := fw.w.agents[s.act].Execute(cur, s.act, s.inputs, now)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fw.forwarderFor(t, participant).Store(ctx, fw.w.portalSrv.URL, out.Doc); err != nil {
			t.Fatalf("%s store under faults: %v", s.act, err)
		}
	}
	fw.verify(t, pid, 6)
}

// TestFaultInjectionAdvancedModel drives Fig. 9B — every AEA→TFC
// forwarding hop and portal store relayed through injected faults — and
// proves exactly-once completion with notarized timestamps.
func TestFaultInjectionAdvancedModel(t *testing.T) {
	fw := newFaultyWorld(t, 23)
	ctx := context.Background()
	doc, err := document.New(wfdef.Fig9B(), fw.w.env.KeyOf("designer@acme"), testenv.ProcessID(), now)
	if err != nil {
		t.Fatal(err)
	}
	pid := doc.ProcessID()
	if _, err := fw.forwarderFor(t, "designer@acme").StoreInitial(ctx, fw.w.portalSrv.URL, doc); err != nil {
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
		f := fw.forwarderFor(t, participant)
		cur, err := fw.w.clientFor(t, participant).Retrieve(pid)
		if err != nil {
			t.Fatal(err)
		}
		interm, err := fw.w.agents[s.act].ExecuteToTFC(cur, s.act, s.inputs)
		if err != nil {
			t.Fatal(err)
		}
		pr, outDoc, err := f.Process(ctx, fw.w.tfcSrv.URL, interm)
		if err != nil {
			t.Fatalf("%s TFC hop under faults: %v", s.act, err)
		}
		if pr.Timestamp.IsZero() {
			t.Fatalf("%s: no notarized timestamp", s.act)
		}
		if _, err := f.Store(ctx, fw.w.portalSrv.URL, outDoc); err != nil {
			t.Fatalf("%s store under faults: %v", s.act, err)
		}
		if s.act == "D" && !pr.Completed {
			t.Fatal("final step did not complete")
		}
	}
	fw.verify(t, pid, 11)

	// The TFC saw each forwarding exactly once.
	recs, err := fw.w.tfcClientFor(t, "designer@acme").TFCRecords(pid)
	if err != nil || len(recs) != 5 {
		t.Fatalf("TFC records = %d, %v — want exactly 5", len(recs), err)
	}
}
