package httpapi

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dra4wfms/internal/aea"
	"dra4wfms/internal/chaos"
	"dra4wfms/internal/document"
	"dra4wfms/internal/portal"
	"dra4wfms/internal/relay"
	"dra4wfms/internal/testenv"
	"dra4wfms/internal/wfdef"
)

// TestFaultInjectionWebhooks pushes webhook notifications over a link
// that drops 20% of the deliveries, duplicates 20% and loses the
// response of 10%, and proves the delivery contract end to end: every
// attempt of one notification carries the same idempotency key, so a
// callback that applies each key once applies each notification exactly
// once; the relay ends empty with nothing dead-lettered.
func TestFaultInjectionWebhooks(t *testing.T) {
	w := newWorld(t)
	w.env.MustRegister("portal@cloud")
	auth := NewAuthenticator(w.env.Registry, w.clock)

	var (
		mu      sync.Mutex
		applied = map[string]string{} // idempotency key → activity
	)
	callback := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		body, _ := io.ReadAll(req.Body)
		// A duplicated request reuses its signature's nonce: refused here,
		// and its response discarded by the sender's link.
		if _, err := auth.Verify(req, body); err != nil {
			http.Error(rw, err.Error(), http.StatusUnauthorized)
			return
		}
		var n portal.Notification
		if err := json.Unmarshal(body, &n); err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		key := req.Header.Get(HeaderIdempotencyKey)
		mu.Lock()
		defer mu.Unlock()
		if applied[key] == "" {
			applied[key] = n.Activity
		}
	}))
	t.Cleanup(callback.Close)

	net := chaos.NewNetwork(9)
	net.SetDefault(chaos.LinkFaults{Drop: 0.2, Dup: 0.2, AckLoss: 0.1})
	src := rand.New(rand.NewSource(9))
	var srcMu sync.Mutex
	d, err := newWebhookDispatcher(w.env.KeyOf("portal@cloud"), w.clock, "",
		&http.Client{Transport: net.RoundTripper("portal@cloud", nil, nil)},
		relay.Config{
			Workers:        2,
			MaxAttempts:    50,
			AttemptTimeout: 5 * time.Second,
			Backoff:        relay.BackoffPolicy{Base: 2 * time.Millisecond, Cap: 20 * time.Millisecond},
			Breaker:        relay.BreakerPolicy{Threshold: -1},
			Budget:         relay.BudgetPolicy{Ratio: -1}, // a 30% failure rate outruns the default retry budget
			Rand: func() float64 {
				srcMu.Lock()
				defer srcMu.Unlock()
				return src.Float64()
			},
		})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.Close() })
	alice := wfdef.Fig9Participants["A"]
	if err := d.Register(alice, callback.URL); err != nil {
		t.Fatal(err)
	}

	const notes = 60
	for i := 0; i < notes; i++ {
		d.Notify(context.Background(), portal.Notification{Participant: alice, ProcessID: "p-faults", Activity: fmt.Sprintf("act-%02d", i)})
	}
	d.Relay().Flush()

	st := d.Relay().Stats()
	if st.Pending != 0 || st.Dead != 0 || st.Delivered != notes {
		t.Fatalf("relay under faults = %+v, want %d delivered and nothing left", st, notes)
	}
	if st.Attempts <= notes {
		t.Fatalf("%d attempts for %d notifications: no fault fired; the run proved nothing", st.Attempts, notes)
	}
	seen := map[string]int{}
	mu.Lock()
	for _, act := range applied {
		seen[act]++
	}
	keys := len(applied)
	mu.Unlock()
	for i := 0; i < notes; i++ {
		if act := fmt.Sprintf("act-%02d", i); seen[act] != 1 {
			t.Fatalf("%s applied %d times, want exactly 1 (%d keys for %d notifications)", act, seen[act], keys, notes)
		}
	}
	t.Logf("faults forced %d retries over %d notifications", st.Attempts-st.Delivered, notes)

	metrics, err := w.clientFor(t, "designer@acme").Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"relay_queue_depth", "relay_dlq_size", "relay_delivered_total", "relay_attempts_total", "relay_breaker_state"} {
		if !strings.Contains(metrics, name) {
			t.Fatalf("metric %s missing from /v1/metrics exposition", name)
		}
	}
}

// faultyHops sends the document hops of one workflow through a seeded
// chaos network that drops 20% of the requests, duplicates 20% and
// loses the response of 10%. Like an AEA whose request timed out, the
// sender retries every hop whose response it did not get; each retry is
// signed afresh, so only the receiver's own semantics (CER merge is a
// set union) keep an applied-then-retried hop harmless.
type faultyHops struct {
	w       *world
	net     *chaos.Network
	retries int
}

func newFaultyHops(t *testing.T, seed int64) *faultyHops {
	t.Helper()
	net := chaos.NewNetwork(seed)
	net.SetDefault(chaos.LinkFaults{Drop: 0.2, Dup: 0.2, AckLoss: 0.1})
	return &faultyHops{w: newWorld(t), net: net}
}

// client is id's signed client for baseURL, its requests judged by the
// chaos network on the link id → "portal" or id → "tfc".
func (fh *faultyHops) client(id, baseURL string) *Client {
	c := NewClient(baseURL, fh.w.env.KeyOf(id))
	c.Clock = fh.w.clock
	c.HTTP = &http.Client{Transport: fh.net.RoundTripper(id, func(req *http.Request) string {
		if "http://"+req.URL.Host == fh.w.tfcSrv.URL {
			return "tfc"
		}
		return "portal"
	}, nil)}
	return c
}

// do repeats hop until an attempt gets an answer, and returns that
// answer's error; retried reports that an earlier attempt went
// unanswered, so the receiver may already have applied the hop.
func (fh *faultyHops) do(t *testing.T, what string, hop func() error) (err error, retried bool) {
	t.Helper()
	for attempt := 0; attempt < 50; attempt++ {
		if err = hop(); !chaos.Injected(err) {
			return err, retried
		}
		retried = true
		fh.retries++
	}
	t.Fatalf("%s: 50 attempts in a row lost to injected faults: %v", what, err)
	return nil, false
}

// storeInitial stores the designer's initial document. A retry that
// finds the process already stored means an earlier attempt was applied
// and only its response was lost.
func (fh *faultyHops) storeInitial(t *testing.T, doc *document.Document) {
	t.Helper()
	designer := fh.client("designer@acme", fh.w.portalSrv.URL)
	err, retried := fh.do(t, "initial store", func() error {
		_, err := designer.StoreInitial(doc)
		return err
	})
	if err != nil && !(retried && strings.Contains(err.Error(), "already exists")) {
		t.Fatalf("initial store under faults: %v", err)
	}
}

// store stores one executed document; a re-store merges into itself.
func (fh *faultyHops) store(t *testing.T, participant string, doc *document.Document) {
	t.Helper()
	cli := fh.client(participant, fh.w.portalSrv.URL)
	if err, _ := fh.do(t, participant+" store", func() error {
		_, err := cli.Store(doc)
		return err
	}); err != nil {
		t.Fatalf("%s store under faults: %v", participant, err)
	}
}

// fig9Steps are the inputs that drive Fig. 9A and 9B to completion.
var fig9Steps = []struct {
	act    string
	inputs aea.Inputs
}{
	{"A", aea.Inputs{"request": "r"}},
	{"B1", aea.Inputs{"techReview": "ok"}},
	{"B2", aea.Inputs{"budgetReview": "ok"}},
	{"C", aea.Inputs{"summary": "s"}},
	{"D", aea.Inputs{"accept": "true"}},
}

// verify asserts the exactly-once outcome: the workflow completed with
// one CER per activity (wantSigs signatures in all: 6 for Fig. 9A, 11
// for Fig. 9B where each step also carries the TFC's notarization), and
// faults actually fired.
func (fh *faultyHops) verify(t *testing.T, pid string, wantSigs int) {
	t.Helper()
	designer := fh.w.clientFor(t, "designer@acme")
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
	if n, err := final.VerifyAll(fh.w.env.Registry); err != nil || n != wantSigs {
		t.Fatalf("VerifyAll = %d, %v — want %d (exactly one CER per activity)", n, err, wantSigs)
	}
	if fh.retries == 0 {
		t.Fatal("no hop was ever retried: no fault fired; the run proved nothing")
	}
	t.Logf("faults forced %d retries", fh.retries)
}

// TestFaultInjectionBasicModel drives the Fig. 9A workflow with every
// portal store sent over the faulty link and retried until answered,
// and proves exactly-once completion.
func TestFaultInjectionBasicModel(t *testing.T) {
	fh := newFaultyHops(t, 9)
	doc, err := document.New(wfdef.Fig9A(), fh.w.env.KeyOf("designer@acme"), testenv.ProcessID(), now)
	if err != nil {
		t.Fatal(err)
	}
	pid := doc.ProcessID()
	fh.storeInitial(t, doc)
	for _, s := range fig9Steps {
		participant := wfdef.Fig9Participants[s.act]
		cur, err := fh.w.clientFor(t, participant).Retrieve(pid)
		if err != nil {
			t.Fatal(err)
		}
		out, err := fh.w.agents[s.act].Execute(cur, s.act, s.inputs, now)
		if err != nil {
			t.Fatal(err)
		}
		fh.store(t, participant, out.Doc)
	}
	fh.verify(t, pid, 6)
}

// TestFaultInjectionAdvancedModel drives Fig. 9B, every AEA→TFC
// forwarding hop and portal store sent over a faulty link and retried
// until answered, and proves exactly-once completion with notarized
// timestamps.
func TestFaultInjectionAdvancedModel(t *testing.T) {
	fh := newFaultyHops(t, 23)
	doc, err := document.New(wfdef.Fig9B(), fh.w.env.KeyOf("designer@acme"), testenv.ProcessID(), now)
	if err != nil {
		t.Fatal(err)
	}
	// The TFC link drops and duplicates but keeps its responses: the TFC
	// notarizes a forwarding once and refuses a re-forward as a replay,
	// so a forwarding whose response is lost cannot be recovered.
	fh.net.SetLink(chaos.Wildcard, "tfc", chaos.LinkFaults{Drop: 0.2, Dup: 0.2})
	pid := doc.ProcessID()
	fh.storeInitial(t, doc)
	for _, s := range fig9Steps {
		participant := wfdef.Fig9Participants[s.act]
		cur, err := fh.w.clientFor(t, participant).Retrieve(pid)
		if err != nil {
			t.Fatal(err)
		}
		interm, err := fh.w.agents[s.act].ExecuteToTFC(cur, s.act, s.inputs)
		if err != nil {
			t.Fatal(err)
		}
		tfcCli := fh.client(participant, fh.w.tfcSrv.URL)
		var pr *ProcessResponse
		var outDoc *document.Document
		if err, _ := fh.do(t, s.act+" TFC hop", func() (err error) {
			pr, outDoc, err = tfcCli.ProcessViaTFC(interm)
			return err
		}); err != nil {
			t.Fatalf("%s TFC hop under faults: %v", s.act, err)
		}
		if pr.Timestamp.IsZero() {
			t.Fatalf("%s: no notarized timestamp", s.act)
		}
		fh.store(t, participant, outDoc)
		if s.act == "D" && !pr.Completed {
			t.Fatal("final step did not complete")
		}
	}
	fh.verify(t, pid, 11)

	// The TFC notarized each forwarding exactly once.
	recs, err := fh.w.tfcClientFor(t, "designer@acme").TFCRecords(pid)
	if err != nil || len(recs) != 5 {
		t.Fatalf("TFC records = %d, %v — want exactly 5", len(recs), err)
	}
}
