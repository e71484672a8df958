package httpapi

import (
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"

	"dra4wfms/internal/aea"
	"dra4wfms/internal/document"
	"dra4wfms/internal/testenv"
	"dra4wfms/internal/wfdef"
)

// storeLog records the store requests a portal answered: path and status.
type storeLog struct {
	mu   sync.Mutex
	reqs []string
}

func (l *storeLog) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || !strings.HasPrefix(r.URL.Path, "/v1/documents") {
			h.ServeHTTP(w, r)
			return
		}
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(rec, r)
		l.mu.Lock()
		defer l.mu.Unlock()
		path := r.URL.Path
		if strings.HasSuffix(path, "/cers") {
			path = "cers"
		}
		l.reqs = append(l.reqs, path+" "+strconv.Itoa(rec.status))
	})
}

func (l *storeLog) take() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.reqs
	l.reqs = nil
	return out
}

// TestAdvancedHopStoresOnce: a Fig. 9B hop — retrieve, execute to the
// TFC, ProcessViaTFCCtx, store — stores the notarized document with
// exactly one request, on the delta route, with no 412 round trip.
func TestAdvancedHopStoresOnce(t *testing.T) {
	var log storeLog
	w := newWorldWith(t, log.wrap)
	doc, err := document.New(wfdef.Fig9B(), w.env.KeyOf("designer@acme"), testenv.ProcessID(), now)
	if err != nil {
		t.Fatal(err)
	}
	pid := doc.ProcessID()
	if _, err := w.clientFor(t, "designer@acme").StoreInitial(doc); err != nil {
		t.Fatal(err)
	}
	log.take()
	for _, s := range fig9Steps {
		participant := wfdef.Fig9Participants[s.act]
		cur, err := w.clientFor(t, participant).Retrieve(pid)
		if err != nil {
			t.Fatal(err)
		}
		interm, err := w.agents[s.act].ExecuteToTFC(cur, s.act, s.inputs)
		if err != nil {
			t.Fatal(err)
		}
		_, out, err := w.tfcClientFor(t, participant).ProcessViaTFC(interm)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.clientFor(t, participant).Store(out); err != nil {
			t.Fatal(err)
		}
		if got := log.take(); len(got) != 1 || got[0] != "cers 200" {
			t.Fatalf("%s: store requests %v, want one delta answered 200", s.act, got)
		}
	}
	final, err := w.clientFor(t, "designer@acme").Retrieve(pid)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := final.VerifyAll(w.env.Registry); err != nil || n != 11 {
		t.Fatalf("VerifyAll = %d, %v; want 11", n, err)
	}
}

// TestDeltaOnUnknownBaseFallsBack: a delta built on a CER the row lacks
// gets 412, and the client posts the whole document once, which stores
// it. The retrieve it was built on carries a Content-Length.
func TestDeltaOnUnknownBaseFallsBack(t *testing.T) {
	var log storeLog
	w := newWorldWith(t, log.wrap)
	doc, err := document.New(wfdef.Fig9A(), w.env.KeyOf("designer@acme"), testenv.ProcessID(), now)
	if err != nil {
		t.Fatal(err)
	}
	pid := doc.ProcessID()
	if _, err := w.clientFor(t, "designer@acme").StoreInitial(doc); err != nil {
		t.Fatal(err)
	}
	alice := w.clientFor(t, wfdef.Fig9Participants["A"])
	resp, body, err := alice.do(http.MethodGet, "/v1/documents/"+pid, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ContentLength != int64(len(body)) {
		t.Fatalf("retrieve Content-Length %d for a %d-byte body", resp.ContentLength, len(body))
	}
	cur, err := alice.Retrieve(pid)
	if err != nil {
		t.Fatal(err)
	}
	outA, err := w.agents["A"].Execute(cur, "A", aea.Inputs{"request": "r"}, now)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Store(outA.Doc); err != nil {
		t.Fatal(err)
	}
	bob := w.clientFor(t, wfdef.Fig9Participants["B1"])
	postA, err := bob.Retrieve(pid)
	if err != nil {
		t.Fatal(err)
	}
	outB1, err := w.agents["B1"].Execute(postA, "B1", aea.Inputs{"techReview": "ok"}, now)
	if err != nil {
		t.Fatal(err)
	}
	// The row goes back to the initial document: it no longer holds the
	// A CER bob's document was built on.
	if err := w.portal.Table.Put(pid, "doc", "content", doc.Bytes()); err != nil {
		t.Fatal(err)
	}
	log.take()
	if _, err := bob.Store(outB1.Doc); err != nil {
		t.Fatal(err)
	}
	if got := log.take(); len(got) != 2 || got[0] != "cers 412" || got[1] != "/v1/documents 200" {
		t.Fatalf("store requests %v, want a 412 delta and one whole document", got)
	}
	stored, err := w.portal.Retrieve(wfdef.Fig9Participants["C"], pid)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := stored.VerifyAll(w.env.Registry); err != nil || n != 3 {
		t.Fatalf("VerifyAll = %d, %v; want the designer's, A's and B1's signatures", n, err)
	}
}
