package httpapi

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// blockingHandler parks requests until released, so tests can hold slots
// occupied while probing the gate.
type blockingHandler struct {
	mu      sync.Mutex
	open    bool
	cond    *sync.Cond
	entered chan struct{}
}

func newBlockingHandler(capacity int) *blockingHandler {
	b := &blockingHandler{entered: make(chan struct{}, capacity)}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *blockingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	b.entered <- struct{}{}
	b.mu.Lock()
	for !b.open {
		b.cond.Wait()
	}
	b.mu.Unlock()
	w.WriteHeader(http.StatusOK)
}

func (b *blockingHandler) release() {
	b.mu.Lock()
	b.open = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

// fire launches a request through h and reports its status code on a channel.
func fire(h http.HandlerFunc, method string) chan int {
	done := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest(method, "/v1/test", nil))
		done <- rec.Code
	}()
	return done
}

func TestAdmissionShedsAtSaturation(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxInFlight: 2, WriteShare: 1, RetryAfter: 7 * time.Second})
	blocker := newBlockingHandler(2)
	defer blocker.release()
	h := a.Middleware(ClassRead, blocker.ServeHTTP)

	r1 := fire(h, http.MethodGet)
	r2 := fire(h, http.MethodGet)
	<-blocker.entered
	<-blocker.entered

	// Both slots held: the third read is shed with the overload contract.
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodGet, "/v1/test", nil))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated gate answered %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After = %q, want \"7\"", got)
	}
	if a.Shed() != 1 {
		t.Fatalf("Shed = %d, want 1", a.Shed())
	}

	// Probes bypass the gate even at saturation.
	probe := a.Middleware(ClassProbe, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	rec = httptest.NewRecorder()
	probe(rec, httptest.NewRequest(http.MethodGet, "/v1/readyz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("probe shed with %d at saturation", rec.Code)
	}

	blocker.release()
	if c := <-r1; c != http.StatusOK {
		t.Fatalf("first admitted request answered %d", c)
	}
	if c := <-r2; c != http.StatusOK {
		t.Fatalf("second admitted request answered %d", c)
	}

	// Slots freed: admitted again.
	rec = httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodGet, "/v1/test", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("gate did not recover after release: %d", rec.Code)
	}
	if a.InFlight() != 0 {
		t.Fatalf("InFlight = %d after all requests settled", a.InFlight())
	}
}

func TestAdmissionWritesShedBeforeReads(t *testing.T) {
	// 4 slots, writes capped at half of them.
	a := NewAdmission(AdmissionConfig{MaxInFlight: 4, WriteShare: 0.5})
	blocker := newBlockingHandler(4)
	defer blocker.release()
	writes := a.Middleware(ClassWrite, blocker.ServeHTTP)
	reads := a.Middleware(ClassRead, blocker.ServeHTTP)

	w1 := fire(writes, http.MethodPost)
	w2 := fire(writes, http.MethodPost)
	<-blocker.entered
	<-blocker.entered

	// Write share exhausted: the next write sheds while a read still fits.
	rec := httptest.NewRecorder()
	writes(rec, httptest.NewRequest(http.MethodPost, "/v1/test", nil))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("third write answered %d, want 429", rec.Code)
	}
	r1 := fire(reads, http.MethodGet)
	<-blocker.entered

	blocker.release()
	for _, done := range []chan int{w1, w2, r1} {
		if c := <-done; c != http.StatusOK {
			t.Fatalf("admitted request answered %d", c)
		}
	}
}

func TestAdmissionPressureSignalsShedWrites(t *testing.T) {
	pending := 0
	a := NewAdmission(AdmissionConfig{
		MaxInFlight:     16,
		RelayPending:    func() int { return pending },
		MaxRelayPending: 8,
	})
	ok := func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusOK) }
	writes := a.Middleware(ClassWrite, ok)
	reads := a.Middleware(ClassRead, ok)

	// Below the threshold: writes flow.
	rec := httptest.NewRecorder()
	writes(rec, httptest.NewRequest(http.MethodPost, "/v1/test", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("unpressured write answered %d", rec.Code)
	}

	// Relay backlog past its bound: writes shed, reads keep flowing.
	pending = 9
	rec = httptest.NewRecorder()
	writes(rec, httptest.NewRequest(http.MethodPost, "/v1/test", nil))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("pressured write answered %d, want 429", rec.Code)
	}
	rec = httptest.NewRecorder()
	reads(rec, httptest.NewRequest(http.MethodGet, "/v1/test", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("read shed by a write-pressure signal: %d", rec.Code)
	}

	// Pressure released: writes recover, and no slots leaked on the way.
	pending = 0
	rec = httptest.NewRecorder()
	writes(rec, httptest.NewRequest(http.MethodPost, "/v1/test", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("write after pressure released answered %d", rec.Code)
	}
	if a.InFlight() != 0 {
		t.Fatalf("InFlight = %d, want 0 (leaked slot on shed path)", a.InFlight())
	}
}

func TestAdmissionNilAdmitsEverything(t *testing.T) {
	var a *Admission
	h := a.Middleware(ClassWrite, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodPost, "/v1/test", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("nil gate answered %d", rec.Code)
	}
	if a.Shed() != 0 || a.InFlight() != 0 {
		t.Fatal("nil gate counted something")
	}
}

func TestClassOf(t *testing.T) {
	if ClassOf("GET /v1/worklist") != ClassRead {
		t.Fatal("GET should class as read")
	}
	for _, p := range []string{"POST /v1/documents", "PUT /v1/templates", "DELETE /x"} {
		if ClassOf(p) != ClassWrite {
			t.Fatalf("%s should class as write", p)
		}
	}
}
