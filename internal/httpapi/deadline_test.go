package httpapi

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dra4wfms/internal/testenv"
)

func TestDeadlineHeaderRoundtrip(t *testing.T) {
	h := http.Header{}
	dl := time.Date(2026, 8, 9, 12, 0, 0, 123456789, time.UTC)
	ctx, cancel := context.WithDeadline(context.Background(), dl)
	defer cancel()
	AttachDeadline(ctx, h)
	got, ok := ParseDeadline(h)
	if !ok {
		t.Fatal("attached deadline did not parse back")
	}
	if !got.Equal(dl) {
		t.Fatalf("roundtrip deadline %v, want %v", got, dl)
	}

	if _, ok := ParseDeadline(http.Header{}); ok {
		t.Fatal("missing header parsed")
	}
	bad := http.Header{}
	bad.Set(DeadlineHeader, "not-a-time")
	if _, ok := ParseDeadline(bad); ok {
		t.Fatal("garbage header parsed")
	}
	// No deadline on the context → no header.
	h2 := http.Header{}
	AttachDeadline(context.Background(), h2)
	if h2.Get(DeadlineHeader) != "" {
		t.Fatal("header attached without a context deadline")
	}
}

func TestInstrumentShedsExpiredDeadline(t *testing.T) {
	var called, sawDeadline atomic.Bool
	h := instrument("GET /v1/test", func(w http.ResponseWriter, r *http.Request) {
		called.Store(true)
		_, ok := r.Context().Deadline()
		sawDeadline.Store(ok)
	})

	// Expired deadline: 504 before the handler (and so before any
	// signature verification a real route would do).
	req := httptest.NewRequest(http.MethodGet, "/v1/test", nil)
	req.Header.Set(DeadlineHeader, time.Now().Add(-time.Second).UTC().Format(time.RFC3339Nano))
	rec := httptest.NewRecorder()
	h(rec, req)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline answered %d, want 504", rec.Code)
	}
	if called.Load() {
		t.Fatal("handler ran despite expired deadline")
	}

	// Live deadline: threaded into the request context.
	req = httptest.NewRequest(http.MethodGet, "/v1/test", nil)
	req.Header.Set(DeadlineHeader, time.Now().Add(time.Minute).UTC().Format(time.RFC3339Nano))
	rec = httptest.NewRecorder()
	h(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("live deadline answered %d, want 200", rec.Code)
	}
	if !called.Load() || !sawDeadline.Load() {
		t.Fatal("handler did not receive the propagated deadline as a ctx deadline")
	}

	// Garbage header: ignored, request served.
	req = httptest.NewRequest(http.MethodGet, "/v1/test", nil)
	req.Header.Set(DeadlineHeader, "yesterday-ish")
	rec = httptest.NewRecorder()
	h(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("garbage deadline answered %d, want 200", rec.Code)
	}
}

func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC)
	if d, ok := parseRetryAfter("3", now); !ok || d != 3*time.Second {
		t.Fatalf("seconds form: %v %v", d, ok)
	}
	date := now.Add(90 * time.Second)
	if d, ok := parseRetryAfter(date.Format(http.TimeFormat), now); !ok || d != 90*time.Second {
		t.Fatalf("date form: %v %v", d, ok)
	}
	if d, ok := parseRetryAfter(now.Add(-time.Minute).Format(http.TimeFormat), now); !ok || d != 0 {
		t.Fatalf("past date should clamp to 0: %v %v", d, ok)
	}
	if _, ok := parseRetryAfter("", now); ok {
		t.Fatal("empty value parsed")
	}
	if _, ok := parseRetryAfter("-5", now); ok {
		t.Fatal("negative seconds parsed")
	}
	if _, ok := parseRetryAfter("soonish", now); ok {
		t.Fatal("garbage parsed")
	}
	// 10^10 s does not fit a Duration: unclamped, it wraps negative and
	// the client retries at once instead of declining.
	if d, ok := parseRetryAfter("10000000000", now); !ok || d != maxRetryAfter {
		t.Fatalf("overflowing seconds: %v %v, want %v", d, ok, maxRetryAfter)
	}
	if d, ok := parseRetryAfter(now.AddDate(400, 0, 0).Format(http.TimeFormat), now); !ok || d != maxRetryAfter {
		t.Fatalf("far-future date: %v %v, want %v", d, ok, maxRetryAfter)
	}
}

// FuzzParseRetryAfter: whatever a server sends, an accepted Retry-After
// is a wait in [0, maxRetryAfter].
func FuzzParseRetryAfter(f *testing.F) {
	now := time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC)
	for _, seed := range []string{
		"3", now.Add(90 * time.Second).Format(http.TimeFormat), now.Add(-time.Minute).Format(http.TimeFormat),
		"", "-5", "soonish", "10000000000", now.AddDate(400, 0, 0).Format(http.TimeFormat),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, v string) {
		if d, ok := parseRetryAfter(v, now); ok && (d < 0 || d > maxRetryAfter) {
			t.Fatalf("parseRetryAfter(%q) = %v, want a wait in [0, %v]", v, d, maxRetryAfter)
		}
	})
}

// shedServer answers 429 + Retry-After for the first n requests, then 200.
func shedServer(t *testing.T, shed int, retryAfter string) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= int64(shed) {
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(`[]`))
	}))
	t.Cleanup(srv.Close)
	return srv, &hits
}

func TestClientHonorsRetryAfter(t *testing.T) {
	env := testenv.Fig9(0)
	srv, hits := shedServer(t, 2, "0")
	c := NewClient(srv.URL, env.KeyOf("alice@acme"))
	if _, _, err := c.doCtx(context.Background(), http.MethodGet, "/v1/worklist", nil); err != nil {
		t.Fatalf("shed-then-serve request failed: %v", err)
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3 (2 sheds + success)", got)
	}
}

func TestClientStopsRetryingWithoutRetryAfter(t *testing.T) {
	env := testenv.Fig9(0)
	srv, hits := shedServer(t, 100, "")
	c := NewClient(srv.URL, env.KeyOf("alice@acme"))
	_, _, err := c.doCtx(context.Background(), http.MethodGet, "/v1/worklist", nil)
	if err == nil {
		t.Fatal("want error from unending 429s")
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("client retried %d times without server guidance, want a single attempt", got)
	}
}

func TestClientRetryRespectsDeadline(t *testing.T) {
	env := testenv.Fig9(0)
	srv, hits := shedServer(t, 100, "30")
	c := NewClient(srv.URL, env.KeyOf("alice@acme"))
	c.Timeout = 300 * time.Millisecond
	start := time.Now()
	_, _, err := c.doCtx(context.Background(), http.MethodGet, "/v1/worklist", nil)
	if err == nil || !strings.Contains(err.Error(), "429") {
		t.Fatalf("want the final 429 surfaced, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("client waited %v despite a 300ms budget that cannot fit a 30s Retry-After", elapsed)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("client burned %d attempts, want 1 — the wait cannot fit the deadline", got)
	}
}

func TestClientRetryCapped(t *testing.T) {
	env := testenv.Fig9(0)
	srv, hits := shedServer(t, 100, "0")
	c := NewClient(srv.URL, env.KeyOf("alice@acme"))
	_, _, err := c.doCtx(context.Background(), http.MethodGet, "/v1/worklist", nil)
	if err == nil {
		t.Fatal("want error from unending 429s")
	}
	if got := hits.Load(); got != int64(maxShedRetries)+1 {
		t.Fatalf("server saw %d attempts, want %d", got, maxShedRetries+1)
	}
}
