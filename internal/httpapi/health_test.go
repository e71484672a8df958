package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dra4wfms/internal/relay"
)

func probeStatus(t *testing.T, url string) (int, map[string]string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func TestProbesLifecycle(t *testing.T) {
	p := NewProbes()
	mux := http.NewServeMux()
	registerObservability(mux, false, p)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	// Liveness holds through every phase.
	if code, body := probeStatus(t, srv.URL+"/v1/healthz"); code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz = %d %v", code, body)
	}

	// Fresh probes: recovery not complete yet.
	if code, body := probeStatus(t, srv.URL+"/v1/readyz"); code != http.StatusServiceUnavailable || body["reason"] == "" {
		t.Fatalf("readyz before recovery = %d %v, want 503 with reason", code, body)
	}

	p.SetReady(true)
	if code, _ := probeStatus(t, srv.URL+"/v1/readyz"); code != http.StatusOK {
		t.Fatalf("readyz after SetReady = %d, want 200", code)
	}

	// A failing check makes the server unready with the check's error.
	var checkErr error = fmt.Errorf("backlog too deep")
	p.AddCheck("relay", func() error { return checkErr })
	if code, body := probeStatus(t, srv.URL+"/v1/readyz"); code != http.StatusServiceUnavailable ||
		body["reason"] != "check relay: backlog too deep" {
		t.Fatalf("readyz with failing check = %d %v", code, body)
	}
	checkErr = nil
	if code, _ := probeStatus(t, srv.URL+"/v1/readyz"); code != http.StatusOK {
		t.Fatal("readyz did not recover when the check healed")
	}

	// Draining wins over everything.
	p.StartDraining()
	if code, body := probeStatus(t, srv.URL+"/v1/readyz"); code != http.StatusServiceUnavailable ||
		body["reason"] != "draining: shutdown in progress" {
		t.Fatalf("readyz while draining = %d %v", code, body)
	}
	if code, _ := probeStatus(t, srv.URL+"/v1/healthz"); code != http.StatusOK {
		t.Fatal("healthz failed during drain")
	}
}

func TestReadyzWithoutProbesAlwaysReady(t *testing.T) {
	mux := http.NewServeMux()
	registerObservability(mux, false, nil)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	if code, body := probeStatus(t, srv.URL+"/v1/readyz"); code != http.StatusOK || body["status"] != "ready" {
		t.Fatalf("readyz without probes = %d %v, want always-ready", code, body)
	}
}

// TestRelaySaturationCheck: readiness fails once more deliveries wait in
// the relay than the bound allows, and recovers when they drain.
func TestRelaySaturationCheck(t *testing.T) {
	ob, err := relay.OpenOutbox("")
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	r := relay.New(ob, relay.TransportFunc(func(ctx context.Context, e relay.Entry) error {
		<-release
		return nil
	}), relay.Config{Workers: 1})
	defer r.Close()
	check := RelaySaturationCheck(r, 2)
	if err := check(); err != nil {
		t.Fatalf("empty relay: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := r.Enqueue("peer", KindWebhook, fmt.Sprintf("k%d", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := check(); err == nil {
		t.Fatal("3 pending deliveries passed a bound of 2")
	}
	close(release)
	r.Flush()
	if err := check(); err != nil {
		t.Fatalf("drained relay: %v", err)
	}
}

// TestServeGracefulDrain: a slow in-flight request must complete after the
// context is canceled, and Serve must return nil (clean drain).
func TestServeGracefulDrain(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	var drained bool
	mux := http.NewServeMux()
	mux.HandleFunc("GET /slow", func(w http.ResponseWriter, r *http.Request) {
		close(started)
		<-release
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("done"))
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() {
		serveDone <- ServeListener(ctx, ln, mux, 5*time.Second, func() { drained = true })
	}()

	reqDone := make(chan error, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/slow")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("slow request = %d", resp.StatusCode)
			}
		}
		reqDone <- err
	}()

	<-started
	cancel() // SIGTERM equivalent: shutdown begins with the request in flight
	select {
	case err := <-serveDone:
		t.Fatalf("Serve returned %v before the in-flight request finished", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)

	if err := <-reqDone; err != nil {
		t.Fatalf("in-flight request: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve after drain = %v, want nil", err)
	}
	if !drained {
		t.Fatal("onDrain hook did not run")
	}
}

// TestServeGraceDeadline: when in-flight work outlives the grace window,
// Serve returns the deadline error instead of hanging.
func TestServeGraceDeadline(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	started := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("GET /stuck", func(w http.ResponseWriter, r *http.Request) {
		close(started)
		<-block
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() {
		serveDone <- ServeListener(ctx, ln, mux, 30*time.Millisecond, nil)
	}()
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/stuck")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-started
	cancel()
	if err := <-serveDone; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Serve past grace deadline = %v, want DeadlineExceeded", err)
	}
}
