package httpapi

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"dra4wfms/internal/aea"
	"dra4wfms/internal/document"
	"dra4wfms/internal/telemetry"
	"dra4wfms/internal/testenv"
	"dra4wfms/internal/wfdef"
)

// TestBodyTooLarge413 exercises the request-size limit: an oversized body
// must draw a deliberate 413 with a JSON error (not a connection reset)
// and bump the rejection counter. The limit is shrunk so the test does
// not allocate 64 MiB.
func TestBodyTooLarge413(t *testing.T) {
	old := maxBody
	maxBody = 1024
	t.Cleanup(func() { maxBody = old })

	w := newWorld(t)
	before := mRejected.Value()

	body := strings.Repeat("x", 2048)
	resp, err := http.Post(w.portalSrv.URL+"/v1/documents", ContentXML, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != ContentJSON {
		t.Fatalf("Content-Type = %q, want %q", ct, ContentJSON)
	}
	var msg map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&msg); err != nil {
		t.Fatalf("413 body is not JSON: %v", err)
	}
	if !strings.Contains(msg["error"], "1024") {
		t.Fatalf("413 error = %q, want the byte limit mentioned", msg["error"])
	}
	if got := mRejected.Value() - before; got != 1 {
		t.Fatalf("http_requests_rejected_total delta = %d, want 1", got)
	}

	// A body exactly at the limit must pass the size check (it fails
	// later, as an unsigned request).
	resp2, err := http.Post(w.portalSrv.URL+"/v1/documents", ContentXML, strings.NewReader(strings.Repeat("x", 1024)))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode == http.StatusRequestEntityTooLarge {
		t.Fatal("body exactly at the limit was rejected as too large")
	}
}

// TestDeclaredLengthNotPreallocated: a request body is read before its
// sender is authenticated, so a Content-Length of maxBody with no body
// behind it must not buy a maxBody buffer.
func TestDeclaredLengthNotPreallocated(t *testing.T) {
	w := newWorld(t)
	conn, err := net.Dial("tcp", strings.TrimPrefix(w.portalSrv.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fmt.Fprintf(conn, "POST /v1/documents HTTP/1.1\r\nHost: portal\r\nContent-Length: %d\r\n\r\n<DRA4WfMS>", maxBody)
	conn.(*net.TCPConn).CloseWrite()
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	runtime.ReadMemStats(&after)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 for a body shorter than its Content-Length", resp.StatusCode)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > uint64(maxBody)/4 {
		t.Fatalf("a request declaring %d bytes and sending 10 allocated %d bytes", maxBody, got)
	}
}

// TestReadBody: a body is read whole whether its declared length fits the
// up-front buffer or not, and a short one is an error.
func TestReadBody(t *testing.T) {
	body := strings.Repeat("<CER/>", 100)
	for _, presize := range []int64{16, maxBody} {
		for _, n := range []int64{int64(len(body)), -1} {
			got, err := readBody(strings.NewReader(body), n, presize)
			if err != nil || string(got) != body {
				t.Fatalf("presize %d, length %d: read %d bytes, %v", presize, n, len(got), err)
			}
		}
	}
	if _, err := readBody(strings.NewReader(body), int64(len(body))+1, maxBody); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("short body: %v, want io.ErrUnexpectedEOF", err)
	}
}

// sampleLine matches one exposition sample: name{labels} value.
var sampleLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (-?[0-9.e+-]+|\+Inf|NaN)$`)

// TestMetricsEndpoint drives one basic-model process over HTTP, then
// scrapes GET /v1/metrics (unauthenticated, like a Prometheus scraper)
// and checks that every line parses and that the portal, AEA, and pool
// instrumentation all surfaced.
func TestMetricsEndpoint(t *testing.T) {
	w := newWorld(t)
	def := wfdef.Fig9A()
	doc, err := document.New(def, w.env.KeyOf("designer@acme"), testenv.ProcessID(), now)
	if err != nil {
		t.Fatal(err)
	}
	pid := doc.ProcessID()
	if _, err := w.clientFor(t, "designer@acme").StoreInitial(doc); err != nil {
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
		cli := w.clientFor(t, wfdef.Fig9Participants[s.act])
		if _, err := cli.Worklist(); err != nil {
			t.Fatal(err)
		}
		cur, err := cli.Retrieve(pid)
		if err != nil {
			t.Fatal(err)
		}
		out, err := w.agents[s.act].Execute(cur, s.act, s.inputs, now)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cli.Store(out.Doc); err != nil {
			t.Fatal(err)
		}
	}

	// Scrape without a signature, as Prometheus would.
	resp, err := http.Get(w.portalSrv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != MetricsContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, MetricsContentType)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)

	// Every line must be a # TYPE comment or a well-formed sample.
	for i, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !sampleLine.MatchString(line) {
			t.Fatalf("line %d does not parse as an exposition sample: %q", i+1, line)
		}
	}

	// The instrumented layers all surfaced: HTTP routes, AEA crypto
	// counters (the in-process agents share the default registry), and
	// pool scan latencies (worklists scan the table).
	for _, want := range []string{
		`http_request_seconds_bucket{route="POST /v1/documents"`,
		`http_requests_total{route="GET /v1/worklist",code="2xx"}`,
		"# TYPE aea_verify_signatures_total counter",
		"# TYPE aea_sign_ops_total counter",
		"# TYPE pool_scan_seconds histogram",
		"pool_scan_seconds_bucket{",
		"# TYPE portal_store_seconds histogram",
		"dsig_verify_ops_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}

	// The same exposition is reachable through the typed client.
	viaClient, err := w.clientFor(t, "designer@acme").Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(viaClient, "# TYPE http_request_seconds histogram") {
		t.Error("Client.Metrics() did not return the exposition text")
	}

	// The TFC handler serves metrics too.
	tfcResp, err := http.Get(w.tfcSrv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	tfcResp.Body.Close()
	if tfcResp.StatusCode != http.StatusOK {
		t.Fatalf("TFC GET /v1/metrics = %d", tfcResp.StatusCode)
	}
}

// TestPprofGated checks /debug/pprof is absent by default and served when
// EnablePprof is set.
func TestPprofGated(t *testing.T) {
	w := newWorld(t)
	resp, err := http.Get(w.portalSrv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof without opt-in = %d, want 404", resp.StatusCode)
	}

	srv := &PortalServer{EnablePprof: true}
	mux := http.NewServeMux()
	registerObservability(mux, srv.EnablePprof, nil)
	req, _ := http.NewRequest(http.MethodGet, "/debug/pprof/cmdline", nil)
	h, pattern := mux.Handler(req)
	if h == nil || pattern == "" {
		t.Fatal("pprof handlers not registered with EnablePprof")
	}
}

// Shared-registry sanity: the package-level telemetry handles used by the
// middleware belong to the process default registry.
func TestMiddlewareUsesDefaultRegistry(t *testing.T) {
	if tel != telemetry.Default() {
		t.Fatal("httpapi middleware is not on the default registry")
	}
}
