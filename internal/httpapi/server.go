package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"dra4wfms/internal/document"
	"dra4wfms/internal/monitor"
	"dra4wfms/internal/pki"
	"dra4wfms/internal/poolcluster"
	"dra4wfms/internal/portal"
	"dra4wfms/internal/tfc"
	"dra4wfms/internal/xmltree"
)

// Wire content types.
const (
	ContentXML  = "application/xml"
	ContentJSON = "application/json"
)

// maxBody bounds accepted request bodies (documents grow linearly with
// executed activities; 64 MiB is generous). A variable so tests can
// exercise the 413 path without 64 MiB payloads.
var maxBody int64 = 64 << 20

// PortalServer serves one portal over HTTP.
//
//	POST /v1/documents/initial      body: DRA4WfMS XML  → notifications JSON
//	POST /v1/documents              body: DRA4WfMS XML  → notifications JSON
//	GET  /v1/documents/{processID}                      → DRA4WfMS XML
//	GET  /v1/worklist                                   → work items JSON (caller's)
//	GET  /v1/processes?state=running|completed          → ids JSON
//	GET  /v1/status/{processID}                         → monitor status JSON
//	GET  /v1/statistics                                 → pool statistics JSON
type PortalServer struct {
	Portal  *portal.Portal
	Monitor *monitor.Monitor
	Auth    *Authenticator
	// Webhooks, when non-nil, enables PUT /v1/webhook registration; set
	// it with EnableWebhooks, which also wires the portal's OnNotify.
	Webhooks *WebhookDispatcher
	// EnablePprof additionally serves /debug/pprof/* (CPU/heap/goroutine
	// profiling) from the same listener. Off by default: profiles expose
	// process internals, so operators opt in (draportal -pprof).
	EnablePprof bool
	// Probes, when non-nil, gates GET /v1/readyz on recovery completion
	// and registered checks; nil leaves the endpoint always-ready.
	Probes *Probes
	// Cluster, when the portal runs over a clustered pool, additionally
	// serves GET /v1/cluster/status (the region directory, consumed by
	// `dractl cluster status`) and POST /v1/cluster/rebalance. Both are
	// unauthenticated observability-plane routes like /v1/metrics.
	Cluster *poolcluster.Cluster
	// Admission, when non-nil, gates every business route (admission.go):
	// reads shed at saturation, writes earlier. Observability and cluster
	// control-plane routes stay ungated — a drowning server must still be
	// inspectable and repairable.
	Admission *Admission
}

// NewPortalServer assembles the HTTP facade of a portal.
func NewPortalServer(p *portal.Portal, m *monitor.Monitor, auth *Authenticator) *PortalServer {
	return &PortalServer{Portal: p, Monitor: m, Auth: auth}
}

// EnableWebhooks attaches a dispatcher signing as keys.Owner, with the
// portal's clock, and wires it into the portal's notification hook. Its
// outbox WAL at walPath (empty = memory-only) is opened here and drained
// at once: notifications not yet delivered when the portal last stopped
// — or requeued from the dead-letter queue since — go out on boot,
// before any participant re-registers. An outbox that cannot be opened
// is an error.
func (s *PortalServer) EnableWebhooks(keys *pki.KeyPair, walPath string) (*WebhookDispatcher, error) {
	clock := s.Portal.Clock
	if clock == nil {
		clock = time.Now
	}
	d, err := newWebhookDispatcher(keys, clock, walPath, http.DefaultClient, webhookRelay)
	if err != nil {
		return nil, err
	}
	s.Webhooks = d
	s.Portal.OnNotify = d.Notify
	return d, nil
}

// Handler returns the routed http.Handler. Every route is wrapped with
// the telemetry middleware; GET /v1/metrics serves the registry and
// /debug/pprof/* is added when EnablePprof is set.
func (s *PortalServer) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(pattern string, h handlerFunc) {
		// Admission sits inside instrument (sheds are observable as 429s)
		// but ahead of auth, so a shed request never buys RSA work.
		mux.HandleFunc(pattern, instrument(pattern, s.Admission.Middleware(ClassOf(pattern), s.auth(h))))
	}
	route("POST /v1/documents/initial", s.handleStoreInitial)
	route("POST /v1/documents", s.handleStore)
	route("GET /v1/documents/{pid}", s.handleRetrieve)
	route("GET /v1/worklist", s.handleWorklist)
	route("GET /v1/processes", s.handleProcesses)
	route("GET /v1/status/{pid}", s.handleStatus)
	route("GET /v1/statistics", s.handleStatistics)
	route("PUT /v1/templates", s.handleStoreTemplate)
	route("GET /v1/templates", s.handleListTemplates)
	route("GET /v1/templates/{name}", s.handleGetTemplate)
	route("PUT /v1/webhook", s.handleWebhook)
	if s.Cluster != nil {
		mux.HandleFunc("GET /v1/cluster/status", instrument("GET /v1/cluster/status", s.handleClusterStatus))
		mux.HandleFunc("POST /v1/cluster/rebalance", instrument("POST /v1/cluster/rebalance", s.handleClusterRebalance))
	}
	registerObservability(mux, s.EnablePprof, s.Probes)
	return mux
}

// handleClusterStatus serves the live region directory. With ?row=KEY it
// instead reports which region owns the row and which node leads it —
// the hook the failover drill uses to pick its kill target.
func (s *PortalServer) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	if row := r.URL.Query().Get("row"); row != "" {
		region, node := s.Cluster.PrimaryFor(row)
		writeJSON(w, map[string]string{"row": row, "region": region, "primary": node})
		return
	}
	writeJSON(w, s.Cluster.Status())
}

// handleClusterRebalance spreads region leadership evenly across live
// nodes and reports the migrations performed.
func (s *PortalServer) handleClusterRebalance(w http.ResponseWriter, r *http.Request) {
	moves, err := s.Cluster.Rebalance()
	if moves == nil {
		moves = []poolcluster.Move{}
	}
	if err != nil {
		w.Header().Set("Content-Type", ContentJSON)
		w.WriteHeader(http.StatusInternalServerError)
		_ = json.NewEncoder(w).Encode(map[string]interface{}{"error": err.Error(), "moves": moves})
		return
	}
	writeJSON(w, map[string]interface{}{"moves": moves})
}

// handlerFunc is an authenticated handler: principal is the verified
// caller, body the fully read request body.
type handlerFunc func(w http.ResponseWriter, r *http.Request, principal string, body []byte)

func (s *PortalServer) auth(h handlerFunc) http.HandlerFunc {
	return authWrap(s.Auth, h)
}

func authWrap(a *Authenticator, h handlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(io.LimitReader(r.Body, maxBody+1))
		if err != nil {
			http.Error(w, "reading body: "+err.Error(), http.StatusBadRequest)
			return
		}
		if int64(len(body)) > maxBody {
			// Deliberate 413 with a machine-readable JSON error (not an
			// accidental connection reset), counted for operators.
			mRejected.Inc()
			w.Header().Set("Content-Type", ContentJSON)
			w.WriteHeader(http.StatusRequestEntityTooLarge)
			_ = json.NewEncoder(w).Encode(map[string]string{
				"error": fmt.Sprintf("request body exceeds the %d-byte limit", maxBody),
			})
			return
		}
		principal, err := a.Verify(r, body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusUnauthorized)
			return
		}
		h(w, r, principal, body)
	}
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", ContentJSON)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (s *PortalServer) handleStoreInitial(w http.ResponseWriter, r *http.Request, principal string, body []byte) {
	doc, err := document.Parse(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	notes, err := s.Portal.StoreInitialCtx(r.Context(), doc)
	if err != nil {
		http.Error(w, err.Error(), verifyFailureStatus(err))
		return
	}
	writeJSON(w, notes)
}

func (s *PortalServer) handleStore(w http.ResponseWriter, r *http.Request, principal string, body []byte) {
	doc, err := document.Parse(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	notes, err := s.Portal.StoreCtx(r.Context(), doc)
	if err != nil {
		http.Error(w, err.Error(), verifyFailureStatus(err))
		return
	}
	writeJSON(w, notes)
}

func (s *PortalServer) handleRetrieve(w http.ResponseWriter, r *http.Request, principal string, _ []byte) {
	raw, err := s.Portal.RetrieveRawCtx(r.Context(), principal, r.PathValue("pid"))
	if err != nil {
		httpStatusError(w, err)
		return
	}
	w.Header().Set("Content-Type", ContentXML)
	_, _ = w.Write(raw)
}

func (s *PortalServer) handleWorklist(w http.ResponseWriter, r *http.Request, principal string, _ []byte) {
	items, err := s.Portal.WorklistCtx(r.Context(), principal)
	if err != nil {
		httpStatusError(w, err)
		return
	}
	writeJSON(w, items)
}

func (s *PortalServer) handleProcesses(w http.ResponseWriter, r *http.Request, principal string, _ []byte) {
	state := r.URL.Query().Get("state")
	if state != "" && state != "running" && state != "completed" {
		http.Error(w, "state must be running or completed", http.StatusBadRequest)
		return
	}
	writeJSON(w, s.Portal.ProcessIDs(state))
}

func (s *PortalServer) handleStatus(w http.ResponseWriter, r *http.Request, principal string, _ []byte) {
	st, err := s.Monitor.InstanceStatus(r.PathValue("pid"))
	if err != nil {
		httpStatusError(w, err)
		return
	}
	writeJSON(w, st)
}

func (s *PortalServer) handleStatistics(w http.ResponseWriter, r *http.Request, principal string, _ []byte) {
	stats, err := s.Monitor.Statistics()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, stats)
}

func (s *PortalServer) handleStoreTemplate(w http.ResponseWriter, r *http.Request, principal string, body []byte) {
	tpl, err := xmltree.ParseBytes(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	name, err := s.Portal.StoreTemplate(tpl)
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	writeJSON(w, map[string]string{"name": name})
}

func (s *PortalServer) handleListTemplates(w http.ResponseWriter, r *http.Request, principal string, _ []byte) {
	writeJSON(w, s.Portal.Templates())
}

func (s *PortalServer) handleGetTemplate(w http.ResponseWriter, r *http.Request, principal string, _ []byte) {
	_, tpl, err := s.Portal.Template(principal, r.PathValue("name"))
	if err != nil {
		status := http.StatusNotFound
		if strings.Contains(err.Error(), "unknown principal") {
			status = http.StatusUnauthorized
		}
		http.Error(w, err.Error(), status)
		return
	}
	w.Header().Set("Content-Type", ContentXML)
	_, _ = w.Write(tpl.Canonical())
}

func httpStatusError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	msg := err.Error()
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		// The propagated deadline expired mid-request; the work was
		// abandoned, not failed.
		status = http.StatusGatewayTimeout
	case errors.Is(err, pki.ErrUnknownPrincipal):
		status = http.StatusUnauthorized
	case errors.Is(err, pki.ErrMalformedKey):
		status = http.StatusUnprocessableEntity
	case strings.Contains(msg, "unknown process"):
		status = http.StatusNotFound
	case strings.Contains(msg, "unknown principal"):
		status = http.StatusUnauthorized
	}
	http.Error(w, msg, status)
}

// verifyFailureStatus maps a failed document store/process to an HTTP
// status. Tampered cascades and replays are conflicts (409), but
// key-resolution failures are the client's problem, not the server's: a
// signature by an unregistered or revoked principal is 401, and key
// material that cannot be parsed is 422. pki classifies the two
// (ErrUnknownPrincipal vs ErrMalformedKey) precisely so these surface as
// 4xx instead of a blanket 409 — and never as 500.
func verifyFailureStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		// The propagated deadline expired while the store/process was in
		// flight: the request was abandoned (504), not refused — the
		// caller should retry with a fresh budget, not treat the
		// document as rejected.
		return http.StatusGatewayTimeout
	case errors.Is(err, pki.ErrUnknownPrincipal):
		return http.StatusUnauthorized
	case errors.Is(err, pki.ErrMalformedKey):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusConflict
	}
}

// --- TFC server ------------------------------------------------------------------

// TFCServer serves one TFC server over HTTP.
//
//	POST /v1/process   body: intermediate DRA4WfMS XML → ProcessResponse
//	GET  /v1/records?process=ID                        → forwarding log JSON
type TFCServer struct {
	Server *tfc.Server
	Auth   *Authenticator
	// EnablePprof additionally serves /debug/pprof/* (see PortalServer).
	EnablePprof bool
	// Probes gates GET /v1/readyz (see PortalServer.Probes).
	Probes *Probes
	// Admission gates the business routes (see PortalServer.Admission).
	Admission *Admission
}

// NewTFCServer assembles the HTTP facade of a TFC server.
func NewTFCServer(srv *tfc.Server, auth *Authenticator) *TFCServer {
	return &TFCServer{Server: srv, Auth: auth}
}

// ProcessResponse is the JSON envelope returned by POST /v1/process; the
// processed document travels base64-free as a nested XML string.
type ProcessResponse struct {
	// Next lists the routed targets.
	Next []string `json:"next"`
	// Completed reports process completion.
	Completed bool `json:"completed"`
	// Timestamp is the notarized finish time.
	Timestamp time.Time `json:"timestamp"`
	// Document is the canonical XML of the final document.
	Document string `json:"document"`
}

// Handler returns the routed http.Handler, instrumented like the
// portal's and likewise serving GET /v1/metrics.
func (s *TFCServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/process", instrument("POST /v1/process", s.Admission.Middleware(ClassWrite, authWrap(s.Auth, s.handleProcess))))
	mux.HandleFunc("GET /v1/records", instrument("GET /v1/records", s.Admission.Middleware(ClassRead, authWrap(s.Auth, s.handleRecords))))
	registerObservability(mux, s.EnablePprof, s.Probes)
	return mux
}

func (s *TFCServer) handleProcess(w http.ResponseWriter, r *http.Request, principal string, body []byte) {
	doc, err := document.Parse(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	out, err := s.Server.ProcessCtx(r.Context(), doc)
	if err != nil {
		http.Error(w, err.Error(), verifyFailureStatus(err))
		return
	}
	writeJSON(w, ProcessResponse{
		Next:      out.Next,
		Completed: out.Completed,
		Timestamp: out.Timestamp,
		Document:  string(out.Doc.Bytes()),
	})
}

func (s *TFCServer) handleRecords(w http.ResponseWriter, r *http.Request, principal string, _ []byte) {
	pid := r.URL.Query().Get("process")
	var recs []tfc.ForwardRecord
	if pid == "" {
		recs = s.Server.Records()
	} else {
		recs = s.Server.RecordsFor(pid)
	}
	writeJSON(w, recs)
}

// ServeListener runs handler on ln until ctx is canceled, then shuts down
// gracefully: onDrain (if non-nil) runs first — daemons flip their
// readiness probe there so load balancers stop routing — and in-flight
// requests get up to grace to complete before the listener is torn down.
// It returns nil on a clean drain; a non-nil error means either the
// listener failed or the grace deadline expired with requests still in
// flight, whose connections are then cut so that the caller's cleanup
// does not race them.
func ServeListener(ctx context.Context, ln net.Listener, handler http.Handler, grace time.Duration, onDrain func()) error {
	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	select {
	case err := <-serveErr:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
	}
	if onDrain != nil {
		onDrain()
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	err := srv.Shutdown(shutCtx)
	if err != nil {
		_ = srv.Close()
	}
	// Collect the Serve goroutine's ErrServerClosed so nothing leaks.
	if serr := <-serveErr; !errors.Is(serr, http.ErrServerClosed) && serr != nil && err == nil {
		err = serr
	}
	return err
}
