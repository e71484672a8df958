package httpapi

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dra4wfms/internal/pki"
	"dra4wfms/internal/portal"
	"dra4wfms/internal/relay"
	"dra4wfms/internal/trace"
)

// Webhook notification delivery — the paper's "after a resulting DRA4WfMS
// document is stored, the portal server should inform the participants of
// the next activities". A participant (or a role's shared inbox) registers
// a callback URL over the authenticated API; the portal POSTs a
// portal-signed JSON notification to it whenever one of the participant's
// activities becomes enabled. Receivers verify the same signed-request
// headers clients use, so notifications cannot be forged.
//
// Deliveries go through an internal relay: a bounded worker pool with
// retries, per-destination circuit breakers, and (with a WAL path) an
// outbox that survives portal restarts. A notification that exhausts its
// retry budget lands in the relay's dead-letter queue and is counted as
// failed.

// WebhookDispatcher keeps the URL registry and delivers notifications.
// Configure the public fields before the first Notify; they are frozen
// once the delivery relay starts.
type WebhookDispatcher struct {
	// Keys signs outgoing deliveries under the portal's identity.
	Keys *pki.KeyPair
	// HTTP performs the deliveries (default http.DefaultClient).
	HTTP *http.Client
	// Clock supplies delivery timestamps (default time.Now).
	Clock func() time.Time
	// Timeout bounds one delivery attempt (default 5s).
	Timeout time.Duration
	// WALPath, when set, persists undelivered notifications across
	// restarts (draportal -webhook-wal). Empty keeps the outbox in memory.
	WALPath string
	// RelayConfig tunes retries; zero fields get webhook defaults
	// (3 attempts, short backoff, per-attempt Timeout).
	RelayConfig relay.Config

	mu   sync.Mutex
	urls map[string]string // principal (or "role:<r>") → callback URL
	rly  *relay.Relay
	seq  atomic.Uint64 // distinguishes legitimately repeated notifications
}

// NewWebhookDispatcher creates a dispatcher signing as keys.Owner.
func NewWebhookDispatcher(keys *pki.KeyPair) *WebhookDispatcher {
	return &WebhookDispatcher{Keys: keys, urls: map[string]string{}}
}

// Register binds the principal (or role key) to a callback URL; an empty
// URL unregisters.
func (d *WebhookDispatcher) Register(principal, callbackURL string) error {
	if callbackURL != "" {
		u, err := url.Parse(callbackURL)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return fmt.Errorf("httpapi: invalid callback URL %q", callbackURL)
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if callbackURL == "" {
		delete(d.urls, principal)
	} else {
		d.urls[principal] = callbackURL
	}
	return nil
}

// URL returns the registered callback for a principal.
func (d *WebhookDispatcher) URL(principal string) (string, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	u, ok := d.urls[principal]
	return u, ok
}

// Stats returns (delivered, failed) counters: acknowledged deliveries
// and deliveries that exhausted their retries into the DLQ.
func (d *WebhookDispatcher) Stats() (delivered, failed int) {
	d.mu.Lock()
	rly := d.rly
	d.mu.Unlock()
	if rly == nil {
		return 0, 0
	}
	st := rly.Stats()
	return int(st.Delivered), int(st.DeadLettered)
}

// ensureRelay starts the delivery relay on first use, freezing the
// dispatcher's configuration fields into it.
func (d *WebhookDispatcher) ensureRelay() (*relay.Relay, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.rly != nil {
		return d.rly, nil
	}
	ob, err := relay.OpenOutbox(d.WALPath)
	if err != nil {
		return nil, err
	}
	if rec := ob.Recovery(); rec.DamagedBytes > 0 {
		log.Printf("WARNING: webhook outbox %s: quarantined %d damaged bytes to %s (%s); notifications journaled there are lost, worklists remain the source of truth", d.WALPath, rec.DamagedBytes, rec.QuarantineFile, rec.Reason)
	}
	cfg := d.RelayConfig
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.AttemptTimeout <= 0 {
		cfg.AttemptTimeout = d.timeout()
	}
	if cfg.Backoff == (relay.BackoffPolicy{}) {
		cfg.Backoff = relay.BackoffPolicy{Base: 25 * time.Millisecond, Cap: 500 * time.Millisecond}
	}
	tr := &HTTPTransport{Keys: d.Keys, HTTP: d.HTTP, Clock: d.Clock}
	d.rly = relay.New(ob, tr, cfg)
	return d.rly, nil
}

// Notify implements the portal.OnNotify contract: the notification is
// journaled and delivered asynchronously to the participant's registered
// URL (if any), with retries and breaker protection. A delivery that
// exhausts its budget is dead-lettered, not lost silently — but the
// worklist remains the source of truth; webhooks are a latency
// optimization.
func (d *WebhookDispatcher) Notify(n portal.Notification) {
	d.NotifyCtx(context.Background(), n)
}

// NotifyCtx is Notify carrying the triggering request's trace context:
// the delivery is journaled with ctx's traceparent, so the asynchronous
// webhook POST (and any retry of it) appears as a relay span of the
// store that enabled the activity.
func (d *WebhookDispatcher) NotifyCtx(ctx context.Context, n portal.Notification) {
	target, ok := d.URL(n.Participant)
	if !ok {
		return
	}
	rly, err := d.ensureRelay()
	if err != nil {
		return
	}
	body, err := json.Marshal(n)
	if err != nil {
		return
	}
	// Identical notifications are legitimate (a loop re-enabling the same
	// activity), so the idempotency key folds in a local sequence number:
	// retries of one Notify share it, distinct Notifies never do.
	keyed := append(strconv.AppendUint(nil, d.seq.Add(1), 10), '|')
	keyed = append(keyed, body...)
	//lint:ignore cryptoerr webhook dispatch is fire-and-forget by contract: an enqueue failure (closed relay, journal write error) must not fail the document store that triggered the notification, and the worklist remains the source of truth
	_, _, _ = rly.EnqueueTraced(target, KindWebhook, relay.IdempotencyKey(KindWebhook, target, keyed), trace.TraceparentFromContext(ctx), body)
}

// Relay exposes the delivery relay (DLQ inspection, stats); nil before
// the first Notify.
func (d *WebhookDispatcher) Relay() *relay.Relay {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.rly
}

// Close stops the delivery relay; with a WAL, undelivered notifications
// survive for the next start.
func (d *WebhookDispatcher) Close() error {
	d.mu.Lock()
	rly := d.rly
	d.mu.Unlock()
	if rly == nil {
		return nil
	}
	return rly.Close()
}

func (d *WebhookDispatcher) timeout() time.Duration {
	if d.Timeout > 0 {
		return d.Timeout
	}
	return 5 * time.Second
}

// --- server-side registration endpoint -------------------------------------------

// webhookRequest is the PUT /v1/webhook body.
type webhookRequest struct {
	// URL is the callback; empty unregisters.
	URL string `json:"url"`
	// Role optionally registers for a role inbox ("role:<r>" key) instead
	// of the caller's own principal; the caller must hold the role.
	Role string `json:"role,omitempty"`
}

// handleWebhook registers the authenticated caller's callback URL.
func (s *PortalServer) handleWebhook(w http.ResponseWriter, r *http.Request, principal string, body []byte) {
	if s.Webhooks == nil {
		http.Error(w, "webhooks not enabled on this portal", http.StatusNotImplemented)
		return
	}
	var req webhookRequest
	if err := json.Unmarshal(body, &req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	key := principal
	if req.Role != "" {
		id, err := s.Portal.Registry.Identity(principal)
		if err != nil || !id.HasRole(req.Role) {
			http.Error(w, "caller does not hold the requested role", http.StatusForbidden)
			return
		}
		key = "role:" + req.Role
	}
	if err := s.Webhooks.Register(key, req.URL); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, map[string]string{"registered": key, "url": req.URL})
}

// RegisterWebhook is the client call for PUT /v1/webhook; role may be "".
func (c *Client) RegisterWebhook(callbackURL, role string) error {
	body, err := json.Marshal(webhookRequest{URL: callbackURL, Role: role})
	if err != nil {
		return err
	}
	_, _, err = c.do(http.MethodPut, "/v1/webhook", body)
	return err
}
