package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dra4wfms/internal/pki"
	"dra4wfms/internal/pool"
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
// Deliveries go through a relay: a bounded worker pool with retries,
// per-destination circuit breakers, and (with a WAL path) an outbox that
// survives portal restarts and is drained from the moment the portal
// boots. A notification that exhausts its retry budget lands in the
// relay's dead-letter queue and is counted as failed.

// KindWebhook is the relay entry kind of a webhook delivery; Dest is the
// participant's callback URL.
const KindWebhook = "webhook"

// HeaderIdempotencyKey carries a webhook delivery's relay key. Every
// attempt of one notification sends the same key, so a receiver can drop
// a redelivery whose acknowledgement was lost.
const HeaderIdempotencyKey = "X-DRA-Idempotency-Key"

// webhookRelay is the delivery policy: a notification is a latency
// optimization (the worklist stays the source of truth), so it gets a
// few quick attempts of at most 5s each.
var webhookRelay = relay.Config{
	MaxAttempts:    3,
	AttemptTimeout: 5 * time.Second,
	Backoff:        relay.BackoffPolicy{Base: 25 * time.Millisecond, Cap: 500 * time.Millisecond},
}

// webhookRowPrefix namespaces registration rows in the portal's document
// table, as "tpl#" does the template catalog: row "wh#<principal>" holds
// the callback URL in meta:webhook.
const webhookRowPrefix = "wh#"

// WebhookDispatcher keeps the URL registry and delivers notifications.
// Registrations are rows of the portal's document table, so they survive
// a restart; urls is their in-memory copy, read on every notification.
type WebhookDispatcher struct {
	keys  *pki.KeyPair
	clock func() time.Time
	httpc *http.Client
	rly   *relay.Relay
	table pool.DocTable

	// regMu orders registrations, so the table row and urls agree; it is
	// held across the table write, which Notify never waits for.
	regMu sync.Mutex
	mu    sync.Mutex
	urls  map[string]string // principal (or "role:<r>") → callback URL
	seq   atomic.Uint64     // distinguishes legitimately repeated notifications
}

// newWebhookDispatcher loads the registrations kept in table, opens (or
// replays) the outbox WAL at walPath — "" keeps it in memory — and starts
// the relay, which at once resumes every delivery journaled there by an
// earlier run. Deliveries are signed as keys.Owner with request dates
// from clock and sent through httpc.
func newWebhookDispatcher(keys *pki.KeyPair, clock func() time.Time, table pool.DocTable, walPath string, httpc *http.Client, cfg relay.Config) (*WebhookDispatcher, error) {
	d := &WebhookDispatcher{keys: keys, clock: clock, httpc: httpc, table: table, urls: map[string]string{}}
	for _, kv := range table.Scan(pool.ScanOptions{Prefix: webhookRowPrefix, Family: "meta"}) {
		if kv.Qualifier == "webhook" {
			d.urls[strings.TrimPrefix(kv.Row, webhookRowPrefix)] = string(kv.Value)
		}
	}
	ob, err := relay.OpenOutbox(walPath)
	if err != nil {
		return nil, fmt.Errorf("httpapi: webhook outbox: %w", err)
	}
	if rec := ob.Recovery(); rec.DamagedBytes > 0 {
		log.Printf("WARNING: webhook outbox %s: quarantined %d damaged bytes to %s (%s); notifications journaled there are lost, worklists remain the source of truth", walPath, rec.DamagedBytes, rec.QuarantineFile, rec.Reason)
	}
	d.rly = relay.New(ob, relay.TransportFunc(d.deliver), cfg)
	return d, nil
}

// Register binds the principal (or role key) to a callback URL; an empty
// URL unregisters. The binding is written to the document table before
// it takes effect, so an acknowledged registration survives a restart.
func (d *WebhookDispatcher) Register(principal, callbackURL string) error {
	cell := pool.CellMutation{Family: "meta", Qualifier: "webhook", Value: []byte(callbackURL)}
	if callbackURL == "" {
		cell = pool.CellMutation{Family: "meta", Qualifier: "webhook", Del: true}
	} else if u, err := url.Parse(callbackURL); err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return fmt.Errorf("httpapi: invalid callback URL %q", callbackURL)
	}
	d.regMu.Lock()
	defer d.regMu.Unlock()
	if err := d.table.Mutate(context.Background(), webhookRowPrefix+principal, []pool.CellMutation{cell}); err != nil {
		return fmt.Errorf("httpapi: keeping webhook registration: %w", err)
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
	st := d.rly.Stats()
	return int(st.Delivered), int(st.DeadLettered)
}

// Notify is the portal's OnNotify hook: the notification is journaled
// and delivered asynchronously to the participant's registered URL (if
// any), with retries and breaker protection. ctx's traceparent is
// journaled with it, so the webhook POST (and any retry of it) appears
// as a relay span of the store that enabled the activity. A delivery
// that exhausts its budget is dead-lettered, not lost silently — but the
// worklist remains the source of truth; webhooks are a latency
// optimization.
func (d *WebhookDispatcher) Notify(ctx context.Context, n portal.Notification) {
	target, ok := d.URL(n.Participant)
	if !ok {
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
	_, _, _ = d.rly.EnqueueTraced(target, KindWebhook, relay.IdempotencyKey(KindWebhook, target, keyed), trace.TraceparentFromContext(ctx), body)
}

// deliver makes one signed POST of a journaled notification. Every
// attempt is signed afresh — the receivers' nonce replay cache rejects a
// reused signature — and carries the entry's idempotency key. Statuses
// retrying cannot fix (4xx other than 408/429) fail permanently and go
// straight to the dead-letter queue.
func (d *WebhookDispatcher) deliver(ctx context.Context, e relay.Entry) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.Dest, bytes.NewReader(e.Payload))
	if err != nil {
		return relay.Permanent(err)
	}
	req.Header.Set("Content-Type", ContentJSON)
	req.Header.Set(HeaderIdempotencyKey, e.Key)
	// The relay put the entry's persisted trace context into ctx; forward
	// it so the receiver can join the same trace. Signature-safe:
	// SignRequest covers algorithm, method, path, date, nonce, and body.
	if tp := trace.TraceparentFromContext(ctx); tp != "" {
		req.Header.Set(TraceparentHeader, tp)
	}
	AttachDeadline(ctx, req.Header)
	if err := SignRequest(req, e.Payload, d.keys, d.clock()); err != nil {
		return relay.Permanent(err)
	}
	resp, err := d.httpc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxBody))
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		err := fmt.Errorf("httpapi: webhook %s: %s: %s", e.Dest, resp.Status, bytes.TrimSpace(body))
		if resp.StatusCode/100 == 4 &&
			resp.StatusCode != http.StatusRequestTimeout &&
			resp.StatusCode != http.StatusTooManyRequests {
			return relay.Permanent(err)
		}
		return err
	}
	return nil
}

// Relay exposes the delivery relay (DLQ inspection, stats).
func (d *WebhookDispatcher) Relay() *relay.Relay { return d.rly }

// Close stops the delivery relay; with a WAL, undelivered notifications
// survive for the next start.
func (d *WebhookDispatcher) Close() error { return d.rly.Close() }

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
