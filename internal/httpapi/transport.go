package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"dra4wfms/internal/document"
	"dra4wfms/internal/pki"
	"dra4wfms/internal/portal"
	"dra4wfms/internal/relay"
	"dra4wfms/internal/trace"
)

// Relay delivery kinds the HTTP transport understands. Dest is the
// callback URL for webhooks and the service base URL otherwise.
const (
	// KindWebhook POSTs a signed notification to a participant callback.
	KindWebhook = "webhook"
	// KindStore POSTs a produced document to a portal.
	KindStore = "store"
	// KindStoreInitial POSTs a secured initial document to a portal.
	KindStoreInitial = "store-initial"
	// KindProcess POSTs an intermediate document to a TFC server.
	KindProcess = "process"
)

// Idempotency headers. A relay-driven request carries its entry's key in
// HeaderIdempotencyKey; a receiver that has already applied that key
// replays its cached response and marks it with HeaderIdempotentReplay.
const (
	HeaderIdempotencyKey   = "X-DRA-Idempotency-Key"
	HeaderIdempotentReplay = "X-DRA-Idempotent-Replay"
)

// stashCap bounds retained response bodies for settled sends whose waiter
// vanished (e.g. deliveries replayed after a restart).
const stashCap = 1024

// HTTPTransport delivers relay entries as signed DRA4WfMS API requests.
// Every attempt builds and signs a fresh request — the receivers' nonce
// replay cache rejects a reused signature, so retries cannot share one —
// and attaches the entry's idempotency key for receiver-side dedup.
// Responses with a status retrying cannot fix (4xx other than 408/429)
// fail permanently and go straight to the dead-letter queue.
type HTTPTransport struct {
	// Keys signs the requests (the sending principal).
	Keys *pki.KeyPair
	// HTTP performs the deliveries (default a fresh client; the relay's
	// attempt context enforces the timeout).
	HTTP *http.Client
	// Clock supplies request dates (default time.Now).
	Clock func() time.Time

	mu    sync.Mutex
	stash map[string][]byte // idempotency key → response body
	order []string
}

// Deliver implements relay.Transport.
func (t *HTTPTransport) Deliver(ctx context.Context, e relay.Entry) error {
	var target, contentType string
	switch e.Kind {
	case KindWebhook:
		target, contentType = e.Dest, ContentJSON
	case KindStore:
		target, contentType = e.Dest+"/v1/documents", ContentXML
	case KindStoreInitial:
		target, contentType = e.Dest+"/v1/documents/initial", ContentXML
	case KindProcess:
		target, contentType = e.Dest+"/v1/process", ContentXML
	default:
		return relay.Permanent(fmt.Errorf("httpapi: unknown relay kind %q", e.Kind))
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target, bytes.NewReader(e.Payload))
	if err != nil {
		return relay.Permanent(err)
	}
	req.Header.Set("Content-Type", contentType)
	if e.Key != "" {
		req.Header.Set(HeaderIdempotencyKey, e.Key)
	}
	// The relay put the entry's persisted trace context into ctx; forward
	// it so the receiving tier joins the same trace. Signature-safe:
	// SignRequest covers algorithm, method, path, date, nonce, and body.
	if tp := trace.TraceparentFromContext(ctx); tp != "" {
		req.Header.Set(TraceparentHeader, tp)
	}
	// The attempt context's deadline (relay AttemptTimeout) rides along
	// so the receiver abandons the work when this attempt gives up —
	// the relay will re-deliver with a fresh budget.
	AttachDeadline(ctx, req.Header)
	clock := t.Clock
	if clock == nil {
		clock = time.Now
	}
	if err := SignRequest(req, e.Payload, t.Keys, clock()); err != nil {
		return relay.Permanent(err)
	}
	httpc := t.HTTP
	if httpc == nil {
		httpc = http.DefaultClient
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxBody))
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		err := fmt.Errorf("httpapi: relay %s %s: %s: %s",
			e.Kind, e.Dest, resp.Status, bytes.TrimSpace(body))
		if resp.StatusCode/100 == 4 &&
			resp.StatusCode != http.StatusRequestTimeout &&
			resp.StatusCode != http.StatusTooManyRequests {
			return relay.Permanent(err)
		}
		return err
	}
	if e.Kind != KindWebhook {
		t.keep(e.Key, body)
	}
	return nil
}

// keep retains the response body for TakeResponse, bounded FIFO.
func (t *HTTPTransport) keep(key string, body []byte) {
	if key == "" {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stash == nil {
		t.stash = map[string][]byte{}
	}
	if _, ok := t.stash[key]; !ok {
		t.order = append(t.order, key)
	}
	t.stash[key] = body
	for len(t.order) > stashCap {
		delete(t.stash, t.order[0])
		t.order = t.order[1:]
	}
}

// TakeResponse removes and returns the response body recorded for a
// delivered idempotency key.
func (t *HTTPTransport) TakeResponse(key string) ([]byte, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	body, ok := t.stash[key]
	if ok {
		delete(t.stash, key)
		for i, k := range t.order {
			if k == key {
				t.order = append(t.order[:i], t.order[i+1:]...)
				break
			}
		}
	}
	return body, ok
}

// ErrDuplicateSend reports that an identical payload for the same
// destination was already delivered (or is still in flight) — the relay
// refused a second enqueue.
var ErrDuplicateSend = errors.New("httpapi: duplicate send suppressed by relay")

// Forwarder gives document submissions durable at-least-once delivery
// with exactly-once effects: each send is journaled in the relay's
// outbox before the first attempt, retried with backoff through circuit
// breakers, and deduplicated by idempotency key at the receiver. It is
// the reliable version of Client.Store/StoreInitial/ProcessViaTFC for
// the portal→pool and AEA→TFC hops.
type Forwarder struct {
	tr *HTTPTransport
	r  *relay.Relay

	mu      sync.Mutex
	waiters map[string]chan error
}

// NewForwarder opens (or replays) the outbox WAL at walPath — "" keeps
// it in memory — and starts a relay delivering as keys.Owner. cfg tunes
// the relay; its OnSettle hook is owned by the forwarder.
func NewForwarder(walPath string, keys *pki.KeyPair, cfg relay.Config) (*Forwarder, error) {
	ob, err := relay.OpenOutbox(walPath)
	if err != nil {
		return nil, err
	}
	f := &Forwarder{
		tr:      &HTTPTransport{Keys: keys},
		waiters: map[string]chan error{},
	}
	cfg.OnSettle = f.settled
	f.r = relay.New(ob, f.tr, cfg)
	return f, nil
}

// Relay exposes the underlying relay (DLQ inspection, stats).
func (f *Forwarder) Relay() *relay.Relay { return f.r }

// SetHTTP directs deliveries through hc (tests, custom transports).
func (f *Forwarder) SetHTTP(hc *http.Client) { f.tr.HTTP = hc }

// SetClock overrides the request-date clock.
func (f *Forwarder) SetClock(clock func() time.Time) { f.tr.Clock = clock }

func (f *Forwarder) settled(e relay.Entry, err error) {
	f.mu.Lock()
	ch := f.waiters[e.Key]
	delete(f.waiters, e.Key)
	f.mu.Unlock()
	if ch != nil {
		ch <- err
	}
}

// send enqueues one delivery and blocks until it settles (acknowledged
// or dead-lettered) or ctx expires. A ctx expiry does NOT cancel the
// delivery — it stays journaled and keeps retrying.
func (f *Forwarder) send(ctx context.Context, kind, dest string, payload []byte) ([]byte, error) {
	key := relay.IdempotencyKey(kind, dest, payload)
	ch := make(chan error, 1)
	f.mu.Lock()
	if _, exists := f.waiters[key]; exists {
		f.mu.Unlock()
		return nil, ErrDuplicateSend
	}
	f.waiters[key] = ch
	f.mu.Unlock()
	_, dup, err := f.r.EnqueueTraced(dest, kind, key, trace.TraceparentFromContext(ctx), payload)
	if err != nil || dup {
		f.mu.Lock()
		delete(f.waiters, key)
		f.mu.Unlock()
		if err != nil {
			return nil, err
		}
		return nil, ErrDuplicateSend
	}
	select {
	case err := <-ch:
		if err != nil {
			return nil, fmt.Errorf("httpapi: delivery dead-lettered: %w", err)
		}
		body, _ := f.tr.TakeResponse(key)
		return body, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// StoreInitial durably submits a secured initial document to the portal
// at baseURL.
func (f *Forwarder) StoreInitial(ctx context.Context, baseURL string, doc *document.Document) ([]portal.Notification, error) {
	return f.sendDocument(ctx, KindStoreInitial, baseURL, doc)
}

// Store durably submits a produced document to the portal at baseURL.
func (f *Forwarder) Store(ctx context.Context, baseURL string, doc *document.Document) ([]portal.Notification, error) {
	return f.sendDocument(ctx, KindStore, baseURL, doc)
}

func (f *Forwarder) sendDocument(ctx context.Context, kind, baseURL string, doc *document.Document) ([]portal.Notification, error) {
	body, err := f.send(ctx, kind, baseURL, doc.Bytes())
	if err != nil {
		return nil, err
	}
	var notes []portal.Notification
	if len(body) > 0 {
		if err := json.Unmarshal(body, &notes); err != nil {
			return nil, fmt.Errorf("httpapi: decoding notifications: %w", err)
		}
	}
	return notes, nil
}

// Process durably submits an intermediate document to the TFC at baseURL
// (the AEA→TFC forwarding hop) and returns the routed outcome.
func (f *Forwarder) Process(ctx context.Context, baseURL string, doc *document.Document) (*ProcessResponse, *document.Document, error) {
	body, err := f.send(ctx, KindProcess, baseURL, doc.Bytes())
	if err != nil {
		return nil, nil, err
	}
	var pr ProcessResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		return nil, nil, fmt.Errorf("httpapi: decoding process response: %w", err)
	}
	out, err := document.Parse([]byte(pr.Document))
	if err != nil {
		return nil, nil, fmt.Errorf("httpapi: parsing returned document: %w", err)
	}
	return &pr, out, nil
}

// Flush blocks until every accepted send has settled.
func (f *Forwarder) Flush() { f.r.Flush() }

// Close stops the relay; journaled deliveries survive in the WAL.
func (f *Forwarder) Close() error { return f.r.Close() }
