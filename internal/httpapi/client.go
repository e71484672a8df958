package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"dra4wfms/internal/document"
	"dra4wfms/internal/dsig"
	"dra4wfms/internal/monitor"
	"dra4wfms/internal/pki"
	"dra4wfms/internal/portal"
	"dra4wfms/internal/tfc"
	"dra4wfms/internal/trace"
	"dra4wfms/internal/wfdef"
	"dra4wfms/internal/xmltree"
)

// Client talks to portal and TFC HTTP services with signed requests. One
// client represents one principal (its AEA's network side).
//
// Every call runs under a context with a deadline: the exported methods
// use context.Background bounded by Timeout (default 30s), so a hung
// peer can no longer block a hop indefinitely; the *Ctx variants also
// honor the caller's cancellation.
type Client struct {
	// BaseURL is the service root, e.g. "http://portal-1.example:8080".
	BaseURL string
	// Keys signs the requests; Keys.Owner is the authenticated principal.
	Keys *pki.KeyPair
	// HTTP is the underlying client (default http.DefaultClient).
	HTTP *http.Client
	// Clock supplies request dates (default time.Now).
	Clock func() time.Time
	// Timeout bounds one request end to end, including the body read
	// (default 30s; negative disables the bound).
	Timeout time.Duration
}

// DefaultTimeout bounds a client request when Client.Timeout is unset.
const DefaultTimeout = 30 * time.Second

// NewClient builds a client for the given principal.
func NewClient(baseURL string, keys *pki.KeyPair) *Client {
	return &Client{BaseURL: baseURL, Keys: keys, HTTP: http.DefaultClient, Clock: time.Now}
}

func (c *Client) do(method, path string, body []byte) (*http.Response, []byte, error) {
	return c.doCtx(context.Background(), method, path, body)
}

// maxShedRetries bounds how often one call re-attempts after a shed
// (429/503 with Retry-After); the budget below usually stops it first.
const maxShedRetries = 2

// retryHeadroom is the minimum remaining-deadline slack a retry must
// leave for the attempt itself: waiting out a Retry-After only to have
// the next attempt expire mid-flight helps nobody.
const retryHeadroom = 100 * time.Millisecond

// maxRetryAfter caps the wait a server's Retry-After can ask for: far
// past any request deadline, so the deadline check declines the retry,
// and small enough that no arithmetic on it wraps.
const maxRetryAfter = 24 * time.Hour

func (c *Client) doCtx(ctx context.Context, method, path string, body []byte) (*http.Response, []byte, error) {
	timeout := c.Timeout
	if timeout == 0 {
		timeout = DefaultTimeout
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	clock := c.Clock
	if clock == nil {
		clock = time.Now
	}
	for attempt := 0; ; attempt++ {
		resp, respBody, err := c.attemptOnce(ctx, method, path, body, clock)
		if resp == nil {
			return resp, respBody, err
		}
		// Honor an explicit shed: 429/503 with Retry-After is the
		// server asking us to come back, not a failure to escalate. The
		// retry is skipped when the context deadline cannot accommodate
		// the wait plus another attempt — an expired retry only adds to
		// the very overload the server is shedding.
		if attempt >= maxShedRetries {
			return resp, respBody, err
		}
		if resp.StatusCode != http.StatusTooManyRequests && resp.StatusCode != http.StatusServiceUnavailable {
			return resp, respBody, err
		}
		wait, ok := parseRetryAfter(resp.Header.Get("Retry-After"), clock())
		if !ok {
			return resp, respBody, err
		}
		if dl, hasDL := ctx.Deadline(); hasDL && clock().Add(wait+retryHeadroom).After(dl) {
			return resp, respBody, err
		}
		if wait > 0 {
			timer := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				timer.Stop()
				return resp, respBody, err
			case <-timer.C:
			}
		}
	}
}

// parseRetryAfter decodes a Retry-After value: delta-seconds or an HTTP
// date, clamped to [0, maxRetryAfter]. A missing or malformed value
// reports ok=false — without the server's guidance the client does not
// invent a retry schedule.
func parseRetryAfter(v string, now time.Time) (time.Duration, bool) {
	if v == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0, false
		}
		if secs > int(maxRetryAfter/time.Second) {
			return maxRetryAfter, true
		}
		return time.Duration(secs) * time.Second, true
	}
	if at, err := http.ParseTime(v); err == nil {
		return min(max(at.Sub(now), 0), maxRetryAfter), true
	}
	return 0, false
}

// attemptOnce performs one signed request. Each attempt re-signs with a
// fresh date and nonce, so a retried request never replays a signature,
// and carries the context deadline downstream via DeadlineHeader. The
// response body is read into one buffer the caller owns.
func (c *Client) attemptOnce(ctx context.Context, method, path string, body []byte, clock func() time.Time) (*http.Response, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", ContentXML)
	}
	// Propagate the caller's trace context (if any) so the server joins
	// the same trace instead of rooting a new one.
	if tp := trace.TraceparentFromContext(ctx); tp != "" {
		req.Header.Set(TraceparentHeader, tp)
	}
	AttachDeadline(ctx, req.Header)
	if err := SignRequest(req, body, c.Keys, clock()); err != nil {
		return nil, nil, err
	}
	httpc := c.HTTP
	if httpc == nil {
		httpc = http.DefaultClient
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	// The portal this client chose declares the length, so the buffer
	// is allocated at that length whole.
	respBody, err := readBody(resp.Body, resp.ContentLength, maxBody)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode/100 != 2 {
		return resp, respBody, fmt.Errorf("httpapi: %s %s: %s: %s",
			method, path, resp.Status, bytes.TrimSpace(respBody))
	}
	return resp, respBody, nil
}

// StoreInitial posts a secured initial document to the portal.
func (c *Client) StoreInitial(doc *document.Document) ([]portal.Notification, error) {
	return c.StoreInitialCtx(context.Background(), doc)
}

// StoreInitialCtx is StoreInitial bounded by the caller's context.
func (c *Client) StoreInitialCtx(ctx context.Context, doc *document.Document) ([]portal.Notification, error) {
	_, body, err := c.doCtx(ctx, http.MethodPost, "/v1/documents/initial", doc.Bytes())
	if err != nil {
		return nil, err
	}
	var notes []portal.Notification
	if err := json.Unmarshal(body, &notes); err != nil {
		return nil, fmt.Errorf("httpapi: decoding notifications: %w", err)
	}
	return notes, nil
}

// Store posts a produced document to the portal.
func (c *Client) Store(doc *document.Document) ([]portal.Notification, error) {
	return c.StoreCtx(context.Background(), doc)
}

// StoreCtx is Store bounded by the caller's context. A document that
// remembers its retrieve (RetrieveCtx, kept by Fork and ProcessViaTFCCtx)
// ships only the CERs it added, to POST /v1/documents/{pid}/cers; if the
// portal's row lacks the CERs it was built on (412), the whole document
// is posted once instead. Every other document is posted whole.
func (c *Client) StoreCtx(ctx context.Context, doc *document.Document) ([]portal.Notification, error) {
	var (
		resp *http.Response
		body []byte
		err  error
	)
	delta, ok := doc.Delta()
	if ok {
		resp, body, err = c.doCtx(ctx, http.MethodPost, "/v1/documents/"+url.PathEscape(doc.ProcessID())+"/cers", delta.Bytes())
	}
	if !ok || (resp != nil && resp.StatusCode == http.StatusPreconditionFailed) {
		_, body, err = c.doCtx(ctx, http.MethodPost, "/v1/documents", doc.Bytes())
	}
	if err != nil {
		return nil, err
	}
	var notes []portal.Notification
	if err := json.Unmarshal(body, &notes); err != nil {
		return nil, fmt.Errorf("httpapi: decoding notifications: %w", err)
	}
	return notes, nil
}

// Retrieve fetches the stored document of a process instance.
func (c *Client) Retrieve(processID string) (*document.Document, error) {
	return c.RetrieveCtx(context.Background(), processID)
}

// RetrieveCtx is Retrieve bounded by the caller's context. The returned
// document remembers the retrieve (document.MarkRetrieved), so storing
// what is built from it ships only the CERs added.
func (c *Client) RetrieveCtx(ctx context.Context, processID string) (*document.Document, error) {
	_, body, err := c.doCtx(ctx, http.MethodGet, "/v1/documents/"+url.PathEscape(processID), nil)
	if err != nil {
		return nil, err
	}
	doc, err := document.ParseOwned(body)
	if err != nil {
		return nil, err
	}
	doc.MarkRetrieved()
	return doc, nil
}

// Worklist fetches the caller's TO-DO list.
func (c *Client) Worklist() ([]portal.WorkItem, error) {
	_, body, err := c.do(http.MethodGet, "/v1/worklist", nil)
	if err != nil {
		return nil, err
	}
	var items []portal.WorkItem
	if err := json.Unmarshal(body, &items); err != nil {
		return nil, fmt.Errorf("httpapi: decoding worklist: %w", err)
	}
	return items, nil
}

// Processes lists process ids, optionally filtered by state.
func (c *Client) Processes(state string) ([]string, error) {
	path := "/v1/processes"
	if state != "" {
		path += "?state=" + url.QueryEscape(state)
	}
	_, body, err := c.do(http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	var ids []string
	if err := json.Unmarshal(body, &ids); err != nil {
		return nil, fmt.Errorf("httpapi: decoding ids: %w", err)
	}
	return ids, nil
}

// Status fetches the monitoring status of one instance.
func (c *Client) Status(processID string) (*monitor.Status, error) {
	_, body, err := c.do(http.MethodGet, "/v1/status/"+url.PathEscape(processID), nil)
	if err != nil {
		return nil, err
	}
	var st monitor.Status
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, fmt.Errorf("httpapi: decoding status: %w", err)
	}
	return &st, nil
}

// Statistics fetches the pool-wide statistics.
func (c *Client) Statistics() (*monitor.Statistics, error) {
	_, body, err := c.do(http.MethodGet, "/v1/statistics", nil)
	if err != nil {
		return nil, err
	}
	var stats monitor.Statistics
	if err := json.Unmarshal(body, &stats); err != nil {
		return nil, fmt.Errorf("httpapi: decoding statistics: %w", err)
	}
	return &stats, nil
}

// StoreTemplate uploads a designer-signed workflow template to the
// portal's catalog and returns the cataloged name.
func (c *Client) StoreTemplate(tpl *xmltree.Node) (string, error) {
	_, body, err := c.do(http.MethodPut, "/v1/templates", tpl.Canonical())
	if err != nil {
		return "", err
	}
	var res map[string]string
	if err := json.Unmarshal(body, &res); err != nil {
		return "", fmt.Errorf("httpapi: decoding template response: %w", err)
	}
	return res["name"], nil
}

// Templates lists the portal's template catalog (name → designer).
func (c *Client) Templates() (map[string]string, error) {
	_, body, err := c.do(http.MethodGet, "/v1/templates", nil)
	if err != nil {
		return nil, err
	}
	var res map[string]string
	if err := json.Unmarshal(body, &res); err != nil {
		return nil, fmt.Errorf("httpapi: decoding templates: %w", err)
	}
	return res, nil
}

// Template fetches and locally re-verifies a cataloged template; the
// caller supplies the resolver (typically the deployment registry).
func (c *Client) Template(name string, resolver dsig.KeyResolver) (*wfdef.Definition, error) {
	_, body, err := c.do(http.MethodGet, "/v1/templates/"+url.PathEscape(name), nil)
	if err != nil {
		return nil, err
	}
	tpl, err := xmltree.ParseBytes(body)
	if err != nil {
		return nil, err
	}
	return document.VerifyTemplate(tpl, resolver)
}

// ProcessViaTFC submits an intermediate document to a TFC service and
// returns the routed outcome (pointing the client's BaseURL at the TFC).
func (c *Client) ProcessViaTFC(doc *document.Document) (*ProcessResponse, *document.Document, error) {
	return c.ProcessViaTFCCtx(context.Background(), doc)
}

// ProcessViaTFCCtx is ProcessViaTFC bounded by the caller's context —
// the AEA→TFC forwarding hop. The notarized document keeps doc's retrieve
// mark when its leading CERs are the retrieved ones (KeepRetrieved), so
// its store ships only the two CERs of the hop.
func (c *Client) ProcessViaTFCCtx(ctx context.Context, doc *document.Document) (*ProcessResponse, *document.Document, error) {
	_, body, err := c.doCtx(ctx, http.MethodPost, "/v1/process", doc.Bytes())
	if err != nil {
		return nil, nil, err
	}
	var pr ProcessResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		return nil, nil, fmt.Errorf("httpapi: decoding process response: %w", err)
	}
	out, err := document.ParseOwned([]byte(pr.Document))
	if err != nil {
		return nil, nil, fmt.Errorf("httpapi: parsing returned document: %w", err)
	}
	out.KeepRetrieved(doc)
	return &pr, out, nil
}

// Metrics fetches the service's Prometheus text exposition. The metrics
// endpoint is unauthenticated, so this is a plain GET without a
// signature — it works even without Keys.
func (c *Client) Metrics() (string, error) {
	httpc := c.HTTP
	if httpc == nil {
		httpc = http.DefaultClient
	}
	timeout := c.Timeout
	if timeout == 0 {
		timeout = DefaultTimeout
	}
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxBody))
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("httpapi: GET /v1/metrics: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	return string(body), nil
}

// Traces fetches the service's span ring, filtered to one trace when
// traceID is non-empty. Like Metrics, the endpoint is unauthenticated,
// so the plain GET works without Keys — dractl trace uses it to pull
// spans from every tier.
func (c *Client) Traces(traceID string) (*TracesResponse, error) {
	httpc := c.HTTP
	if httpc == nil {
		httpc = http.DefaultClient
	}
	timeout := c.Timeout
	if timeout == 0 {
		timeout = DefaultTimeout
	}
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	path := "/v1/traces"
	if traceID != "" {
		path += "?trace=" + url.QueryEscape(traceID)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxBody))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("httpapi: GET /v1/traces: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	var tr TracesResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		return nil, fmt.Errorf("httpapi: decoding traces: %w", err)
	}
	return &tr, nil
}

// TFCRecords fetches the TFC forwarding log (optionally for one process).
func (c *Client) TFCRecords(processID string) ([]tfc.ForwardRecord, error) {
	path := "/v1/records"
	if processID != "" {
		path += "?process=" + url.QueryEscape(processID)
	}
	_, body, err := c.do(http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	var recs []tfc.ForwardRecord
	if err := json.Unmarshal(body, &recs); err != nil {
		return nil, fmt.Errorf("httpapi: decoding records: %w", err)
	}
	return recs, nil
}
