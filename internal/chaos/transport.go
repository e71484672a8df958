package chaos

import (
	"bytes"
	"io"
	"net/http"
	"time"
)

// RoundTripper wraps an http.RoundTripper with the network's fault
// model. src names the sending node; resolve maps each outgoing request
// to the destination node's name (typically by host:port). A nil base
// falls back to http.DefaultTransport.
//
// Judged faults surface exactly like the real thing: drops become
// transport errors (the sender cannot tell a chaos drop from a refused
// connection), duplicates send the request a second time and discard
// that response (exercising receiver replay guards and idempotency), ack
// loss sends the request and then fails the response, corruption flips a
// byte of the response body in flight, and delays are ctx-aware sleeps
// charged before the request leaves.
//
// resign, when non-nil, is called on each duplicate with its body before
// it is sent, to sign it afresh as a sender's retry is signed; a
// receiver's replay guard then lets it through to the handler. With a nil
// resign the duplicate is the same bytes, which a nonce check refuses.
func (n *Network) RoundTripper(src string, resolve func(*http.Request) string, base http.RoundTripper, resign func(dup *http.Request, body []byte) error) http.RoundTripper {
	if base == nil {
		base = http.DefaultTransport
	}
	return &roundTripper{net: n, src: src, resolve: resolve, base: base, resign: resign}
}

type roundTripper struct {
	net     *Network
	src     string
	resolve func(*http.Request) string
	base    http.RoundTripper
	resign  func(*http.Request, []byte) error
}

func (t *roundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	dst := Wildcard
	if t.resolve != nil {
		dst = t.resolve(req)
	}
	v := t.net.Judge(t.src, dst)
	if v.Delay > 0 {
		timer := time.NewTimer(v.Delay)
		select {
		case <-req.Context().Done():
			timer.Stop()
			return nil, req.Context().Err()
		case <-timer.C:
		}
	}
	if v.Drop {
		return nil, injectedf("dropped %s %s → %s", req.Method, t.src, dst)
	}
	resp, err := t.base.RoundTrip(req)
	if err == nil && v.Dup && req.GetBody != nil {
		// Second delivery of the request, its response discarded: the
		// sender keeps the answer to its own request, and the receiver's
		// replay guard and idempotency layer must make the copy invisible.
		if dup, derr := t.duplicate(req); derr == nil {
			if dresp, derr := t.base.RoundTrip(dup); derr == nil {
				io.Copy(io.Discard, io.LimitReader(dresp.Body, 1<<20))
				dresp.Body.Close()
			}
		}
	}
	if err == nil && v.AckLoss {
		resp.Body.Close()
		return nil, injectedf("lost response to %s %s → %s", req.Method, t.src, dst)
	}
	if err != nil || !v.Corrupt {
		return resp, err
	}
	// Corrupt the response in flight: read it fully (responses on these
	// internal hops are bounded), flip one byte, hand back the damaged
	// copy. Signature and CRC layers downstream must catch this.
	raw, rerr := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	resp.Body.Close()
	if rerr != nil {
		return nil, rerr
	}
	if len(raw) > 0 {
		raw[t.net.CorruptIndex(len(raw))] ^= 0x40
	}
	resp.Body = io.NopCloser(bytes.NewReader(raw))
	resp.ContentLength = int64(len(raw))
	return resp, nil
}

// duplicate copies req for a second delivery, re-signed through resign
// when one is set.
func (t *roundTripper) duplicate(req *http.Request) (*http.Request, error) {
	body, err := req.GetBody()
	if err != nil {
		return nil, err
	}
	dup := req.Clone(req.Context())
	if t.resign == nil {
		dup.Body = body
		return dup, nil
	}
	b, err := io.ReadAll(body)
	body.Close()
	if err != nil {
		return nil, err
	}
	dup.Body = io.NopCloser(bytes.NewReader(b))
	return dup, t.resign(dup, b)
}
