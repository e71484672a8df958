// Package httpapi exposes the DRA4WfMS cloud services over HTTP: portal
// servers (store/retrieve documents, worklists, monitoring) and TFC
// servers (process intermediate documents), plus the matching client used
// by AEAs. This is the network substrate the paper's Figure 7 deployment
// implies — participants connect to portals over a public network.
//
// A document hop (AEA→portal store, AEA→TFC process) is one synchronous
// signed Client call, retried only when the server sheds it with
// 429/503 and a Retry-After; a repeated portal store is harmless, since
// merging CER sets is a set union. The portal's asynchronous webhook
// notifications go through a durable relay (webhook.go).
//
// Every request is authenticated with a detached signature: the client
// signs (method, path, date, nonce, SHA-256(body)) with the Ed25519 half
// of its key pair — RSA only for RSA-only pairs — and names the algorithm
// in X-DRA-Signature-Alg, which is itself signed. Servers pick the suite from
// the fail-closed dsig registry, resolve the principal's certified key of
// that type, and reject stale dates and replayed nonces. A request
// without the algorithm header is the original RSA form. Confidentiality
// of the payloads does not depend on the transport — DRA4WfMS documents
// protect themselves — and request signatures are transient, never
// evidence, but authentication keeps worklists and monitoring data scoped
// to known principals.
package httpapi

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"dra4wfms/internal/dsig"
	"dra4wfms/internal/pki"
)

// Authentication headers.
const (
	HeaderPrincipal = "X-DRA-Principal"
	HeaderDate      = "X-DRA-Date"
	HeaderNonce     = "X-DRA-Nonce"
	HeaderSignature = "X-DRA-Signature"
	// HeaderSignatureAlg names the dsig suite that made the signature.
	// When present it is also the first signed line, so relabelling a
	// signature breaks it; when absent the request is the original
	// RSA form.
	HeaderSignatureAlg = "X-DRA-Signature-Alg"
)

// MaxClockSkew bounds how stale a signed request may be.
const MaxClockSkew = 5 * time.Minute

// nonceTTL is how long a seen nonce is remembered: any replay of it is
// outside the date window by then.
const nonceTTL = 2 * MaxClockSkew

// The two request suites, from the same registry that verifies cascades.
var (
	rsaRequestSuite = mustSuite(dsig.SignatureAlg)
	edRequestSuite  = mustSuite(dsig.SignatureAlgEd25519)
)

func mustSuite(alg string) dsig.Suite {
	s, ok := dsig.SuiteFor(alg)
	if !ok {
		panic("httpapi: dsig suite " + alg + " not registered")
	}
	return s
}

// stringToSign canonicalizes the signed request surface. The empty path
// (a bare host URL) normalizes to "/" so clients and servers agree. A
// non-empty alg (the X-DRA-Signature-Alg value) leads as its own line; the
// empty alg gives the original RSA form byte for byte.
func stringToSign(alg, method, path, date, nonce string, body []byte) []byte {
	if path == "" {
		path = "/"
	}
	sum := sha256.Sum256(body)
	fields := []string{method, path, date, nonce, hex.EncodeToString(sum[:])}
	if alg != "" {
		fields = append([]string{alg}, fields...)
	}
	return []byte(strings.Join(fields, "\n"))
}

// SignRequest attaches the authentication headers to req (whose body bytes
// must be passed explicitly, since http.Request bodies are streams). It
// signs with the key pair's Ed25519 half when it has one and names the
// suite in HeaderSignatureAlg; an RSA-only pair (a legacy PEM file) signs
// the original header-less RSA form.
func SignRequest(req *http.Request, body []byte, keys *pki.KeyPair, now time.Time) error {
	date := now.UTC().Format(time.RFC3339Nano)
	var nb [16]byte
	if _, err := rand.Read(nb[:]); err != nil {
		return err
	}
	nonce := base64.RawURLEncoding.EncodeToString(nb[:])
	suite, alg := rsaRequestSuite, ""
	if keys.Ed != nil {
		suite, alg = edRequestSuite, edRequestSuite.Alg()
	}
	sig, err := suite.Sign(keys, stringToSign(alg, req.Method, req.URL.Path, date, nonce, body))
	if err != nil {
		return err
	}
	req.Header.Set(HeaderPrincipal, keys.Owner)
	req.Header.Set(HeaderDate, date)
	req.Header.Set(HeaderNonce, nonce)
	req.Header.Set(HeaderSignature, base64.StdEncoding.EncodeToString(sig))
	if alg != "" {
		req.Header.Set(HeaderSignatureAlg, alg)
	}
	return nil
}

// nonceCache remembers recently seen nonces to block replays within the
// clock-skew window. Entries expire oldest-first from a FIFO kept beside
// the map, so remember does amortized O(1) work however many are live.
type nonceCache struct {
	mu    sync.Mutex
	seen  map[string]struct{}
	order []seenNonce // insertion order; order[head:] are live
	head  int
}

type seenNonce struct {
	key string
	at  time.Time
}

func newNonceCache() *nonceCache {
	return &nonceCache{seen: map[string]struct{}{}}
}

// remember records the nonce; it reports false if already present.
func (c *nonceCache) remember(nonce string, now time.Time) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.head < len(c.order) && now.Sub(c.order[c.head].at) > nonceTTL {
		delete(c.seen, c.order[c.head].key)
		c.order[c.head] = seenNonce{}
		c.head++
	}
	if _, dup := c.seen[nonce]; dup {
		return false
	}
	// Reclaim the expired prefix once it is at least half the slice:
	// the copy moves no more entries than were expired since the last.
	if c.head > 0 && c.head >= len(c.order)/2 {
		n := copy(c.order, c.order[c.head:])
		clear(c.order[n:])
		c.order, c.head = c.order[:n], 0
	}
	c.seen[nonce] = struct{}{}
	c.order = append(c.order, seenNonce{key: nonce, at: now})
	return true
}

// Authenticator verifies signed requests against a registry.
type Authenticator struct {
	Registry *pki.Registry
	Clock    func() time.Time

	nonces *nonceCache
}

// NewAuthenticator creates an Authenticator; clock may be nil.
func NewAuthenticator(reg *pki.Registry, clock func() time.Time) *Authenticator {
	if clock == nil {
		clock = time.Now
	}
	return &Authenticator{Registry: reg, Clock: clock, nonces: newNonceCache()}
}

// Verify checks the request's authentication headers over the given body
// bytes and returns the authenticated principal ID. The signature's suite
// comes from HeaderSignatureAlg (absent: RSA) through the fail-closed
// dsig registry, and its key from the principal's certificate, so an
// unknown algorithm, or one the certificate binds no key for, is refused.
func (a *Authenticator) Verify(req *http.Request, body []byte) (string, error) {
	principal := req.Header.Get(HeaderPrincipal)
	date := req.Header.Get(HeaderDate)
	nonce := req.Header.Get(HeaderNonce)
	sigB64 := req.Header.Get(HeaderSignature)
	alg := req.Header.Get(HeaderSignatureAlg)
	if principal == "" || date == "" || nonce == "" || sigB64 == "" {
		return "", fmt.Errorf("httpapi: missing authentication headers")
	}
	at, err := time.Parse(time.RFC3339Nano, date)
	if err != nil {
		return "", fmt.Errorf("httpapi: bad date: %w", err)
	}
	now := a.Clock()
	skew := now.Sub(at)
	if skew < 0 {
		skew = -skew
	}
	if skew > MaxClockSkew {
		return "", fmt.Errorf("httpapi: request date outside the ±%v window", MaxClockSkew)
	}
	suite := rsaRequestSuite
	if alg != "" {
		s, ok := dsig.SuiteFor(alg)
		if !ok {
			return "", fmt.Errorf("httpapi: unknown signature algorithm %q", alg)
		}
		suite = s
	}
	pub, _, err := a.Registry.SuiteKey(principal, suite.KeyType())
	if err != nil {
		return "", fmt.Errorf("httpapi: no certified %s key for %q: %w", suite.KeyType(), principal, err)
	}
	sig, err := base64.StdEncoding.DecodeString(sigB64)
	if err != nil {
		return "", fmt.Errorf("httpapi: bad signature encoding: %w", err)
	}
	if err := suite.Verify(pub, stringToSign(alg, req.Method, req.URL.Path, date, nonce, body), sig); err != nil {
		return "", fmt.Errorf("httpapi: request signature invalid: %w", err)
	}
	if !a.nonces.remember(principal+"|"+nonce, now) {
		return "", fmt.Errorf("httpapi: replayed nonce")
	}
	return principal, nil
}
