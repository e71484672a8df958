package httpapi

import (
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dra4wfms/internal/dsig"
	"dra4wfms/internal/pki"
	"dra4wfms/internal/testenv"
	"dra4wfms/internal/wfdef"
)

// rsaOnly strips the Ed25519 half, as DecodePrivateKeyPEM does for a
// legacy RSA-only PEM file.
func rsaOnly(kp *pki.KeyPair) *pki.KeyPair {
	return &pki.KeyPair{Owner: kp.Owner, Private: kp.Private}
}

// registerLegacy certifies id's RSA key only, as a CA did before Ed25519.
func registerLegacy(t testing.TB, env *testenv.Env, id string) {
	t.Helper()
	cert, err := env.CA.Issue(pki.Identity{ID: id}, env.KeyOf(id).Public(), env.Now, 24*365*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Registry.Register(cert, env.Now); err != nil {
		t.Fatal(err)
	}
}

// send signs a GET /v1/worklist as keys, lets edit change the headers,
// and returns the portal's status.
func (w *world) send(t *testing.T, keys *pki.KeyPair, edit func(http.Header)) int {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, w.portalSrv.URL+"/v1/worklist", nil)
	if err := SignRequest(req, nil, keys, w.clock()); err != nil {
		t.Fatal(err)
	}
	if edit != nil {
		edit(req.Header)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func TestSignRequestUsesEd25519(t *testing.T) {
	w := newWorld(t)
	alice := wfdef.Fig9Participants["A"]
	req, _ := http.NewRequest(http.MethodGet, w.portalSrv.URL+"/v1/worklist", nil)
	if err := SignRequest(req, nil, w.env.KeyOf(alice), w.clock()); err != nil {
		t.Fatal(err)
	}
	if got := req.Header.Get(HeaderSignatureAlg); got != dsig.SignatureAlgEd25519 {
		t.Fatalf("%s = %q, want %q", HeaderSignatureAlg, got, dsig.SignatureAlgEd25519)
	}
	if got := w.send(t, w.env.KeyOf(alice), nil); got != http.StatusOK {
		t.Fatalf("ed25519-signed worklist: %d", got)
	}
}

func TestRSAOnlyKeyPairSignsOriginalForm(t *testing.T) {
	w := newWorld(t)
	legacy := "legacy@acme"
	registerLegacy(t, w.env, legacy)
	keys := rsaOnly(w.env.KeyOf(legacy))

	req, _ := http.NewRequest(http.MethodPost, w.portalSrv.URL+"/v1/documents", nil)
	body := []byte("<doc/>")
	if err := SignRequest(req, body, keys, w.clock()); err != nil {
		t.Fatal(err)
	}
	if _, ok := req.Header[http.CanonicalHeaderKey(HeaderSignatureAlg)]; ok {
		t.Fatalf("RSA-only pair sent %s", HeaderSignatureAlg)
	}
	// The original string to sign, spelled out.
	date, nonce := req.Header.Get(HeaderDate), req.Header.Get(HeaderNonce)
	sum := sha256.Sum256(body)
	want := "POST\n/v1/documents\n" + date + "\n" + nonce + "\n" + hex.EncodeToString(sum[:])
	if got := string(stringToSign("", http.MethodPost, "/v1/documents", date, nonce, body)); got != want {
		t.Fatalf("stringToSign = %q, want %q", got, want)
	}
	sig, _ := base64.StdEncoding.DecodeString(req.Header.Get(HeaderSignature))
	if err := pki.Verify(keys.Public(), []byte(want), sig); err != nil {
		t.Fatalf("signature is not RSA over the original form: %v", err)
	}

	if got := w.send(t, keys, nil); got != http.StatusOK {
		t.Fatalf("RSA-only worklist: %d", got)
	}
}

func TestSignatureAlgorithmBound(t *testing.T) {
	w := newWorld(t)
	alice := w.env.KeyOf(wfdef.Fig9Participants["A"])
	legacy := "legacy@acme"
	registerLegacy(t, w.env, legacy)

	cases := []struct {
		name string
		keys *pki.KeyPair
		edit func(http.Header)
	}{
		{"ed25519 header stripped", alice, func(h http.Header) { h.Del(HeaderSignatureAlg) }},
		{"ed25519 relabelled rsa-sha256", alice, func(h http.Header) { h.Set(HeaderSignatureAlg, dsig.SignatureAlg) }},
		{"unknown algorithm", alice, func(h http.Header) { h.Set(HeaderSignatureAlg, "hmac-md5") }},
		{"ed25519 without a certified ed25519 key", w.env.KeyOf(legacy), nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := w.send(t, tc.keys, tc.edit); got != http.StatusUnauthorized {
				t.Fatalf("status %d, want 401", got)
			}
		})
	}
}

func TestNonceCacheExpiresOldestFirst(t *testing.T) {
	c := newNonceCache()
	t0 := time.Date(2026, 7, 6, 8, 0, 0, 0, time.UTC)
	if !c.remember("a", t0) {
		t.Fatal("fresh nonce refused")
	}
	if c.remember("a", t0.Add(nonceTTL)) {
		t.Fatal("replay inside 2×MaxClockSkew accepted")
	}
	// A later insertion expires "a", which is then new again.
	if !c.remember("b", t0.Add(nonceTTL+time.Second)) {
		t.Fatal("fresh nonce refused")
	}
	if _, ok := c.seen["a"]; ok {
		t.Fatal("expired nonce kept")
	}
	if !c.remember("a", t0.Add(nonceTTL+2*time.Second)) {
		t.Fatal("expired nonce still refused")
	}

	// One nonce a second for three TTLs: the live set stays one TTL wide
	// and the FIFO at most twice that.
	const live = int(nonceTTL/time.Second) + 1
	at := t0.Add(nonceTTL + 3*time.Second)
	for i := 0; i < 3*live; i++ {
		at = at.Add(time.Second)
		if !c.remember("n"+strconv.Itoa(i), at) {
			t.Fatalf("nonce %d refused", i)
		}
		if len(c.seen) > live || len(c.seen) != len(c.order)-c.head || len(c.order) > 2*live {
			t.Fatalf("step %d: %d seen, %d queued from %d; bound %d", i, len(c.seen), len(c.order), c.head, live)
		}
	}
}

// TestNonceCacheConcurrentReplay races goroutines that each send one
// fresh nonce and one shared nonce: the shared one is accepted once.
func TestNonceCacheConcurrentReplay(t *testing.T) {
	c := newNonceCache()
	t0 := time.Date(2026, 7, 6, 8, 0, 0, 0, time.UTC)
	const n = 8
	var accepted atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			at := t0.Add(time.Duration(g) * time.Second)
			if !c.remember("fresh"+strconv.Itoa(g), at) {
				t.Errorf("fresh nonce %d refused", g)
			}
			if c.remember("shared", at) {
				accepted.Add(1)
			}
		}(g)
	}
	wg.Wait()
	if got := accepted.Load(); got != 1 {
		t.Fatalf("shared nonce accepted %d times, want 1", got)
	}
}

// FuzzVerifyRequest mutates every authenticated header and the body
// against a fixed registry: Verify must never panic and must accept only
// a tuple that was genuinely signed.
func FuzzVerifyRequest(f *testing.F) {
	env := testenv.Fig9(0)
	registerLegacy(f, env, "legacy@acme")
	at := env.Now.Add(time.Minute)
	clock := func() time.Time { return at }

	type tuple struct {
		principal, date, nonce, alg string
		sig                         []byte
		body                        []byte
	}
	var genuine []tuple
	for _, keys := range []*pki.KeyPair{
		env.KeyOf(wfdef.Fig9Participants["A"]),
		rsaOnly(env.KeyOf(wfdef.Fig9Participants["A"])),
		rsaOnly(env.KeyOf("legacy@acme")),
	} {
		body := []byte("<doc>" + keys.Owner + "</doc>")
		req, _ := http.NewRequest(http.MethodPost, "http://portal/v1/documents", nil)
		if err := SignRequest(req, body, keys, at); err != nil {
			f.Fatal(err)
		}
		h := req.Header
		sig, _ := base64.StdEncoding.DecodeString(h.Get(HeaderSignature))
		genuine = append(genuine, tuple{h.Get(HeaderPrincipal), h.Get(HeaderDate), h.Get(HeaderNonce), h.Get(HeaderSignatureAlg), sig, body})
		f.Add(h.Get(HeaderPrincipal), h.Get(HeaderDate), h.Get(HeaderNonce), h.Get(HeaderSignatureAlg), h.Get(HeaderSignature), body)
		f.Add(h.Get(HeaderPrincipal), h.Get(HeaderDate), h.Get(HeaderNonce), "", h.Get(HeaderSignature), body)
		f.Add("legacy@acme", h.Get(HeaderDate), h.Get(HeaderNonce), dsig.SignatureAlgEd25519, h.Get(HeaderSignature), body)
	}

	f.Fuzz(func(t *testing.T, principal, date, nonce, alg, sigB64 string, body []byte) {
		req, _ := http.NewRequest(http.MethodPost, "http://portal/v1/documents", nil)
		for k, v := range map[string]string{
			HeaderPrincipal: principal, HeaderDate: date, HeaderNonce: nonce,
			HeaderSignatureAlg: alg, HeaderSignature: sigB64,
		} {
			req.Header.Set(k, v)
		}
		got, err := NewAuthenticator(env.Registry, clock).Verify(req, body)
		sig, _ := base64.StdEncoding.DecodeString(sigB64)
		signed := false
		for _, g := range genuine {
			signed = signed || g.principal == principal && g.date == date && g.nonce == nonce &&
				g.alg == alg && bytes.Equal(g.sig, sig) && bytes.Equal(g.body, body)
		}
		switch {
		case err == nil && !signed:
			t.Fatalf("accepted a tuple nobody signed: principal=%q date=%q nonce=%q alg=%q sig=%q body=%q",
				principal, date, nonce, alg, sigB64, body)
		case err != nil && signed:
			t.Fatalf("refused a genuinely signed tuple: %v", err)
		case err == nil && got != principal:
			t.Fatalf("authenticated %q for principal %q", got, principal)
		}
	})
}

// BenchmarkNonceRemember measures one replay check against 100 000 live
// nonces, each insertion expiring the oldest.
func BenchmarkNonceRemember(b *testing.B) {
	const live = 100_000
	step := nonceTTL / live
	t0 := time.Date(2026, 7, 6, 8, 0, 0, 0, time.UTC)
	c := newNonceCache()
	for i := 0; i < live; i++ {
		c.remember("p|"+strconv.Itoa(i), t0.Add(time.Duration(i)*step))
	}
	keys := make([]string, b.N)
	for i := range keys {
		keys[i] = "q|" + strconv.Itoa(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.remember(keys[i], t0.Add(nonceTTL+time.Duration(i+1)*step)) {
			b.Fatal("fresh nonce refused")
		}
	}
}

// BenchmarkSignVerifyRequest is one request authentication, client sign
// plus server verify, per request suite at the deployments' RSA-2048.
func BenchmarkSignVerifyRequest(b *testing.B) {
	env := testenv.New(2048)
	const id = "alice@acme"
	env.MustRegister(id)
	for _, tc := range []struct {
		suite string
		keys  *pki.KeyPair
	}{
		{dsig.SignatureAlg, rsaOnly(env.KeyOf(id))},
		{dsig.SignatureAlgEd25519, env.KeyOf(id)},
	} {
		b.Run(tc.suite, func(b *testing.B) {
			auth := NewAuthenticator(env.Registry, nil)
			body := []byte("<doc/>")
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				req, _ := http.NewRequest(http.MethodPost, "http://portal/v1/documents", nil)
				if err := SignRequest(req, body, tc.keys, time.Now()); err != nil {
					b.Fatal(err)
				}
				if _, err := auth.Verify(req, body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
