// Package testenv builds ready-made trust environments for tests,
// benchmarks and examples: a certification authority, a registry, and
// cached key pairs for the principals of the paper's workflows. RSA key
// generation dominates setup cost, so keys are memoized per (bits, owner)
// process-wide.
package testenv

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"time"

	"dra4wfms/internal/pki"
	"dra4wfms/internal/wfdef"
	"dra4wfms/internal/xmlenc"
	"dra4wfms/internal/xmltree"
)

var (
	cachesMu sync.Mutex
	caches   = map[int]*pki.KeyCache{}
)

func cacheFor(bits int) *pki.KeyCache {
	cachesMu.Lock()
	defer cachesMu.Unlock()
	c, ok := caches[bits]
	if !ok {
		c = pki.NewKeyCache(bits)
		caches[bits] = c
	}
	return c
}

// Env is a populated trust environment.
type Env struct {
	// CA is the single trust anchor.
	CA *pki.CA
	// Registry trusts CA and holds certificates for every registered
	// principal.
	Registry *pki.Registry
	// Bits is the RSA modulus size of all keys in this environment.
	Bits int
	// Now is the reference instant used for certificate validity.
	Now time.Time

	cache *pki.KeyCache
}

// New creates an environment with keys of the given RSA size (<=0 selects
// 1024, adequate for tests; benchmarks use 2048 to mirror deployments).
func New(bits int) *Env {
	if bits <= 0 {
		bits = 1024
	}
	cache := cacheFor(bits)
	ca := &pki.CA{
		Identity: pki.Identity{ID: "ca@root", DisplayName: "Root CA"},
		Keys:     cache.MustGet("ca@root"),
	}
	return &Env{
		CA:       ca,
		Registry: pki.NewRegistry(ca),
		Bits:     bits,
		Now:      time.Date(2026, 7, 6, 8, 0, 0, 0, time.UTC),
		cache:    cache,
	}
}

// KeyOf returns the (cached) key pair of a principal; the principal need
// not be registered.
func (e *Env) KeyOf(id string) *pki.KeyPair { return e.cache.MustGet(id) }

// Register issues and registers a certificate for each principal ID,
// deriving the organization from the part after '@'.
func (e *Env) Register(ids ...string) error {
	for _, id := range ids {
		if err := e.RegisterRoles(id); err != nil {
			return err
		}
	}
	return nil
}

// RegisterRoles registers one principal whose certificate claims the
// given roles, so it may execute activities assigned to any of them.
func (e *Env) RegisterRoles(id string, roles ...string) error {
	org := ""
	if i := strings.IndexByte(id, '@'); i >= 0 {
		org = id[i+1:]
	}
	cert, err := e.CA.IssueKeys(pki.Identity{ID: id, DisplayName: id, Org: org, Roles: roles},
		e.KeyOf(id), e.Now, 24*365*time.Hour)
	if err != nil {
		return fmt.Errorf("testenv: issuing for %s: %w", id, err)
	}
	if err := e.Registry.Register(cert, e.Now); err != nil {
		return fmt.Errorf("testenv: registering %s: %w", id, err)
	}
	return nil
}

// MustRegister is Register that panics on failure.
func (e *Env) MustRegister(ids ...string) {
	if err := e.Register(ids...); err != nil {
		panic(err)
	}
}

// Fig9 returns an environment with the designer, the TFC server and all
// Figure 9 participants registered.
func Fig9(bits int) *Env {
	e := New(bits)
	ids := []string{"designer@acme", "tfc@cloud"}
	for _, p := range wfdef.Fig9Participants {
		ids = append(ids, p)
	}
	e.MustRegister(ids...)
	return e
}

// Fig4 returns an environment with the designer, the TFC server and all
// Figure 4 participants registered.
func Fig4(bits int) *Env {
	e := New(bits)
	p := wfdef.Fig4Participants
	e.MustRegister("designer@p0", "tfc@cloud", p.Peter, p.Tony, p.Amy, p.John, p.Mary)
	return e
}

// ProcessID returns a fresh unique process instance id.
func ProcessID() string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err)
	}
	return "proc-" + hex.EncodeToString(b[:])
}

// ReadableKeys returns the wrapped-key text of every EncryptedData under n
// that owner is a recipient of — one entry per content key owner unwraps
// to open the element. Content inside an encrypted element is not seen.
func ReadableKeys(n *xmltree.Node, owner string) []string {
	var out []string
	for _, c := range n.ChildElements() {
		if !xmlenc.IsEncrypted(c) {
			out = append(out, ReadableKeys(c, owner)...)
			continue
		}
		for _, ek := range c.Child("KeyInfo").ChildElements() {
			if ek.AttrDefault("Recipient", "") == owner {
				out = append(out, ek.ChildText("CipherValue"))
			}
		}
	}
	return out
}
