// Verification fast path for signature cascades.
//
// A routed DRA4WfMS document accumulates one Signature element per executed
// activity, and every tier (AEA, portal, TFC) re-verifies the whole cascade
// on every hop — the α cost of the paper's Tables 1–2, which grows linearly
// per hop and quadratically over a workflow. Three optimizations attack it:
//
//  1. a one-pass id→digest index shared by every signature in a batch
//     (replacing a full-document FindByID walk per Reference);
//  2. a fan-out bounded by one process-wide set of verify slots, one per
//     core: a batch hands a signature to a goroutine while it can take a
//     slot and verifies it inline otherwise, with fail-fast cancellation;
//  3. a verified-prefix cache: an LRU of (signature canonical bytes, signer
//     public key) pairs whose RSA signature has already verified. On a hit
//     the RSA operation is skipped — the Reference digests are still
//     recomputed against the CURRENT tree, so tampering with a referenced
//     subtree is caught even when the signature itself is cached, and any
//     byte flipped inside the Signature element changes its canonical
//     bytes, missing the cache and failing the fresh RSA check.
//
// Together with the canonical-bytes memoization in package xmltree this
// turns the steady-state per-hop α from O(#signatures) RSA verifications
// into O(new signatures), the single biggest lever on the paper's
// scalability claim.
package dsig

import (
	"container/list"
	"context"
	"crypto"
	"crypto/rsa"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"dra4wfms/internal/pki"
	"dra4wfms/internal/telemetry"
	"dra4wfms/internal/xmltree"
)

// Fast-path telemetry: prefix-cache effectiveness and the batch span.
var (
	mCacheHits      = telemetry.Default().Counter("dsig_verify_cache_hits_total")
	mCacheMisses    = telemetry.Default().Counter("dsig_verify_cache_misses_total")
	mCacheEvictions = telemetry.Default().Counter("dsig_verify_cache_evictions_total")
)

// DefaultCacheSize is the verified-prefix cache capacity of
// DefaultVerifier. Each entry is a fixed 64-byte key, so the
// default costs a few hundred KB at worst.
const DefaultCacheSize = 4096

// digestIndex resolves Reference URIs for a batch of signatures against one
// document: the id→element map is built in a single walk, and each target's
// SHA-256 digest is computed at most once per batch regardless of how many
// signatures reference it. Safe for concurrent use by a batch's goroutines.
type digestIndex struct {
	byID map[string]*xmltree.Node

	mu   sync.Mutex
	sums map[string][]byte
}

// newDigestIndex walks root once, mapping each Id value to the element
// carrying it. An Id carried by two elements fails with ErrDuplicateID:
// a Reference to it would be ambiguous, and resolving it to either copy
// lets a signed original vouch for a forged twin (signature wrapping).
func newDigestIndex(root *xmltree.Node) (*digestIndex, error) {
	ix := &digestIndex{
		byID: make(map[string]*xmltree.Node),
		sums: make(map[string][]byte),
	}
	var dup error
	root.Walk(func(e *xmltree.Node) bool {
		if v, ok := e.Attr("Id"); ok {
			if _, seen := ix.byID[v]; seen {
				dup = fmt.Errorf("%w: %q", ErrDuplicateID, v)
				return false
			}
			ix.byID[v] = e
		}
		return true
	})
	return ix, dup
}

// digest returns the SHA-256 of the canonical bytes of the element with the
// given Id, computing it on first use and serving the batch-local copy
// afterwards.
func (ix *digestIndex) digest(id string) ([]byte, error) {
	ix.mu.Lock()
	sum, ok := ix.sums[id]
	ix.mu.Unlock()
	if ok {
		return sum, nil
	}
	target := ix.byID[id]
	if target == nil {
		return nil, fmt.Errorf("%w: #%s", ErrMissingReference, id)
	}
	// Canonical is memoized and safe for concurrent readers; two goroutines
	// racing on the same id compute identical bytes, so last-write-wins on
	// the sums map is harmless.
	s := sha256.Sum256(target.Canonical())
	ix.mu.Lock()
	ix.sums[id] = s[:]
	ix.mu.Unlock()
	return s[:], nil
}

// cacheKey identifies one successfully verified (signature, key) pair. The
// signature component hashes the Signature element's full canonical bytes —
// SignedInfo with every DigestValue, SignatureValue, KeyInfo — so any
// mutation inside the signature changes the key. The key component
// fingerprints the RESOLVED public key (modulus and exponent, not just the
// KeyName), so two registries that bind the same principal name to
// different keys can never satisfy each other's cache entries.
type cacheKey struct {
	sig [sha256.Size]byte
	key [sha256.Size]byte
}

func keyFingerprint(signer string, pub *rsa.PublicKey) [sha256.Size]byte {
	h := sha256.New()
	h.Write([]byte(signer))
	h.Write([]byte{0})
	h.Write(pub.N.Bytes())
	var e [8]byte
	binary.BigEndian.PutUint64(e[:], uint64(pub.E))
	h.Write(e[:])
	var fp [sha256.Size]byte
	h.Sum(fp[:0])
	return fp
}

// Cache is a fixed-capacity LRU of verified (signature, key) pairs — the
// verified-prefix cache. A hit proves the RSA signature over SignedInfo
// already verified under the same public key; it says nothing about the
// referenced subtrees, whose digests the verifier always rechecks against
// the current document. Safe for concurrent use.
type Cache struct {
	mu    sync.Mutex
	max   int
	order *list.List // front = most recently used; values are cacheKey
	items map[cacheKey]*list.Element
}

// NewCache returns a verified-prefix cache holding up to max entries.
// A non-positive max returns nil, which disables caching.
func NewCache(max int) *Cache {
	if max <= 0 {
		return nil
	}
	return &Cache{max: max, order: list.New(), items: make(map[cacheKey]*list.Element)}
}

// contains reports whether k was verified before, marking it most recently
// used. A nil cache never hits.
func (c *Cache) contains(k cacheKey) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if ok {
		c.order.MoveToFront(el)
	}
	return ok
}

// add records a successful verification, evicting the least recently used
// entry when full.
func (c *Cache) add(k cacheKey) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.order.MoveToFront(el)
		return
	}
	c.items[k] = c.order.PushFront(k)
	for len(c.items) > c.max {
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.items, back.Value.(cacheKey))
		mCacheEvictions.Inc()
	}
}

// Len returns the number of cached verifications.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Verifier verifies signature batches with an optional verified-prefix
// cache. The zero value fans batches out over the verify slots with no
// cache.
type Verifier struct {
	// Workers is 1 to verify a batch serially on the calling goroutine;
	// any other value lets the batch use the process-wide verify slots.
	Workers int
	// Cache is the verified-prefix cache; nil disables it.
	Cache *Cache
}

var defaultVerifier = &Verifier{Cache: NewCache(DefaultCacheSize)}

// DefaultVerifier returns the process-wide verifier used by VerifyAll:
// fanned out, with a verified-prefix cache of DefaultCacheSize entries.
func DefaultVerifier() *Verifier { return defaultVerifier }

// verifySlots bounds the goroutines all in-flight batches of the process
// add, one per core. A batch hands a signature to a goroutine only when
// it can take a slot and verifies it inline otherwise, so total
// parallelism stays bounded by cores plus in-flight requests and
// saturation degrades to inline work instead of a queue.
var verifySlots = make(chan struct{}, runtime.GOMAXPROCS(0))

// VerifyAll verifies every Signature element found in the subtree rooted at
// container against the document root. It returns the number of signatures
// that verified; on failure that count excludes the failing signature, and
// the error names the failing signature's Id.
func (v *Verifier) VerifyAll(root, container *xmltree.Node, resolver KeyResolver) (int, error) {
	return v.VerifyAllCtx(context.Background(), root, container, resolver)
}

// VerifyAllCtx is VerifyAll carrying the caller's trace context: inside
// a sampled distributed trace the batch verification lands as a
// dsig-tier span — the RSA wall of the paper's α column, attributed.
func (v *Verifier) VerifyAllCtx(ctx context.Context, root, container *xmltree.Node, resolver KeyResolver) (int, error) {
	sigs := container.FindAll(SignatureElem)
	n, idx, err := v.VerifyBatchCtx(ctx, root, sigs, resolver)
	if err != nil {
		if idx < 0 || idx >= len(sigs) {
			// No single signature failed — the batch itself was abandoned
			// (context deadline/cancellation).
			return n, err
		}
		return n, fmt.Errorf("signature %s: %w", sigLabel(sigs[idx], idx), err)
	}
	return n, nil
}

// sigLabel names a signature for error messages: its Id when present, its
// batch position otherwise.
func sigLabel(sig *xmltree.Node, idx int) string {
	if id := sig.AttrDefault("Id", ""); id != "" {
		return id
	}
	return fmt.Sprintf("#%d", idx)
}

// VerifyBatchCtx verifies the given signatures against root, sharing one
// id→digest index across the batch. Each signature but the last runs on a
// goroutine while a verify slot is free and inline otherwise; the first
// failure stops the rest. It returns the number of signatures that
// verified and, on failure, the index of the failing signature (the lowest
// failing index when several fail) so callers can attribute the error.
// failedIdx is -1 on success and when the batch as a whole is refused:
// the caller's context ended, or root carries a duplicate Id. Inside a
// sampled distributed trace the batch lands as a dsig-tier span (see
// VerifyAllCtx).
func (v *Verifier) VerifyBatchCtx(tctx context.Context, root *xmltree.Node, sigs []*xmltree.Node, resolver KeyResolver) (verified int, failedIdx int, err error) {
	if len(sigs) == 0 {
		return 0, -1, nil
	}
	// Deadline abandonment: an expired caller budget (the propagated
	// X-DRA-Deadline) means nobody is waiting for the answer — refuse
	// before building the digest index or spending a single RSA verify.
	if cerr := tctx.Err(); cerr != nil {
		return 0, -1, cerr
	}
	tctx, span := telemetry.Default().StartSpan(tctx, "dsig_verify_all_seconds")
	defer span.End()
	span.SetAttr("sigs", strconv.Itoa(len(sigs)))

	ix, err := newDigestIndex(root)
	if err != nil {
		return 0, -1, err
	}
	// A failure stops the dispatch of further signatures; those already
	// dispatched still run, so every index below the lowest failing one
	// has verified and attribution does not depend on scheduling.
	var (
		okCount atomic.Int64
		failed  atomic.Bool
		mu      sync.Mutex
		wg      sync.WaitGroup
	)
	failedIdx = -1
	run := func(i int) {
		if tctx.Err() != nil {
			return
		}
		verr := verifyWith(ix, sigs[i], resolver, v.Cache)
		if verr == nil {
			okCount.Add(1)
			return
		}
		mu.Lock()
		if failedIdx == -1 || i < failedIdx {
			failedIdx, err = i, verr
		}
		mu.Unlock()
		failed.Store(true)
	}
	for i := range sigs {
		if failed.Load() || tctx.Err() != nil {
			break // fail-fast: stop feeding a failed or abandoned batch
		}
		// The last signature always runs inline: the batch goroutine
		// would otherwise only wait for it.
		if v.Workers != 1 && i < len(sigs)-1 {
			select {
			case verifySlots <- struct{}{}:
				wg.Add(1)
				go func() {
					defer func() { <-verifySlots; wg.Done() }()
					run(i)
				}()
				continue
			default:
			}
		}
		run(i)
	}
	wg.Wait()
	if err != nil {
		return int(okCount.Load()), failedIdx, err
	}
	// The batch may have been cancelled by the caller's deadline rather
	// than a bad signature: signatures skipped after cancellation verified
	// nothing, so success may only be claimed when every signature ran.
	if cerr := tctx.Err(); cerr != nil && int(okCount.Load()) != len(sigs) {
		return int(okCount.Load()), -1, cerr
	}
	return len(sigs), -1, nil
}

// SuiteKeyResolver is the resolver fast path: it returns the parsed public
// key of the requested type together with a precomputed fingerprint, so
// the hot loop neither re-parses key material nor re-hashes it per
// signature. *pki.Registry satisfies it via its per-principal
// resolved-key cache; resolvers that don't are served through the legacy
// RSA-only PublicKey method.
type SuiteKeyResolver interface {
	SuiteKey(id, keyType string) (crypto.PublicKey, [sha256.Size]byte, error)
}

// resolveSignerKey resolves signer to key material matching the suite,
// plus the fingerprint that binds verified-prefix cache entries to the
// resolved key.
func resolveSignerKey(resolver KeyResolver, signer string, suite Suite) (crypto.PublicKey, [sha256.Size]byte, error) {
	if sr, ok := resolver.(SuiteKeyResolver); ok {
		return sr.SuiteKey(signer, suite.KeyType())
	}
	// Legacy resolvers only know RSA keys.
	if suite.KeyType() != pki.KeyRSA {
		return nil, [sha256.Size]byte{}, fmt.Errorf("dsig: resolver %T cannot supply %s keys", resolver, suite.KeyType())
	}
	pub, err := resolver.PublicKey(signer)
	if err != nil {
		return nil, [sha256.Size]byte{}, err
	}
	return pub, keyFingerprint(signer, pub), nil
}

// verifyWith performs the full verification of one signature: structural
// and algorithm checks, every Reference digest recomputed against the
// current document through the shared index, and the suite signature over
// SignedInfo — the last skipped on a verified-prefix cache hit, since the
// hit proves the identical signature bytes already verified under the same
// resolved key.
func verifyWith(ix *digestIndex, sig *xmltree.Node, resolver KeyResolver, cache *Cache) error {
	si, suite, err := checkStructure(sig)
	if err != nil {
		return err
	}
	if err := checkReferences(ix, si); err != nil {
		return err
	}

	signer := SignerOf(sig)
	if signer == "" {
		return errMissingKeyName
	}
	pub, fp, err := resolveSignerKey(resolver, signer, suite)
	if err != nil {
		return fmt.Errorf("dsig: resolving signer %q: %w", signer, err)
	}

	var key cacheKey
	if cache != nil {
		key = cacheKey{sig: sha256.Sum256(sig.Canonical()), key: fp}
		if cache.contains(key) {
			mCacheHits.Inc()
			return nil
		}
		mCacheMisses.Inc()
	}

	if err := checkSignatureValue(si, sig, signer, pub, suite); err != nil {
		return err
	}
	cache.add(key)
	return nil
}
