// Verification fast path for signature cascades.
//
// A routed DRA4WfMS document accumulates one Signature element per executed
// activity, and every tier (AEA, portal, TFC) re-verifies the whole cascade
// on every hop — the α cost of the paper's Tables 1–2, which grows linearly
// per hop and quadratically over a workflow. Three optimizations attack it:
//
//  1. a one-pass id→digest index shared by every signature in a batch
//     (replacing a full-document FindByID walk per Reference);
//  2. a bounded worker pool fanning independent RSA verifications out over
//     the available cores, with fail-fast cancellation;
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

// DefaultCacheSize is the verified-prefix cache capacity used by the
// process-wide default verifier. Each entry is a fixed 64-byte key, so the
// default costs a few hundred KB at worst.
const DefaultCacheSize = 4096

// digestIndex resolves Reference URIs for a batch of signatures against one
// document: the id→element map is built in a single walk, and each target's
// SHA-256 digest is computed at most once per batch regardless of how many
// signatures reference it. Safe for concurrent use by the worker pool.
type digestIndex struct {
	byID map[string]*xmltree.Node

	mu   sync.Mutex
	sums map[string][]byte
}

// newDigestIndex walks root once, recording the first element (in document
// order) carrying each Id value — the same element FindByID would return.
func newDigestIndex(root *xmltree.Node) *digestIndex {
	ix := &digestIndex{
		byID: make(map[string]*xmltree.Node),
		sums: make(map[string][]byte),
	}
	root.Walk(func(e *xmltree.Node) bool {
		if v, ok := e.Attr("Id"); ok {
			if _, dup := ix.byID[v]; !dup {
				ix.byID[v] = e
			}
		}
		return true
	})
	return ix
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
	// Canonical is memoized and safe for concurrent readers; two workers
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

// Verifier verifies signature batches through a shared worker pool and an
// optional verified-prefix cache. The zero value verifies serially with no
// cache; the package-level default (see Configure) feeds the process-wide
// pool and a shared cache.
type Verifier struct {
	// Workers bounds concurrent signature verifications in a batch.
	// 0 means GOMAXPROCS; 1 forces serial verification.
	Workers int
	// Cache is the verified-prefix cache; nil disables it.
	Cache *Cache
	// Pool is the shared verify pool batches submit to. nil with
	// Workers != 1 falls back to a per-batch goroutine fan-out (the
	// pre-pool behavior, kept for standalone Verifier values).
	Pool *VerifyPool
}

// defaultVerifier is what package-level VerifyAll uses; replaced atomically
// by Configure so servers can apply flags after init.
var defaultVerifier atomic.Pointer[Verifier]

func init() {
	defaultVerifier.Store(&Verifier{
		Cache: NewCache(DefaultCacheSize),
		Pool:  NewVerifyPool(0, 0),
	})
}

// DefaultVerifier returns the process-wide verifier used by VerifyAll.
func DefaultVerifier() *Verifier { return defaultVerifier.Load() }

// Configure replaces the process-wide verifier: workers sizes the shared
// verify pool (0 = GOMAXPROCS, 1 = serial, no pool) and cacheSize sizes a
// fresh verified-prefix cache (0 disables caching). Binaries expose these
// as -verify-workers and -verify-cache flags.
//
// Reconfiguration is safe while verifications are in flight: the new
// verifier is swapped in atomically, and the previous pool is retired
// asynchronously — its queued work is drained to completion, and batches
// still holding it simply fall back to inline execution once it refuses
// submissions. Concurrent Configure calls each retire exactly the
// verifier they displaced.
func Configure(workers, cacheSize int) {
	v := &Verifier{Workers: workers, Cache: NewCache(cacheSize)}
	if workers != 1 {
		v.Pool = NewVerifyPool(workers, 0)
	}
	old := defaultVerifier.Swap(v)
	if old != nil && old.Pool != nil {
		go old.Pool.Close()
	}
}

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

// VerifyBatch verifies the given signatures against root, sharing one
// id→digest index across the batch and fanning the work over the worker
// pool. It returns the number of signatures that verified and, on failure,
// the index of the failing signature (the lowest failing index when several
// fail) so callers can attribute the error; failedIdx is -1 on success.
func (v *Verifier) VerifyBatch(root *xmltree.Node, sigs []*xmltree.Node, resolver KeyResolver) (verified int, failedIdx int, err error) {
	return v.VerifyBatchCtx(context.Background(), root, sigs, resolver)
}

// VerifyBatchCtx is VerifyBatch carrying the caller's trace context
// (see VerifyAllCtx).
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

	ix := newDigestIndex(root)
	workers := v.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(sigs) {
		workers = len(sigs)
	}

	if workers <= 1 {
		for i, s := range sigs {
			if cerr := tctx.Err(); cerr != nil {
				return i, -1, cerr
			}
			if err := verifyWith(ix, s, resolver, v.Cache); err != nil {
				return i, i, err
			}
		}
		return len(sigs), -1, nil
	}

	// Parallel path. Each signature becomes one task; the first failure
	// cancels the rest, and when several signatures fail in the same batch
	// the lowest index wins so error attribution is stable. The cancel
	// context derives from tctx so an expiring propagated deadline
	// abandons the remainder of the batch mid-flight.
	ctx, cancel := context.WithCancel(tctx)
	defer cancel()
	var (
		okCount atomic.Int64
		mu      sync.Mutex
		wg      sync.WaitGroup
	)
	failedIdx = -1
	record := func(i int, verr error) {
		if verr == nil {
			okCount.Add(1)
			return
		}
		mu.Lock()
		if failedIdx == -1 || i < failedIdx {
			failedIdx, err = i, verr
		}
		mu.Unlock()
		cancel()
	}

	if v.Pool != nil {
		// Shared-pool path: offer every signature to the process-wide
		// pool; when the admission queue is saturated (or the pool was
		// retired by a concurrent Configure) the batch goroutine lends
		// itself and runs the task inline, so total parallelism degrades
		// gracefully instead of queueing without bound.
		for i := range sigs {
			if ctx.Err() != nil {
				break // fail-fast: stop feeding a failed batch
			}
			i := i
			wg.Add(1)
			task := func() {
				defer wg.Done()
				select {
				case <-ctx.Done():
					return
				default:
				}
				record(i, verifyWith(ix, sigs[i], resolver, v.Cache))
			}
			if !v.Pool.TrySubmit(task) {
				mPoolInline.Inc()
				task()
			}
		}
		wg.Wait()
	} else {
		// Standalone fan-out: workers pull indices from an atomic counter.
		var next atomic.Int64
		next.Store(-1)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1))
					if i >= len(sigs) {
						return
					}
					select {
					case <-ctx.Done():
						return
					default:
					}
					if verr := verifyWith(ix, sigs[i], resolver, v.Cache); verr != nil {
						record(i, verr)
						return
					}
					okCount.Add(1)
				}
			}()
		}
		wg.Wait()
	}
	if err != nil {
		return int(okCount.Load()), failedIdx, err
	}
	// The batch may have been cancelled by the caller's deadline rather
	// than a bad signature: tasks skipped after cancellation verified
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
