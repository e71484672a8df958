package dsig

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"dra4wfms/internal/xmltree"
)

// buildCascade builds an n-signature DRA-style cascade: payload i is signed
// by user i together with the previous Signature element, exactly the
// nonrepudiation chain a routed document accumulates. It returns the root
// and a resolver trusting every participant.
func buildCascade(t testing.TB, n int) (*xmltree.Node, mapResolver) {
	t.Helper()
	root := xmltree.NewElement("Doc")
	resolver := mapResolver{}
	prevSig := ""
	for i := 0; i < n; i++ {
		owner := fmt.Sprintf("user%d", i)
		resolver[owner] = cache.MustGet(owner).Public()
		p := root.Elem("Payload", fmt.Sprintf("result %d", i))
		pid := fmt.Sprintf("p%d", i)
		p.SetAttr("Id", pid)
		refs := []string{pid}
		if prevSig != "" {
			refs = append(refs, prevSig)
		}
		sigID := fmt.Sprintf("sig%d", i)
		sig, err := Sign(root, refs, cache.MustGet(owner), sigID)
		if err != nil {
			t.Fatal(err)
		}
		root.AppendChild(sig)
		prevSig = sigID
	}
	return root, resolver
}

func TestVerifierParallelMatchesSerial(t *testing.T) {
	root, resolver := buildCascade(t, 12)
	for _, v := range []*Verifier{
		{Workers: 1},
		{Workers: 4},
		{Workers: 0}, // GOMAXPROCS
		{Workers: 4, Cache: NewCache(64)},
	} {
		n, err := v.VerifyAll(root, root, resolver)
		if err != nil || n != 12 {
			t.Fatalf("Workers=%d Cache=%v: VerifyAll = %d, %v", v.Workers, v.Cache != nil, n, err)
		}
	}
}

func TestVerifyAllReportsCountAndFailingID(t *testing.T) {
	root, resolver := buildCascade(t, 8)
	// Tamper with payload 3: only sig3 references p3 directly, and the
	// Signature elements themselves are untouched, so exactly sig3 fails.
	root.FindByID("p3").SetText("tampered")

	v := &Verifier{Workers: 1}
	n, err := v.VerifyAll(root, root, resolver)
	if err == nil {
		t.Fatal("tampered cascade verified")
	}
	if n != 3 {
		t.Fatalf("verified count before failure = %d, want 3", n)
	}
	if !strings.Contains(err.Error(), "sig3") {
		t.Fatalf("error does not name the failing signature Id: %v", err)
	}
	if !strings.Contains(err.Error(), "digest mismatch") {
		t.Fatalf("unexpected failure cause: %v", err)
	}

	// Parallel mode must report the same failing signature (count may
	// legitimately include later signatures that finished before cancel).
	vp := &Verifier{Workers: 4}
	if _, err := vp.VerifyAll(root, root, resolver); err == nil || !strings.Contains(err.Error(), "sig3") {
		t.Fatalf("parallel error does not name sig3: %v", err)
	}
}

func TestVerifiedPrefixCacheStillChecksDigests(t *testing.T) {
	root, resolver := buildCascade(t, 6)
	v := &Verifier{Workers: 1, Cache: NewCache(64)}

	if n, err := v.VerifyAll(root, root, resolver); err != nil || n != 6 {
		t.Fatalf("cold verify = %d, %v", n, err)
	}
	if v.Cache.Len() != 6 {
		t.Fatalf("cache holds %d entries after cold verify, want 6", v.Cache.Len())
	}
	if n, err := v.VerifyAll(root, root, resolver); err != nil || n != 6 {
		t.Fatalf("warm verify = %d, %v", n, err)
	}

	// Flip a byte of a mid-cascade payload AFTER the cache is warm: the hit
	// path skips only the RSA operation, never the reference digests, so
	// the tamper must still be rejected.
	root.FindByID("p2").SetText("flipped")
	n, err := v.VerifyAll(root, root, resolver)
	if err == nil {
		t.Fatal("warm cache masked a tampered referenced subtree")
	}
	if n != 2 || !strings.Contains(err.Error(), "sig2") {
		t.Fatalf("warm tamper: n=%d err=%v, want 2 verified and sig2 named", n, err)
	}
}

func TestCacheMissesOnSignatureTamper(t *testing.T) {
	root, resolver := buildCascade(t, 4)
	v := &Verifier{Workers: 1, Cache: NewCache(64)}
	if _, err := v.VerifyAll(root, root, resolver); err != nil {
		t.Fatal(err)
	}
	// Any byte flipped inside a cached Signature element changes its
	// canonical bytes, so the cache cannot vouch for it — the fresh RSA
	// check runs and fails.
	root.Find("SignatureValue").SetText("QUFBQQ==")
	if _, err := v.VerifyAll(root, root, resolver); err == nil {
		t.Fatal("tampered SignatureValue accepted on a warm cache")
	}
}

func TestCacheKeyedByResolvedKey(t *testing.T) {
	root, resolver := buildCascade(t, 3)
	v := &Verifier{Workers: 1, Cache: NewCache(64)}
	if _, err := v.VerifyAll(root, root, resolver); err != nil {
		t.Fatal(err)
	}
	// A different registry binds the same principal names to different
	// keys. The cached entries fingerprint the resolved public key, so the
	// warm cache must not vouch for signatures under the impostor registry.
	impostor := mapResolver{}
	for owner := range resolver {
		impostor[owner] = cache.MustGet("impostor-" + owner).Public()
	}
	if _, err := v.VerifyAll(root, root, impostor); err == nil {
		t.Fatal("cache entry honored under a registry with different keys")
	}
}

func TestCacheEviction(t *testing.T) {
	c := NewCache(2)
	k := func(b byte) cacheKey {
		var key cacheKey
		key.sig[0] = b
		return key
	}
	c.add(k(1))
	c.add(k(2))
	c.add(k(3)) // evicts k(1)
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if c.contains(k(1)) {
		t.Fatal("least recently used entry not evicted")
	}
	// Touch k(3) then k(2): k(3) becomes the LRU victim for the next add.
	if !c.contains(k(3)) || !c.contains(k(2)) {
		t.Fatal("recent entries evicted")
	}
	c.add(k(4))
	if !c.contains(k(2)) || c.contains(k(3)) {
		t.Fatal("LRU order not updated on access")
	}
	if NewCache(0) != nil {
		t.Fatal("NewCache(0) should disable caching")
	}
}

func TestVerifyAllConcurrentCallers(t *testing.T) {
	// Several goroutines verifying the same document through one shared
	// verifier — the server steady state. Run with -race.
	root, resolver := buildCascade(t, 8)
	v := &Verifier{Workers: 2, Cache: NewCache(64)}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if n, err := v.VerifyAll(root, root, resolver); err != nil || n != 8 {
				errs <- fmt.Errorf("VerifyAll = %d, %v", n, err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestVerifySlotsSaturationRunsInline holds every verify slot: a fanned-out
// batch must still verify every signature, inline on its own goroutine,
// and leave the slots as it found them.
func TestVerifySlotsSaturationRunsInline(t *testing.T) {
	root, resolver := buildCascade(t, 8)
	for i := 0; i < cap(verifySlots); i++ {
		verifySlots <- struct{}{}
	}
	defer func() {
		for i := 0; i < cap(verifySlots); i++ {
			<-verifySlots
		}
	}()
	for _, v := range []*Verifier{{}, {Cache: NewCache(64)}} {
		if n, err := v.VerifyAll(root, root, resolver); err != nil || n != 8 {
			t.Fatalf("saturated VerifyAll = %d, %v", n, err)
		}
	}
	if len(verifySlots) != cap(verifySlots) {
		t.Fatalf("%d of %d slots held after the batch, want all (held by the test)", len(verifySlots), cap(verifySlots))
	}
}

// TestVerifySlotsBatchMatchesSerial compares the fan-out with serial
// verification on every tamper position, with other batches contending
// for the slots: same count on success, same failing index always.
func TestVerifySlotsBatchMatchesSerial(t *testing.T) {
	const n = 12
	base, resolver := buildCascade(t, n)
	serial, fanned := &Verifier{Workers: 1}, &Verifier{}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := fanned.VerifyAll(base, base, resolver); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	defer func() { close(stop); wg.Wait() }()

	for tamper := -1; tamper < n; tamper++ {
		root := base.Clone()
		if tamper >= 0 {
			root.FindByID(fmt.Sprintf("p%d", tamper)).SetText("tampered")
		}
		sigs := root.FindAll(SignatureElem)
		sn, sidx, serr := serial.VerifyBatchCtx(context.Background(), root, sigs, resolver)
		fn, fidx, ferr := fanned.VerifyBatchCtx(context.Background(), root, sigs, resolver)
		if sidx != tamper || fidx != tamper {
			t.Fatalf("tamper p%d: failing index serial %d, fanned %d", tamper, sidx, fidx)
		}
		if (serr == nil) != (ferr == nil) || (serr != nil && serr.Error() != ferr.Error()) {
			t.Fatalf("tamper p%d: errors differ: serial %v, fanned %v", tamper, serr, ferr)
		}
		if tamper < 0 && (sn != n || fn != n) {
			t.Fatalf("healthy batch: serial %d, fanned %d verified, want %d", sn, fn, n)
		}
	}
}

// TestVerifySlotsFailFastAttribution tampers two payloads: whichever
// signature fails first, the batch reports the lowest failing index.
func TestVerifySlotsFailFastAttribution(t *testing.T) {
	root, resolver := buildCascade(t, 16)
	root.FindByID("p3").SetText("tampered")
	root.FindByID("p9").SetText("tampered")
	sigs := root.FindAll(SignatureElem)
	for i := 0; i < 20; i++ {
		n, idx, err := (&Verifier{}).VerifyBatchCtx(context.Background(), root, sigs, resolver)
		if idx != 3 || !errors.Is(err, ErrDigestMismatch) {
			t.Fatalf("run %d: failing index %d (%v), want 3", i, idx, err)
		}
		if n < 3 {
			t.Fatalf("run %d: %d verified, want at least the 3 signatures below the failure", i, n)
		}
	}
	if _, err := DefaultVerifier().VerifyAll(root, root, resolver); err == nil || !strings.Contains(err.Error(), "sig3") {
		t.Fatalf("default verifier error does not name sig3: %v", err)
	}
}

// TestDuplicateIDRejected is signature wrapping on a bare cascade: a
// signed payload copied ahead of its forged original satisfies the
// first-match Reference, so any Id carried twice must fail the batch,
// for single-signature Verify and for signing as well.
func TestDuplicateIDRejected(t *testing.T) {
	root, resolver := buildCascade(t, 4)
	orig := root.FindByID("p2")
	root.InsertChild(0, orig.Clone())
	orig.SetText("forged")
	for _, v := range []*Verifier{{Workers: 1}, {}} {
		n, err := v.VerifyAll(root, root, resolver)
		if !errors.Is(err, ErrDuplicateID) || !strings.Contains(err.Error(), `"p2"`) || n != 0 {
			t.Fatalf("Workers=%d: VerifyAll = %d, %v; want 0 and ErrDuplicateID naming p2", v.Workers, n, err)
		}
	}
	if err := Verify(root, root.FindByID("sig0"), resolver); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("Verify = %v, want ErrDuplicateID", err)
	}
	if _, err := Sign(root, []string{"p0"}, cache.MustGet("user0"), "sig-new"); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("Sign = %v, want ErrDuplicateID", err)
	}
}

// BenchmarkVerifyAll measures the 32-CER cascade of the acceptance
// criterion. "serial" is the pre-optimization baseline (one goroutine, no
// cache); "parallel" fans out over the verify slots; "warm" is the steady
// state a tier reaches after verifying the prefix once — the
// verified-prefix cache plus memoized canonical bytes reduce the hop to
// digest re-checks. "contended" runs more concurrent batches than there
// are slots, so most signatures take the inline path.
func BenchmarkVerifyAll(b *testing.B) {
	root, resolver := buildCascade(b, 32)
	bench := func(v *Verifier) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			if n, err := v.VerifyAll(root, root, resolver); err != nil || n != 32 {
				b.Fatalf("VerifyAll = %d, %v", n, err) // also warms the cache
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := v.VerifyAll(root, root, resolver); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("serial", bench(&Verifier{Workers: 1}))
	b.Run("parallel", bench(&Verifier{}))
	b.Run("warm", bench(&Verifier{Cache: NewCache(64)}))
	b.Run("warm-serial", bench(&Verifier{Workers: 1, Cache: NewCache(64)}))
	b.Run("contended", func(b *testing.B) {
		v := &Verifier{}
		b.ReportAllocs()
		b.SetParallelism(2) // 2×GOMAXPROCS batches for GOMAXPROCS slots
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if n, err := v.VerifyAll(root, root, resolver); err != nil || n != 32 {
					b.Errorf("VerifyAll = %d, %v", n, err)
					return
				}
			}
		})
	})
}

// BenchmarkCanonicalMemo isolates the xmltree contribution: canonicalizing
// an unchanged 32-CER document with and without a primed memo.
func BenchmarkCanonicalMemo(b *testing.B) {
	root, _ := buildCascade(b, 32)
	b.Run("memoized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = root.Canonical()
		}
	})
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = root.Clone().Canonical()
		}
	})
}

// TestWarmVerifyAllocsBounded is the dsig half of the allocation ratchet
// (BenchmarkVerifyAll reports the numbers; this pins them). A warm serial
// re-verify hits the prefix cache and canonical memos, so per-signature
// work is Reference digest checks over memoized bytes plus a cache probe —
// a small constant number of allocations per signature, not O(bytes).
func TestWarmVerifyAllocsBounded(t *testing.T) {
	const sigs = 8
	root, resolver := buildCascade(t, sigs)
	v := &Verifier{Workers: 1, Cache: NewCache(64)}
	if n, err := v.VerifyAll(root, root, resolver); err != nil || n != sigs {
		t.Fatalf("prime VerifyAll = %d, %v", n, err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := v.VerifyAll(root, root, resolver); err != nil {
			t.Fatal(err)
		}
	})
	if perSig := allocs / sigs; perSig > 20 {
		t.Fatalf("warm VerifyAll allocates %.1f objects per signature, want <= 20", perSig)
	}
}
