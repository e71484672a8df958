package xmlenc

import (
	"encoding/base64"
	"errors"
	"fmt"
	"sync"
	"testing"

	"dra4wfms/internal/xmltree"
)

// counts snapshots the unwrap and memo-hit counters; delta reports what
// happened since.
type counts struct{ unwraps, hits int64 }

func snapshot() counts { return counts{mUnwraps.Value(), mUnwrapHits.Value()} }

func (c counts) delta() counts {
	now := snapshot()
	return counts{now.unwraps - c.unwraps, now.hits - c.hits}
}

// size reports the number of CEKs the memo holds.
func (m *cekMemo) size() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.cur) + len(m.old)
}

func TestOpenerMatchesColdDecrypt(t *testing.T) {
	amy := cache.MustGet("amy")
	enc, err := Encrypt(payload(), "e", recipient("amy"), recipient("bob"))
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Decrypt(enc, amy)
	if err != nil {
		t.Fatal(err)
	}
	o := NewOpener(amy)
	for i, want := range []counts{{1, 0}, {0, 1}, {0, 1}} {
		before := snapshot()
		got, err := o.Decrypt(enc)
		if err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
		if string(got.Canonical()) != string(cold.Canonical()) {
			t.Fatalf("open %d differs from cold Decrypt", i)
		}
		if d := before.delta(); d != want {
			t.Fatalf("open %d: unwraps/hits = %+v, want %+v", i, d, want)
		}
	}
}

// TestOpenerTamperOnHit: a remembered CEK never vouches for a ciphertext.
// After amy's opener has opened e1, a byte-flipped copy of e1 and e1's
// EncryptedKey grafted onto e2's ciphertext both fail AES-GCM
// authentication, although both take the memo path.
func TestOpenerTamperOnHit(t *testing.T) {
	o := NewOpener(cache.MustGet("amy"))
	e1, _ := Encrypt(payload(), "e1", recipient("amy"))
	e2, _ := Encrypt(payload(), "e2", recipient("amy"))
	if _, err := o.Decrypt(e1); err != nil {
		t.Fatal(err)
	}

	flipped := e1.Clone()
	cv := flipped.Child("CipherData").Child("CipherValue")
	b := []byte(cv.TextContent())
	if b[5] == 'A' {
		b[5] = 'B'
	} else {
		b[5] = 'A'
	}
	cv.SetText(string(b))

	grafted := e2.Clone()
	ki := grafted.Child("KeyInfo")
	ki.ReplaceChild(ki.Child("EncryptedKey"), e1.Child("KeyInfo").Child("EncryptedKey").Clone())

	for name, enc := range map[string]*xmltree.Node{"flipped": flipped, "grafted": grafted} {
		before := snapshot()
		if _, err := o.Decrypt(enc); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: err = %v, want ErrCorrupt", name, err)
		}
		if d := before.delta(); d != (counts{0, 1}) {
			t.Fatalf("%s: unwraps/hits = %+v, want the memo path", name, d)
		}
	}
	// The pristine elements still open.
	for _, enc := range []*xmltree.Node{e1, e2} {
		if _, err := o.Decrypt(enc); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOpenerDoesNotMemoizeFailures: a wrapped key that does not unwrap
// costs an RSA attempt every time it is presented.
func TestOpenerDoesNotMemoizeFailures(t *testing.T) {
	o := NewOpener(cache.MustGet("amy"))
	enc, _ := Encrypt(payload(), "e", recipient("amy"))
	garbage := make([]byte, 128)
	for i := range garbage {
		garbage[i] = byte(i)
	}
	enc.Find("EncryptedKey").Child("CipherValue").SetText(base64.StdEncoding.EncodeToString(garbage))
	before := snapshot()
	for i := 0; i < 2; i++ {
		if _, err := o.Decrypt(enc); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("attempt %d: err = %v, want ErrCorrupt", i, err)
		}
	}
	if d := before.delta(); d != (counts{2, 0}) {
		t.Fatalf("unwraps/hits = %+v, want two unwrap attempts and no hit", d)
	}
	if n := o.memo.size(); n != 0 {
		t.Fatalf("memo holds %d entries after failures", n)
	}
}

// TestOpenerIsPerPrincipal: what amy's opener remembers is invisible to
// bob's, whether bob is simply not a recipient or presents amy's wrapped
// key relabeled as his own.
func TestOpenerIsPerPrincipal(t *testing.T) {
	amy := NewOpener(cache.MustGet("amy"))
	bob := NewOpener(cache.MustGet("bob"))
	enc, _ := Encrypt(payload(), "e", recipient("amy"))
	if _, err := amy.Decrypt(enc); err != nil {
		t.Fatal(err)
	}
	before := snapshot()
	if _, err := bob.Decrypt(enc); !errors.Is(err, ErrNotRecipient) {
		t.Fatalf("bob: err = %v, want ErrNotRecipient", err)
	}
	if d := before.delta(); d != (counts{}) {
		t.Fatalf("non-recipient touched the unwrap path: %+v", d)
	}
	relabeled := enc.Clone()
	relabeled.Find("EncryptedKey").SetAttr("Recipient", "bob")
	before = snapshot()
	if _, err := bob.Decrypt(relabeled); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bob on relabeled key: err = %v, want ErrCorrupt", err)
	}
	if d := before.delta(); d != (counts{1, 0}) {
		t.Fatalf("relabeled key: unwraps/hits = %+v, want one cold unwrap", d)
	}
}

// TestOpenerMemoBounded: 10 000 distinct elements leave at most two
// generations in memory, and the most recent ones are still remembered.
func TestOpenerMemoBounded(t *testing.T) {
	o := NewOpener(cache.MustGet("amy"))
	const n = 10000
	var last *xmltree.Node
	for i := 0; i < n; i++ {
		el := xmltree.NewElement("V")
		el.SetText(fmt.Sprint(i))
		enc, err := Encrypt(el, "", recipient("amy"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := o.Decrypt(enc); err != nil {
			t.Fatal(err)
		}
		if got := o.memo.size(); got > 2*memoGeneration {
			t.Fatalf("after %d elements the memo holds %d > %d", i+1, got, 2*memoGeneration)
		}
		last = enc
	}
	before := snapshot()
	if _, err := o.Decrypt(last); err != nil {
		t.Fatal(err)
	}
	if d := before.delta(); d != (counts{0, 1}) {
		t.Fatalf("latest element not remembered: %+v", d)
	}
}

func TestOpenerConcurrent(t *testing.T) {
	o := NewOpener(cache.MustGet("amy"))
	var encs []*xmltree.Node
	for i := 0; i < 4; i++ {
		enc, _ := Encrypt(payload(), fmt.Sprint(i), recipient("amy"))
		encs = append(encs, enc)
	}
	want := string(payload().Canonical())
	var wg sync.WaitGroup
	errs := make(chan error, 8*len(encs))
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, enc := range encs {
				el, err := o.Decrypt(enc)
				if err == nil && string(el.Canonical()) != want {
					err = errors.New("wrong plaintext")
				}
				if err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
