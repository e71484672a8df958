package xmlenc

import (
	"fmt"
	"sync"
	"testing"

	"dra4wfms/internal/xmltree"
)

// wrappedFor returns the wrapped CEK enc carries for recipient id.
func wrappedFor(t *testing.T, enc *xmltree.Node, id string) string {
	t.Helper()
	for _, ek := range enc.Child(keyInfoElem).ChildElements() {
		if ek.AttrDefault("Recipient", "") == id {
			return ek.ChildText(cipherValueElem)
		}
	}
	t.Fatalf("no EncryptedKey for %s", id)
	return ""
}

func cipherValueOf(enc *xmltree.Node) string {
	return enc.Child(cipherDataElem).ChildText(cipherValueElem)
}

func seal(t *testing.T, s *Sealer, scope string, recipients ...Recipient) *xmltree.Node {
	t.Helper()
	enc, err := s.Encrypt(scope, payload(), "e", recipients...)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// TestSealerReusesKeyNotNonce: two seals of one plaintext for one scope
// and reader set carry the same wrapped keys, made by one round of wraps,
// and different ciphertexts; both open cold, and an opener unwraps once.
func TestSealerReusesKeyNotNonce(t *testing.T) {
	var s Sealer
	wraps := mWraps.Value()
	e1 := seal(t, &s, "p1", recipient("amy"), recipient("bob"))
	e2 := seal(t, &s, "p1", recipient("bob"), recipient("amy"))
	if n := mWraps.Value() - wraps; n != 2 {
		t.Fatalf("two seals for two readers wrapped %d times, want 2", n)
	}
	for _, id := range []string{"amy", "bob"} {
		if wrappedFor(t, e1, id) != wrappedFor(t, e2, id) {
			t.Fatalf("%s's wrapped key differs between seals of one scope", id)
		}
	}
	if cipherValueOf(e1) == cipherValueOf(e2) {
		t.Fatal("two seals under one CEK produced the same CipherValue")
	}
	want := string(payload().Canonical())
	o := NewOpener(cache.MustGet("amy"))
	before := snapshot()
	for _, enc := range []*xmltree.Node{e1, e2} {
		for _, open := range []func(*xmltree.Node) (*xmltree.Node, error){
			func(e *xmltree.Node) (*xmltree.Node, error) { return Decrypt(e, cache.MustGet("bob")) },
			o.Decrypt,
		} {
			el, err := open(enc)
			if err != nil || string(el.Canonical()) != want {
				t.Fatalf("open: %v", err)
			}
		}
	}
	if d := before.delta(); d != (counts{3, 1}) {
		t.Fatalf("unwraps/hits = %+v, want 2 cold unwraps, 1 by the opener and 1 hit", d)
	}
}

// TestSealerScope: another instance, another reader set or a re-registered
// key of the same reader gets a fresh CEK, so the wrapped bytes differ.
func TestSealerScope(t *testing.T) {
	var s Sealer
	amy := wrappedFor(t, seal(t, &s, "p1", recipient("amy"), recipient("bob")), "amy")
	rotated := Recipient{ID: "amy", Key: cache.MustGet("amy-rotated").Public()}
	for name, enc := range map[string]*xmltree.Node{
		"other scope":      seal(t, &s, "p2", recipient("amy"), recipient("bob")),
		"other reader set": seal(t, &s, "p1", recipient("amy"), recipient("carl")),
		"re-keyed reader":  seal(t, &s, "p1", rotated, recipient("bob")),
	} {
		if wrappedFor(t, enc, "amy") == amy {
			t.Fatalf("%s: amy's wrapped key was reused", name)
		}
	}
	if amy != wrappedFor(t, seal(t, &s, "p1", recipient("amy"), recipient("bob")), "amy") {
		t.Fatal("the original scope lost its key")
	}
	enc := seal(t, &s, "p1", rotated, recipient("bob"))
	if _, err := Decrypt(enc, cache.MustGet("amy")); err == nil {
		t.Fatal("the old key opened an element sealed to the re-registered one")
	}
}

// TestSealerReuseCapRotates: after sealReuseCap elements the sealer
// draws a new CEK.
func TestSealerReuseCapRotates(t *testing.T) {
	defer func(old int64) { sealReuseCap = old }(sealReuseCap)
	sealReuseCap = 3
	var s Sealer
	var got []string
	for i := 0; i < 7; i++ {
		got = append(got, wrappedFor(t, seal(t, &s, "p1", recipient("amy")), "amy"))
	}
	for i := range got {
		if got[i] != got[i/3*3] {
			t.Fatalf("seal %d did not reuse the key of seal %d", i, i/3*3)
		}
		if i%3 == 0 && i > 0 && got[i] == got[i-1] {
			t.Fatalf("seal %d reused a key past the cap", i)
		}
	}
}

// TestSealerConcurrent seals for several scopes from many goroutines;
// every element opens, and each scope ends with one remembered key.
func TestSealerConcurrent(t *testing.T) {
	var s Sealer
	amy := cache.MustGet("amy")
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				enc, err := s.Encrypt(fmt.Sprint("p", (g+i)%3), payload(), "", recipient("amy"))
				if err == nil {
					_, err = Decrypt(enc, amy)
				}
				if err != nil {
					errs <- err
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	s.memo.mu.Lock()
	defer s.memo.mu.Unlock()
	if n := len(s.memo.cur) + len(s.memo.old); n != 3 {
		t.Fatalf("sealer remembers %d keys for 3 scopes", n)
	}
}
