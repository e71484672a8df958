package aea

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"dra4wfms/internal/document"
	"dra4wfms/internal/dsig"
	"dra4wfms/internal/testenv"
	"dra4wfms/internal/wfdef"
	"dra4wfms/internal/xmlenc"
	"dra4wfms/internal/xmltree"
)

// wrappedFor returns the wrapped content key enc carries for owner.
func wrappedFor(enc *xmltree.Node, owner string) string {
	for _, ek := range enc.Child("KeyInfo").ChildElements() {
		if ek.AttrDefault("Recipient", "") == owner {
			return ek.ChildText("CipherValue")
		}
	}
	return ""
}

// encryptedElements lists every EncryptedData element under n.
func encryptedElements(n *xmltree.Node) []*xmltree.Node {
	var out []*xmltree.Node
	for _, c := range n.ChildElements() {
		if xmlenc.IsEncrypted(c) {
			out = append(out, c)
		} else {
			out = append(out, encryptedElements(c)...)
		}
	}
	return out
}

// TestSealedDocumentOpensCold: a 2-reject instance written through the
// agents' sealers reuses wrapped keys, and every element of it opens for
// every recipient with the cold xmlenc.Decrypt, whose format is unchanged.
func TestSealedDocumentOpensCold(t *testing.T) {
	f := newFixture(t)
	final := f.run(t, 2).Doc
	encs := encryptedElements(final.Root)
	opened := 0
	for _, enc := range encs {
		for _, id := range xmlenc.Recipients(enc) {
			if _, err := xmlenc.Decrypt(enc, f.env.KeyOf(id)); err != nil {
				t.Fatalf("%s for %s: %v", enc.AttrDefault("Id", ""), id, err)
			}
			opened++
		}
	}
	keys := map[string]bool{}
	for _, k := range testenv.ReadableKeys(final.Root, wfdef.Fig9Participants["D"]) {
		keys[k] = true
	}
	if len(keys) != 5 || len(encs) != 18 {
		t.Fatalf("%d elements under %d keys for D, want 18 under one key per writer (5)", len(encs), len(keys))
	}
	t.Logf("%d elements opened cold for %d recipients", len(encs), opened)
}

// TestSwappedCipherDataRefused: A's request of iterations 0 and 1 is
// sealed under one content key, so AES-GCM accepts either ciphertext under
// either element. Swapping the two CipherData values is a graft GCM cannot
// see; the cascade signature refuses it in Open.
func TestSwappedCipherDataRefused(t *testing.T) {
	f := newFixture(t)
	d0 := f.runIteration(t, f.doc, false)
	doc := f.hop(t, d0.Doc, "A", Inputs{"request": "buy 20 servers", "attachment": "specs.pdf"}).Doc.Clone()
	e0, e1 := doc.Root.FindByID("encf-A-0-1"), doc.Root.FindByID("encf-A-1-1")
	bob := f.env.KeyOf(wfdef.Fig9Participants["B1"])
	if wrappedFor(e0, bob.Owner) != wrappedFor(e1, bob.Owner) {
		t.Fatal("A's requests of iterations 0 and 1 are not sealed under one key")
	}
	c0, c1 := e0.Child("CipherData").Child("CipherValue"), e1.Child("CipherData").Child("CipherValue")
	v0, v1 := c0.TextContent(), c1.TextContent()
	c0.SetText(v1)
	c1.SetText(v0)
	swapped, err := xmlenc.Decrypt(e0, bob)
	if err != nil || swapped.TextContent() != "buy 20 servers" {
		t.Fatalf("grafted ciphertext did not open under the shared key: %v", err)
	}
	in, err := document.Parse(doc.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(bob, f.env.Registry).Open(in, "B1"); !errors.Is(err, dsig.ErrDigestMismatch) {
		t.Fatalf("Open of the swapped document: %v, want a digest mismatch", err)
	}
}

// TestConcurrentCompletesAcrossInstances: one agent completes A in six
// instances at once. Each instance gets its own content key, and B1 reads
// each instance's own request.
func TestConcurrentCompletesAcrossInstances(t *testing.T) {
	f := newFixture(t)
	const n = 6
	outs := make([]*Outcome, n)
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			doc, err := document.New(f.def, f.env.KeyOf("designer@acme"), testenv.ProcessID(), now)
			if err == nil {
				outs[i], err = f.agents["A"].Execute(doc, "A", Inputs{"request": fmt.Sprint("request ", i), "attachment": "specs.pdf"}, now)
			}
			if err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	bob := f.env.KeyOf(wfdef.Fig9Participants["B1"])
	owner := map[string]int{}
	for i, out := range outs {
		s, err := New(bob, f.env.Registry).Open(out.Doc, "B1")
		if err != nil {
			t.Fatal(err)
		}
		if got, want := s.Requests()["request"], fmt.Sprint("request ", i); got != want {
			t.Fatalf("instance %d: B1 reads %q, want %q", i, got, want)
		}
		for _, k := range testenv.ReadableKeys(out.Doc.Root, bob.Owner) {
			if j, ok := owner[k]; ok && j != i {
				t.Fatalf("instances %d and %d share a content key", j, i)
			}
			owner[k] = i
		}
	}
}
