package aea

import (
	"strings"
	"testing"

	"dra4wfms/internal/document"
)

// flipCipherByte flips one byte inside the first encrypted execution
// result — a mid-cascade tamper on a subtree covered by an earlier CER's
// signature.
func flipCipherByte(t *testing.T, doc *document.Document) {
	t.Helper()
	cv := doc.Root.Find("CipherValue")
	if cv == nil {
		t.Fatal("document has no CipherValue to tamper with")
	}
	b := []byte(cv.TextContent())
	if b[0] == 'A' {
		b[0] = 'B'
	} else {
		b[0] = 'A'
	}
	cv.SetText(string(b))
}

// TestAEARejectsTamperAfterWarmCache is the adversarial check for the
// verification fast path: the AEA verifies a document (warming the
// process-wide verified-prefix cache and the canonical-bytes memos), an
// attacker then flips a byte mid-cascade, and the next agent must still
// reject the document — a cache hit only ever skips the RSA operation,
// never the reference digests.
func TestAEARejectsTamperAfterWarmCache(t *testing.T) {
	f := newFixture(t)
	outA, err := f.agents["A"].Execute(f.doc, "A", Inputs{"request": "buy 10 servers", "attachment": "specs.pdf"}, now)
	if err != nil {
		t.Fatal(err)
	}
	doc := outA.Doc
	// Warm: the same signatures verify cleanly first.
	if _, err := doc.VerifyAll(f.env.Registry); err != nil {
		t.Fatalf("pristine document rejected: %v", err)
	}
	tampered := doc.Clone()
	flipCipherByte(t, tampered)
	if _, err := f.agents["B1"].Execute(tampered, "B1", Inputs{"techReview": "sound"}, now); err == nil {
		t.Fatal("AEA accepted a document tampered after the cache was warmed")
	} else if !strings.Contains(err.Error(), "verification failed") {
		t.Fatalf("unexpected rejection cause: %v", err)
	}
	// The pristine document must still pass (no cache pollution from the
	// failed attempt).
	if _, err := doc.VerifyAll(f.env.Registry); err != nil {
		t.Fatalf("pristine document rejected after tamper attempt: %v", err)
	}
}
