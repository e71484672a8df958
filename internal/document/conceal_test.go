package document

import (
	"strings"
	"testing"

	"dra4wfms/internal/wfdef"
	"dra4wfms/internal/xmlenc"
)

func fig4Recipients() []xmlenc.Recipient {
	return []xmlenc.Recipient{
		{ID: "tfc@cloud", Key: cache.MustGet("tfc@cloud").Public()},
		{ID: "designer@p0", Key: cache.MustGet("designer@p0").Public()},
	}
}

func fig4Resolver() mapResolver {
	m := mapResolver{}
	p := wfdef.Fig4Participants
	for _, id := range []string{"designer@p0", "tfc@cloud", p.Peter, p.Tony, p.Amy, p.John, p.Mary} {
		m[id] = cache.MustGet(id).Public()
	}
	return m
}

func newConcealedDoc(t *testing.T) (*Document, *wfdef.Definition) {
	t.Helper()
	def := wfdef.Fig4()
	doc, err := NewConcealed(def, cache.MustGet("designer@p0"), "proc-c1", t0, fig4Recipients()...)
	if err != nil {
		t.Fatal(err)
	}
	return doc, def
}

func TestNewConcealedHidesPredicates(t *testing.T) {
	doc, _ := newConcealedDoc(t)

	// The branch predicates must not appear anywhere in the document bytes.
	raw := string(doc.Bytes())
	for _, secret := range []string{"X &gt; 1000", "X > 1000", "X &lt;= 1000"} {
		if strings.Contains(raw, secret) {
			t.Fatalf("concealed document leaks predicate %q", secret)
		}
	}
	// The embedded definition shows topology but concealed guards.
	embDef, err := doc.Definition()
	if err != nil {
		t.Fatal(err)
	}
	concealed := 0
	for _, tr := range embDef.Transitions {
		if tr.Concealed {
			concealed++
			if tr.Condition != "" {
				t.Fatalf("concealed transition %s still has condition text", tr.ID)
			}
		}
	}
	if concealed != 2 {
		t.Fatalf("concealed transitions = %d, want 2", concealed)
	}
	if err := embDef.Validate(); err != nil {
		t.Fatalf("embedded stripped definition invalid: %v", err)
	}
	// The designer signature covers the vault.
	if n, err := doc.VerifyAll(fig4Resolver()); err != nil || n != 1 {
		t.Fatalf("VerifyAll = %d, %v", n, err)
	}
	if doc.ConditionVault() == nil {
		t.Fatal("no condition vault")
	}
}

func TestVaultTamperDetected(t *testing.T) {
	doc, _ := newConcealedDoc(t)
	resolver := fig4Resolver()

	// Altering the vault ciphertext breaks the designer signature.
	forged := doc.Clone()
	forged.ConditionVault().SetAttr("Injected", "1")
	if _, err := forged.VerifyAll(resolver); err == nil {
		t.Fatal("vault tamper not detected")
	}
	// Deleting the vault entirely also breaks it.
	forged2 := doc.Clone()
	wf := forged2.WorkflowElement()
	wf.RemoveChild(forged2.ConditionVault())
	if _, err := forged2.VerifyAll(resolver); err == nil {
		t.Fatal("vault removal not detected")
	}
	// Un-marking a transition as concealed breaks it too.
	forged3 := doc.Clone()
	for _, tr := range forged3.WorkflowElement().FindAll("Transition") {
		tr.RemoveAttr("Concealed")
	}
	if _, err := forged3.VerifyAll(resolver); err == nil {
		t.Fatal("topology tamper not detected")
	}
}

func TestRevealConditions(t *testing.T) {
	doc, _ := newConcealedDoc(t)
	embDef, _ := doc.Definition()

	// Only vault recipients can reveal.
	tony := cache.MustGet(wfdef.Fig4Participants.Tony)
	if err := doc.RevealConditions(embDef, xmlenc.NewOpener(tony)); err == nil {
		t.Fatal("non-recipient opened the vault")
	}

	tfcKeys := cache.MustGet("tfc@cloud")
	if err := doc.RevealConditions(embDef, xmlenc.NewOpener(tfcKeys)); err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, tr := range embDef.Transitions {
		if tr.Concealed {
			t.Fatalf("transition %s still concealed after reveal", tr.ID)
		}
		if tr.Condition == "X > 1000" || tr.Condition == "X <= 1000" {
			found++
		}
	}
	if found != 2 {
		t.Fatalf("revealed %d conditions, want 2", found)
	}
	// The designer (second recipient) can also reveal.
	embDef2, _ := doc.Definition()
	if err := doc.RevealConditions(embDef2, xmlenc.NewOpener(cache.MustGet("designer@p0"))); err != nil {
		t.Fatal(err)
	}
}

func TestRevealErrors(t *testing.T) {
	// Document without a vault.
	plain := newFig9Doc(t)
	def, _ := plain.Definition()
	if err := plain.RevealConditions(def, xmlenc.NewOpener(cache.MustGet("tfc@cloud"))); err == nil {
		t.Fatal("reveal on plain document succeeded")
	}

	// Vault naming an unknown transition.
	doc, _ := newConcealedDoc(t)
	embDef, _ := doc.Definition()
	embDef.Transitions = embDef.Transitions[:2] // drop the vaulted edges
	if err := doc.RevealConditions(embDef, xmlenc.NewOpener(cache.MustGet("tfc@cloud"))); err == nil {
		t.Fatal("vault with unknown transitions accepted")
	}
}

func TestNewConcealedValidation(t *testing.T) {
	def := wfdef.Fig4()
	designer := cache.MustGet("designer@p0")
	// Missing recipients.
	if _, err := NewConcealed(def, designer, "p", t0); err == nil {
		t.Fatal("no recipients accepted")
	}
	// Recipients without the TFC.
	other := xmlenc.Recipient{ID: "x@y", Key: cache.MustGet("x@y").Public()}
	if _, err := NewConcealed(def, designer, "p", t0, other); err == nil {
		t.Fatal("recipients without TFC accepted")
	}
	// Non-concealed definition.
	plain := wfdef.Fig9A()
	if _, err := NewConcealed(plain, cache.MustGet("designer@acme"), "p", t0, fig4Recipients()...); err == nil {
		t.Fatal("non-concealed definition accepted")
	}
}

func TestNewConcealedNoConditions(t *testing.T) {
	// A concealed-flow definition whose transitions happen to be all
	// unconditional needs no vault and degrades to a plain document.
	def := wfdef.NewBuilder("noconds", "designer@p0").
		Activity("A", "", "peter@p1").Response("v", "string", false).Done().
		Start("A").End("A").
		DefaultReaders("peter@p1").
		ConcealFlow("tfc@cloud").
		MustBuild()
	doc, err := NewConcealed(def, cache.MustGet("designer@p0"), "p", t0, fig4Recipients()...)
	if err != nil {
		t.Fatal(err)
	}
	if doc.ConditionVault() != nil {
		t.Fatal("unexpected vault for condition-free definition")
	}
}
