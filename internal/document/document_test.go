package document

import (
	"context"
	"crypto/rsa"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"dra4wfms/internal/dsig"
	"dra4wfms/internal/pki"
	"dra4wfms/internal/wfdef"
	"dra4wfms/internal/xmltree"
)

var cache = pki.NewKeyCache(1024)

type mapResolver map[string]*rsa.PublicKey

func (m mapResolver) PublicKey(id string) (*rsa.PublicKey, error) {
	if k, ok := m[id]; ok {
		return k, nil
	}
	return nil, fmt.Errorf("no key for %s", id)
}

func fig9Resolver() mapResolver {
	m := mapResolver{}
	for _, id := range []string{"designer@acme", "tfc@cloud"} {
		m[id] = cache.MustGet(id).Public()
	}
	for _, p := range wfdef.Fig9Participants {
		m[p] = cache.MustGet(p).Public()
	}
	return m
}

var t0 = time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)

func newFig9Doc(t *testing.T) *Document {
	t.Helper()
	doc, err := New(wfdef.Fig9A(), cache.MustGet("designer@acme"), "proc-001", t0)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// execute appends a plaintext final CER for the activity using the flow
// helpers, mimicking a basic-model AEA without encryption.
func execute(t *testing.T, doc *Document, def *wfdef.Definition, activity string, next []string, fields map[string]string) CER {
	t.Helper()
	preds, err := PredecessorSignatures(def, doc, activity)
	if err != nil {
		t.Fatalf("preds for %s: %v", activity, err)
	}
	iter := doc.LatestIteration(activity) + 1
	participant := def.Activity(activity).Participant
	var children []*xmltree.Node
	for k, v := range fields {
		children = append(children, Field(k, v))
	}
	cer, err := doc.AppendCER(AppendSpec{
		ActivityID:     activity,
		Iteration:      iter,
		Kind:           KindFinal,
		Participant:    participant,
		ResultChildren: children,
		Next:           next,
		PredSigIDs:     preds,
		Signer:         cache.MustGet(participant),
	})
	if err != nil {
		t.Fatalf("append %s: %v", activity, err)
	}
	return cer
}

func TestNewDocumentBasics(t *testing.T) {
	doc := newFig9Doc(t)
	if doc.ProcessID() != "proc-001" {
		t.Fatalf("ProcessID = %q", doc.ProcessID())
	}
	if doc.DefinitionName() != "fig9-review" {
		t.Fatalf("DefinitionName = %q", doc.DefinitionName())
	}
	created, err := doc.CreatedAt()
	if err != nil || !created.Equal(t0) {
		t.Fatalf("CreatedAt = %v, %v", created, err)
	}
	if doc.DesignerSignature() == nil {
		t.Fatal("no designer signature")
	}
	def, err := doc.Definition()
	if err != nil || def.Name != "fig9-review" {
		t.Fatalf("Definition = %v, %v", def, err)
	}
	if n, err := doc.VerifyAll(fig9Resolver()); err != nil || n != 1 {
		t.Fatalf("VerifyAll = %d, %v", n, err)
	}
	if len(doc.CERs()) != 0 {
		t.Fatal("fresh document has CERs")
	}
}

func TestNewValidation(t *testing.T) {
	def := wfdef.Fig9A()
	if _, err := New(def, cache.MustGet("mallory"), "p", t0); err == nil {
		t.Fatal("designer key mismatch accepted")
	}
	if _, err := New(def, cache.MustGet("designer@acme"), "", t0); err == nil {
		t.Fatal("empty process id accepted")
	}
	bad := *def
	bad.Activities = nil
	if _, err := New(&bad, cache.MustGet("designer@acme"), "p", t0); err == nil {
		t.Fatal("invalid definition accepted")
	}
}

func TestParseRoundTrip(t *testing.T) {
	doc := newFig9Doc(t)
	def, _ := doc.Definition()
	execute(t, doc, def, "A", []string{"B1", "B2"}, map[string]string{"request": "buy 10 servers"})

	back, err := Parse(doc.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if n, err := back.VerifyAll(fig9Resolver()); err != nil || n != 2 {
		t.Fatalf("VerifyAll after round trip = %d, %v", n, err)
	}
	if back.Size() != doc.Size() {
		t.Fatalf("size changed in round trip: %d vs %d", back.Size(), doc.Size())
	}
	if _, err := Parse([]byte("<NotADoc></NotADoc>")); err == nil {
		t.Fatal("wrong root accepted")
	}
	if _, err := Parse([]byte("garbage")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestAppendCERValidation(t *testing.T) {
	doc := newFig9Doc(t)
	ok := AppendSpec{
		ActivityID: "A", Kind: KindFinal, Participant: "alice@acme",
		PredSigIDs: []string{DesignerSig}, Signer: cache.MustGet("alice@acme"),
	}
	cases := []struct {
		name   string
		mutate func(*AppendSpec)
	}{
		{"no activity", func(s *AppendSpec) { s.ActivityID = "" }},
		{"bad kind", func(s *AppendSpec) { s.Kind = "weird" }},
		{"no signer", func(s *AppendSpec) { s.Signer = nil }},
		{"no preds", func(s *AppendSpec) { s.PredSigIDs = nil }},
		{"dangling pred", func(s *AppendSpec) { s.PredSigIDs = []string{"sig-ghost"} }},
	}
	for _, c := range cases {
		spec := ok
		c.mutate(&spec)
		if _, err := doc.AppendCER(spec); err == nil {
			t.Errorf("%s: AppendCER succeeded", c.name)
		}
	}
	if _, err := doc.AppendCER(ok); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if _, err := doc.AppendCER(ok); err == nil {
		t.Fatal("duplicate CER (replay) accepted")
	}
}

func TestCERAccessors(t *testing.T) {
	doc := newFig9Doc(t)
	def, _ := doc.Definition()
	ts := t0.Add(5 * time.Minute)
	preds, _ := PredecessorSignatures(def, doc, "A")
	cer, err := doc.AppendCER(AppendSpec{
		ActivityID: "A", Iteration: 0, Kind: KindFinal, Participant: "alice@acme",
		ResultChildren: []*xmltree.Node{Field("request", "r")},
		Timestamp:      ts,
		Next:           []string{"B1", "B2"},
		PredSigIDs:     preds,
		Signer:         cache.MustGet("alice@acme"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if cer.ID() != "cer-A-0" || cer.ActivityID() != "A" || cer.Iteration() != 0 {
		t.Fatalf("accessors: %s %s %d", cer.ID(), cer.ActivityID(), cer.Iteration())
	}
	if cer.Kind() != KindFinal || cer.Participant() != "alice@acme" || cer.Signer() != "alice@acme" {
		t.Fatalf("kind/participant/signer: %s %s %s", cer.Kind(), cer.Participant(), cer.Signer())
	}
	if got, ok := cer.Timestamp(); !ok || !got.Equal(ts) {
		t.Fatalf("Timestamp = %v, %v", got, ok)
	}
	if got := cer.Next(); strings.Join(got, ",") != "B1,B2" {
		t.Fatalf("Next = %v", got)
	}
	if cer.SignatureID() != "sig-A-0" {
		t.Fatalf("SignatureID = %q", cer.SignatureID())
	}
	if v, ok := FieldValue(cer.Result(), "request"); !ok || v != "r" {
		t.Fatalf("FieldValue = %q, %v", v, ok)
	}
	if _, ok := FieldValue(cer.Result(), "missing"); ok {
		t.Fatal("FieldValue found missing variable")
	}
	// Timestamp inside the signed scope: altering it breaks verification.
	cer.El.Child("Timestamp").SetText(t0.Add(time.Hour).Format(time.RFC3339Nano))
	if _, err := doc.VerifyAll(fig9Resolver()); err == nil {
		t.Fatal("timestamp tamper not detected")
	}
}

// runFig9 executes the whole Figure 9A process: two loop iterations, the
// second accepting. Returns the document and the definition.
func runFig9(t *testing.T) (*Document, *wfdef.Definition) {
	t.Helper()
	doc := newFig9Doc(t)
	def, _ := doc.Definition()
	for iter := 0; iter < 2; iter++ {
		execute(t, doc, def, "A", []string{"B1", "B2"}, map[string]string{"request": "req"})
		execute(t, doc, def, "B1", []string{"C"}, map[string]string{"techReview": "ok"})
		execute(t, doc, def, "B2", []string{"C"}, map[string]string{"budgetReview": "ok"})
		execute(t, doc, def, "C", []string{"D"}, map[string]string{"summary": "fine"})
		if iter == 0 {
			execute(t, doc, def, "D", []string{"A"}, map[string]string{"accept": "false"})
		} else {
			execute(t, doc, def, "D", []string{wfdef.EndID}, map[string]string{"accept": "true"})
		}
	}
	return doc, def
}

func TestFullFig9RunVerifies(t *testing.T) {
	doc, _ := runFig9(t)
	if got := len(doc.FinalCERs()); got != 10 {
		t.Fatalf("final CERs = %d, want 10", got)
	}
	n, err := doc.VerifyAll(fig9Resolver())
	if err != nil {
		t.Fatal(err)
	}
	if n != 11 { // designer + 10 CERs
		t.Fatalf("verified %d signatures, want 11", n)
	}
	if doc.LatestIteration("A") != 1 || doc.LatestIteration("D") != 1 {
		t.Fatal("loop iterations wrong")
	}
	if doc.LatestIteration("ghost") != -1 {
		t.Fatal("LatestIteration of unknown activity != -1")
	}
	vals := doc.Values()
	if vals["accept"] != "true" || vals["summary"] != "fine" {
		t.Fatalf("Values = %v", vals)
	}
	if !strings.Contains(doc.Summary(), "final D#1") {
		t.Fatalf("Summary missing D#1: %s", doc.Summary())
	}
}

func TestTamperAnywhereDetected(t *testing.T) {
	base, _ := runFig9(t)
	resolver := fig9Resolver()

	mutations := []struct {
		name   string
		mutate func(*Document)
	}{
		{"first result", func(d *Document) { d.Root.FindByID("res-A-0").SetText("forged") }},
		{"middle result", func(d *Document) { d.Root.FindByID("res-C-0").SetText("forged") }},
		{"last result", func(d *Document) { d.Root.FindByID("res-D-1").SetText("forged") }},
		{"routing decision", func(d *Document) { d.Root.FindByID("next-D-0").SetText("X") }},
		{"process id", func(d *Document) { d.Header().Child("ProcessID").SetText("other") }},
		{"workflow definition", func(d *Document) {
			d.WorkflowElement().Find("Activity").SetAttr("Participant", "mallory")
		}},
		{"delete a CER", func(d *Document) {
			cer, _ := d.FindCER(KindFinal, "B1", 0)
			d.Root.Child("ActivityResults").RemoveChild(cer.El)
		}},
		{"remove a signature", func(d *Document) {
			cer, _ := d.FindCER(KindFinal, "B2", 0)
			cer.El.RemoveChild(cer.Signature())
		}},
		{"swap participant attr", func(d *Document) {
			cer, _ := d.FindCER(KindFinal, "A", 0)
			cer.El.SetAttr("Participant", "mallory")
		}},
	}
	for _, m := range mutations {
		d := base.Clone()
		if _, err := d.VerifyAll(resolver); err != nil {
			t.Fatalf("%s: clone does not verify before mutation: %v", m.name, err)
		}
		m.mutate(d)
		if _, err := d.VerifyAll(resolver); err == nil {
			t.Errorf("%s: tamper not detected", m.name)
		}
	}
}

// TestSignatureWrappingRejected plants a signed copy of a CER's Result
// ahead of the CER, under the same Id, and forges the Result the CER
// carries: the signature must not vouch for the forgery through the copy.
func TestSignatureWrappingRejected(t *testing.T) {
	doc, _ := runFig9(t)
	cer, ok := doc.FindCER(KindFinal, "D", 1)
	if !ok {
		t.Fatal("no final CER D#1")
	}
	doc.Root.InsertChild(0, cer.Result().Clone())
	for _, f := range Fields(cer.Result()) {
		if f.AttrDefault("Variable", "") == "accept" {
			f.SetText("false")
		}
	}
	if got := doc.Values()["accept"]; got != "false" {
		t.Fatalf("forged accept = %q, want the forged value visible", got)
	}
	parsed, err := Parse(doc.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for name, d := range map[string]*Document{"in memory": doc, "parsed": parsed} {
		n, err := d.VerifyAll(fig9Resolver())
		if !errors.Is(err, dsig.ErrDuplicateID) || !strings.Contains(err.Error(), "res-D-1") {
			t.Fatalf("%s: VerifyAll = %d, %v; want ErrDuplicateID naming res-D-1", name, n, err)
		}
	}
}

// An abandoned batch fails the document without naming a CER.
func TestVerifyAllCtxCanceled(t *testing.T) {
	doc, _ := runFig9(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := doc.VerifyAllCtx(ctx, fig9Resolver()); !errors.Is(err, context.Canceled) {
		t.Fatalf("VerifyAllCtx on a canceled context = %v, want context.Canceled", err)
	}
}

func TestVerifyAllRejectsUnboundSignature(t *testing.T) {
	// A CER whose signature references only predecessors (not its own
	// result) must be rejected even though the signature itself verifies.
	doc := newFig9Doc(t)
	cer, err := doc.AppendCER(AppendSpec{
		ActivityID: "A", Kind: KindFinal, Participant: "alice@acme",
		ResultChildren: []*xmltree.Node{Field("request", "r")},
		PredSigIDs:     []string{DesignerSig},
		Signer:         cache.MustGet("alice@acme"),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild the signature to cover only the designer signature.
	cer.El.RemoveChild(cer.Signature())
	sig, err := signOnly(doc, []string{DesignerSig}, "alice@acme", "sig-A-0")
	if err != nil {
		t.Fatal(err)
	}
	cer.El.AppendChild(sig)
	if _, err := doc.VerifyAll(fig9Resolver()); err == nil {
		t.Fatal("unbound CER signature accepted")
	}
}

func signOnly(d *Document, refs []string, owner, sigID string) (*xmltree.Node, error) {
	return dsig.Sign(d.Root, refs, cache.MustGet(owner), sigID)
}

func TestMerge(t *testing.T) {
	doc := newFig9Doc(t)
	def, _ := doc.Definition()
	execute(t, doc, def, "A", []string{"B1", "B2"}, map[string]string{"request": "r"})

	// Fork for the AND-split.
	b1Doc := doc.Clone()
	b2Doc := doc.Clone()
	execute(t, b1Doc, def, "B1", []string{"C"}, map[string]string{"techReview": "ok"})
	execute(t, b2Doc, def, "B2", []string{"C"}, map[string]string{"budgetReview": "ok"})

	merged, err := Merge(b1Doc, b2Doc)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(merged.FinalCERs()); got != 3 {
		t.Fatalf("merged CERs = %d, want 3 (A, B1, B2)", got)
	}
	if n, err := merged.VerifyAll(fig9Resolver()); err != nil || n != 4 {
		t.Fatalf("merged VerifyAll = %d, %v", n, err)
	}
	// Merge is idempotent for shared CERs.
	again, err := Merge(merged, b1Doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(again.FinalCERs()) != 3 {
		t.Fatal("re-merge duplicated CERs")
	}
	// C can now find both predecessors.
	preds, err := PredecessorSignatures(def, merged, "C")
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 2 {
		t.Fatalf("preds of C = %v", preds)
	}
}

func TestMergeErrors(t *testing.T) {
	if _, err := Merge(); err == nil {
		t.Fatal("empty merge accepted")
	}
	a := newFig9Doc(t)
	other, _ := New(wfdef.Fig9A(), cache.MustGet("designer@acme"), "proc-002", t0)
	if _, err := Merge(a, other); err == nil {
		t.Fatal("merge of distinct instances accepted")
	}
	divergent := a.Clone()
	divergent.Header().Child("CreatedAt").SetText("2031-01-01T00:00:00Z")
	if _, err := Merge(a, divergent); err == nil {
		t.Fatal("merge with divergent header accepted")
	}
	divergent2 := a.Clone()
	divergent2.WorkflowElement().SetAttr("Name", "other")
	if _, err := Merge(a, divergent2); err == nil {
		t.Fatal("merge with divergent definition accepted")
	}
}

func TestNonrepudiationScope(t *testing.T) {
	doc, _ := runFig9(t)

	// Scope of the initial A CER: itself + the designer.
	scope, err := doc.NonrepudiationScope("cer-A-0")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(scope, " ") != "cer-A-0 cer-A0" {
		t.Fatalf("scope(cer-A-0) = %v", scope)
	}

	// Scope of C iteration 0 includes both AND-join branches.
	scope, err = doc.NonrepudiationScope("cer-C-0")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"cer-A-0", "cer-A0", "cer-B1-0", "cer-B2-0", "cer-C-0"}
	if strings.Join(scope, " ") != strings.Join(want, " ") {
		t.Fatalf("scope(cer-C-0) = %v, want %v", scope, want)
	}

	// Scope of the last CER covers the entire execution.
	scope, err = doc.NonrepudiationScope("cer-D-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(scope) != 11 { // 10 CERs + cer-A0
		t.Fatalf("scope(cer-D-1) has %d members, want 11: %v", len(scope), scope)
	}

	if _, err := doc.NonrepudiationScope("cer-ghost-0"); err == nil {
		t.Fatal("scope of unknown CER computed")
	}
}

func TestScopeMonotonicity(t *testing.T) {
	// Property: the scope of a CER is a superset of the scope of every CER
	// it signs (minus nothing) — successors accumulate responsibility.
	doc, _ := runFig9(t)
	finals := doc.FinalCERs()
	scopes := map[string]map[string]bool{}
	for _, c := range finals {
		s, err := doc.NonrepudiationScope(c.ID())
		if err != nil {
			t.Fatal(err)
		}
		set := map[string]bool{}
		for _, id := range s {
			set[id] = true
		}
		scopes[c.ID()] = set
	}
	order := map[string]int{}
	for i, c := range finals {
		order[c.ID()] = i
	}
	for i, c := range finals {
		for j := 0; j < i; j++ {
			pred := finals[j]
			if scopes[c.ID()][pred.ID()] {
				for member := range scopes[pred.ID()] {
					if !scopes[c.ID()][member] {
						t.Fatalf("scope(%s) contains %s but not its scope member %s",
							c.ID(), pred.ID(), member)
					}
				}
			}
		}
	}
	_ = order
}

func TestEnabledTokenGame(t *testing.T) {
	doc := newFig9Doc(t)
	def, _ := doc.Definition()

	check := func(wantEnabled string, wantDone bool) {
		t.Helper()
		enabled, done, err := Enabled(def, doc)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Join(enabled, ",") != wantEnabled || done != wantDone {
			t.Fatalf("Enabled = %v done=%v, want %q done=%v", enabled, done, wantEnabled, wantDone)
		}
	}

	check("A", false)
	execute(t, doc, def, "A", []string{"B1", "B2"}, nil)
	check("B1,B2", false)
	execute(t, doc, def, "B1", []string{"C"}, nil)
	check("B2", false) // C is an AND-join: one token is not enough
	execute(t, doc, def, "B2", []string{"C"}, nil)
	check("C", false)
	execute(t, doc, def, "C", []string{"D"}, nil)
	check("D", false)
	execute(t, doc, def, "D", []string{"A"}, nil) // loop back
	check("A", false)
	execute(t, doc, def, "A", []string{"B1", "B2"}, nil)
	execute(t, doc, def, "B1", []string{"C"}, nil)
	execute(t, doc, def, "B2", []string{"C"}, nil)
	execute(t, doc, def, "C", []string{"D"}, nil)
	execute(t, doc, def, "D", []string{wfdef.EndID}, nil)
	check("", true)
}

func TestEnabledRejectsUnknownActivities(t *testing.T) {
	doc := newFig9Doc(t)
	def, _ := doc.Definition()
	execute(t, doc, def, "A", []string{"B1", "B2"}, nil)
	// Corrupt the definition view (simulates definition/document mismatch).
	bad := *def
	bad.Activities = bad.Activities[1:]
	if _, _, err := Enabled(&bad, doc); err == nil {
		t.Fatal("unknown activity in CER accepted")
	}
}

func TestPredecessorSignaturesErrors(t *testing.T) {
	doc := newFig9Doc(t)
	def, _ := doc.Definition()
	if _, err := PredecessorSignatures(def, doc, "ghost"); err == nil {
		t.Fatal("unknown activity accepted")
	}
	// AND-join with a missing branch.
	execute(t, doc, def, "A", []string{"B1", "B2"}, nil)
	execute(t, doc, def, "B1", []string{"C"}, nil)
	if _, err := PredecessorSignatures(def, doc, "C"); err == nil {
		t.Fatal("AND-join with missing branch accepted")
	}
	// Non-initial activity with no routing predecessor.
	if _, err := PredecessorSignatures(def, doc, "D"); err == nil {
		t.Fatal("activity without routed predecessor accepted")
	}
	// Initial activity with no CERs falls back to the designer signature.
	fresh := newFig9Doc(t)
	preds, err := PredecessorSignatures(def, fresh, "A")
	if err != nil || len(preds) != 1 || preds[0] != DesignerSig {
		t.Fatalf("initial preds = %v, %v", preds, err)
	}
}

func TestFieldHelpers(t *testing.T) {
	f := Field("x", "1")
	if f.AttrDefault("Variable", "") != "x" || f.TextContent() != "1" {
		t.Fatal("Field construction wrong")
	}
	empty := Field("y", "")
	if len(empty.Children) != 0 {
		t.Fatal("empty Field has children")
	}
	container := xmltree.NewElement("Result")
	container.AppendChild(f)
	container.AppendChild(empty)
	if got := len(Fields(container)); got != 2 {
		t.Fatalf("Fields = %d", got)
	}
}

func TestAttachmentEncoding(t *testing.T) {
	data := []byte{0x00, 0x01, 0xFF, 0x7F, 0x80}
	v := EncodeAttachment("quote:v2.pdf", "application/pdf", data)
	if !IsAttachment(v) {
		t.Fatal("IsAttachment = false")
	}
	name, mt, raw, ok := DecodeAttachment(v)
	if !ok || name != "quote:v2.pdf" || mt != "application/pdf" {
		t.Fatalf("decode = %q %q %v", name, mt, ok)
	}
	if string(raw) != string(data) {
		t.Fatalf("data mismatch: %v", raw)
	}
	if IsAttachment("plain value") {
		t.Fatal("plain value detected as attachment")
	}
	for _, bad := range []string{"dra-att:v1:", "dra-att:v1:a:b", "dra-att:v1:a:b:!!!"} {
		if _, _, _, ok := DecodeAttachment(bad); ok {
			t.Fatalf("malformed %q decoded", bad)
		}
	}
}

func TestAttachmentThroughWorkflow(t *testing.T) {
	// An attachment travels as an ordinary (encrypted) field value.
	doc, _ := runFig9(t)
	vals := doc.Values()
	_ = vals
	fresh := newFig9Doc(t)
	def, _ := fresh.Definition()
	att := EncodeAttachment("spec.pdf", "application/pdf", []byte("pdf-bytes"))
	execute(t, fresh, def, "A", []string{"B1", "B2"}, map[string]string{
		"request": "r", "attachment": att,
	})
	got, ok := FieldValue(fresh.FinalCERs()[0].Result(), "attachment")
	if !ok {
		t.Fatal("attachment field missing")
	}
	name, _, raw, ok := DecodeAttachment(got)
	if !ok || name != "spec.pdf" || string(raw) != "pdf-bytes" {
		t.Fatalf("attachment round trip: %q %q %v", name, raw, ok)
	}
}

func TestTemplateSignVerify(t *testing.T) {
	def := wfdef.Fig9A()
	designer := cache.MustGet("designer@acme")
	tpl, err := SignTemplate(def, designer)
	if err != nil {
		t.Fatal(err)
	}
	got, err := VerifyTemplate(tpl, fig9Resolver())
	if err != nil || got.Name != def.Name {
		t.Fatalf("VerifyTemplate = %v, %v", got, err)
	}
	// Survives serialization.
	back, err := xmltree.ParseBytes(tpl.Canonical())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyTemplate(back, fig9Resolver()); err != nil {
		t.Fatal(err)
	}
	// Error paths.
	if _, err := VerifyTemplate(nil, fig9Resolver()); err == nil {
		t.Fatal("nil template verified")
	}
	if _, err := VerifyTemplate(xmltree.NewElement("Wrong"), fig9Resolver()); err == nil {
		t.Fatal("wrong element verified")
	}
	noSig := tpl.Clone()
	noSig.RemoveChild(noSig.Child("Signature"))
	if _, err := VerifyTemplate(noSig, fig9Resolver()); err == nil {
		t.Fatal("unsigned template verified")
	}
	noDef := tpl.Clone()
	noDef.RemoveChild(noDef.Child("WorkflowDefinition"))
	if _, err := VerifyTemplate(noDef, fig9Resolver()); err == nil {
		t.Fatal("definition-less template verified")
	}
	bad := wfdef.Fig9A()
	bad.Activities = nil
	if _, err := SignTemplate(bad, designer); err == nil {
		t.Fatal("invalid definition signed")
	}
}

// TestPropDocumentParseNeverPanics: network-received bytes must never
// panic the document parser.
func TestPropDocumentParseNeverPanics(t *testing.T) {
	valid := newFig9Doc(t).Bytes()
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 300; i++ {
		mutated := make([]byte, len(valid))
		copy(mutated, valid)
		// Random byte-level corruption.
		for j := 0; j < 1+r.Intn(8); j++ {
			mutated[r.Intn(len(mutated))] = byte(r.Intn(256))
		}
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					t.Fatalf("Parse panicked on mutation %d: %v", i, rec)
				}
			}()
			if doc, err := Parse(mutated); err == nil {
				// Even when it parses, verification must not panic.
				_, _ = doc.VerifyAll(fig9Resolver())
				_ = doc.Summary()
			}
		}()
	}
}
