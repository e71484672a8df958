package document

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"testing"

	"dra4wfms/internal/dsig"
)

// TestDeltaRoundTrip: a document marked as retrieved ships only the CERs
// appended since, on the ids it was built on; the wire form decodes to
// the same delta with every CER's bytes intact. Fork keeps the mark,
// Clone drops it, and an unmarked document has no delta.
func TestDeltaRoundTrip(t *testing.T) {
	doc := newFig9Doc(t)
	def, _ := doc.Definition()
	if _, ok := doc.Delta(); ok {
		t.Fatal("an unmarked document has a delta")
	}
	execute(t, doc, def, "A", []string{"B1", "B2"}, map[string]string{"request": "r"})
	doc.MarkRetrieved()
	work := doc.Fork()
	execute(t, work, def, "B1", []string{"C"}, map[string]string{"techReview": "ok"})
	d, ok := work.Delta()
	if !ok || !slices.Equal(d.Base, []string{"cer-A-0"}) || len(d.CERs) != 1 || d.CERs[0].ID() != "cer-B1-0" {
		t.Fatalf("delta = %+v, %v; want B1 on base [cer-A-0]", d, ok)
	}
	if _, ok := work.Clone().Delta(); ok {
		t.Fatal("a clone kept the retrieve mark")
	}
	back, err := ParseDelta(d.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(back.Base, d.Base) || len(back.CERs) != 1 ||
		!bytes.Equal(back.CERs[0].El.Canonical(), d.CERs[0].El.Canonical()) {
		t.Fatal("the delta did not survive its wire form")
	}
	// A freshly retrieved document with no CER yet has an empty base.
	initial := newFig9Doc(t)
	initial.MarkRetrieved()
	if d, ok := initial.Delta(); !ok || len(d.Base) != 0 || len(d.CERs) != 0 {
		t.Fatalf("delta of a retrieved initial document = %+v, %v", d, ok)
	}
}

func TestParseDeltaRefusesStrayContent(t *testing.T) {
	for _, body := range []string{
		`<DRA4WfMS></DRA4WfMS>`,
		`<Delta Id="x"></Delta>`,
		`<Delta>text</Delta>`,
		`<Delta><Base></Base></Delta>`,
		`<Delta><Base Id="x">cer-A-0</Base></Delta>`,
		`<Delta><Base><To>cer-A-0</To></Base></Delta>`,
		`<Delta><Signature></Signature></Delta>`,
		`<Delta><Base>cer-A-0</Base>`,
	} {
		if _, err := ParseDelta([]byte(body)); err == nil {
			t.Errorf("ParseDelta(%s) accepted", body)
		}
	}
	if _, err := ParseDelta([]byte(`<Delta></Delta>`)); err != nil {
		t.Errorf("empty delta refused: %v", err)
	}
}

// TestDiffRefusesEquivocationAndUnknownBase: Diff returns only the CERs
// the document lacks, takes an identical CER as already held, refuses a
// different CER under a held Id and a base Id the document lacks, and
// Merge refuses the equivocation instead of keeping the first CER.
func TestDiffRefusesEquivocationAndUnknownBase(t *testing.T) {
	doc := newFig9Doc(t)
	def, _ := doc.Definition()
	execute(t, doc, def, "A", []string{"B1", "B2"}, map[string]string{"request": "r"})
	b1, twin := doc.Clone(), doc.Clone()
	execute(t, b1, def, "B1", []string{"C"}, map[string]string{"techReview": "ok"})
	execute(t, twin, def, "B1", []string{"C"}, map[string]string{"techReview": "REJECT"})

	added, err := doc.Diff([]string{"cer-A-0"}, b1.CERs())
	if err != nil || len(added) != 1 || added[0].ID() != "cer-B1-0" {
		t.Fatalf("Diff = %v, %v; want B1 only", added, err)
	}
	if added, err := b1.Diff(nil, b1.Clone().CERs()); err != nil || len(added) != 0 {
		t.Fatalf("Diff of identical CERs = %v, %v", added, err)
	}
	if _, err := b1.Diff(nil, twin.CERs()); !errors.Is(err, ErrEquivocation) {
		t.Fatalf("Diff of a second B1 CER = %v, want ErrEquivocation", err)
	}
	if _, err := doc.Diff([]string{"cer-B1-0"}, nil); !errors.Is(err, ErrUnknownBase) {
		t.Fatalf("Diff on an unknown base = %v, want ErrUnknownBase", err)
	}
	if _, err := Merge(b1, twin); !errors.Is(err, ErrEquivocation) {
		t.Fatalf("Merge of two B1 CERs = %v, want ErrEquivocation", err)
	}
}

// TestKeepRetrievedChecksLeadingIds: a document built from a retrieved
// one takes its mark only when its leading CERs carry the retrieved Ids.
func TestKeepRetrievedChecksLeadingIds(t *testing.T) {
	doc := newFig9Doc(t)
	def, _ := doc.Definition()
	execute(t, doc, def, "A", []string{"B1", "B2"}, map[string]string{"request": "r"})
	doc.MarkRetrieved()
	reply := doc.Clone()
	execute(t, reply, def, "B1", []string{"C"}, map[string]string{"techReview": "ok"})
	if !reply.KeepRetrieved(doc) {
		t.Fatal("a reply extending the retrieved document was not marked")
	}
	if d, ok := reply.Delta(); !ok || len(d.CERs) != 1 || d.CERs[0].ID() != "cer-B1-0" {
		t.Fatalf("reply delta = %+v, %v", d, ok)
	}
	other := newFig9Doc(t)
	execute(t, other, def, "A", []string{"B1", "B2"}, map[string]string{"request": "r"})
	other.Root.Find("ActivityResults").Children[0].SetAttr("Id", "cer-X-0")
	if other.KeepRetrieved(doc) {
		t.Fatal("a reply whose leading CER Ids differ was marked")
	}
	if doc.Clone().KeepRetrieved(newFig9Doc(t)) {
		t.Fatal("a mark was taken from an unmarked document")
	}
}

// TestVerifyAddedRefusesIdOnGrowingElements: an Id on the root or on
// ActivityResults would let a signature cover the elements every append
// changes, so verifying only the added CERs refuses such a tree.
func TestVerifyAddedRefusesIdOnGrowingElements(t *testing.T) {
	doc := newFig9Doc(t)
	def, _ := doc.Definition()
	cer := execute(t, doc, def, "A", []string{"B1", "B2"}, map[string]string{"request": "r"})
	if _, err := doc.VerifyAddedCtx(context.Background(), fig9Resolver(), []CER{cer}); err != nil {
		t.Fatalf("VerifyAddedCtx = %v", err)
	}
	for _, name := range []string{RootElem, "ActivityResults"} {
		bad := doc.Clone()
		el := bad.Root
		if name != RootElem {
			el = bad.Root.Child(name)
		}
		el.SetAttr("Id", "grows")
		if _, err := bad.VerifyAddedCtx(context.Background(), fig9Resolver(), bad.CERs()); err == nil {
			t.Fatalf("an Id on <%s> was accepted", name)
		}
	}
}

// TestVerifyAddedRefusesHeldId: an added CER carrying, inside it, a twin
// of an element the rest of the document holds (the designer's signed
// workflow definition, under its Id) is refused as a duplicate Id.
func TestVerifyAddedRefusesHeldId(t *testing.T) {
	doc := newFig9Doc(t)
	def, _ := doc.Definition()
	cer := execute(t, doc, def, "A", []string{"B1", "B2"}, map[string]string{"request": "r"})
	cer.El.AppendChild(doc.Root.FindByID(WfdefID).Clone())
	if _, err := doc.VerifyAddedCtx(context.Background(), fig9Resolver(), []CER{cer}); !errors.Is(err, dsig.ErrDuplicateID) {
		t.Fatalf("an added CER carrying a twin of %q: %v, want ErrDuplicateID", WfdefID, err)
	}
}
