package portal

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"dra4wfms/internal/aea"
	"dra4wfms/internal/document"
	"dra4wfms/internal/dsig"
	"dra4wfms/internal/pool"
	"dra4wfms/internal/testenv"
	"dra4wfms/internal/tfc"
	"dra4wfms/internal/wfdef"
)

// storePaths are the two ways a hop reaches the portal: the whole
// document (StoreCtx), and what it adds as the client ships it
// (StoreDeltaCtx over the delta's wire form).
var storePaths = []string{"full", "delta"}

// storeVia stores doc through the named path.
func storeVia(p *Portal, path string, doc *document.Document) ([]Notification, error) {
	ctx := context.Background()
	if path == "full" {
		return p.StoreCtx(ctx, doc)
	}
	d, ok := doc.Delta()
	if !ok {
		panic("storeVia: document does not remember a retrieve")
	}
	wire, err := document.ParseDelta(d.Bytes())
	if err != nil {
		return nil, err
	}
	return p.StoreDeltaCtx(ctx, doc.ProcessID(), wire)
}

// retrieve returns the stored document of pid as participant of activity
// gets it, marked as retrieved the way the HTTP client marks it.
func (c *cloud) retrieve(t testing.TB, pid, activity string) *document.Document {
	t.Helper()
	doc, err := c.portal.Retrieve(wfdef.Fig9Participants[activity], pid)
	if err != nil {
		t.Fatal(err)
	}
	doc.MarkRetrieved()
	return doc
}

// execute runs activity on doc with agent.
func execute(t testing.TB, agent *aea.AEA, doc *document.Document, activity string, in aea.Inputs) *document.Document {
	t.Helper()
	out, err := agent.Execute(doc, activity, in, now)
	if err != nil {
		t.Fatal(err)
	}
	return out.Doc
}

// storedDoc parses the stored row of pid and checks that it verifies.
func (c *cloud) storedDoc(t testing.TB, pid string) *document.Document {
	t.Helper()
	raw, ok := c.table.Get(pid, "doc", "content")
	if !ok {
		t.Fatalf("no row for %s", pid)
	}
	doc, err := document.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := doc.VerifyAll(c.env.Registry); err != nil {
		t.Fatalf("stored row does not verify: %v", err)
	}
	return doc
}

// startedAfterA stores a Fig. 9A instance and its A hop.
func (c *cloud) startedAfterA(t testing.TB) string {
	t.Helper()
	doc := c.initial(t)
	if _, err := c.portal.StoreInitial(doc); err != nil {
		t.Fatal(err)
	}
	c.run(t, doc.ProcessID(), "A", aea.Inputs{"request": "r"})
	return doc.ProcessID()
}

// TestStoreRefusesEquivocation: B1's participant signs two different
// final CERs for B1 iteration 0 (a second AEA, as after a restart). The
// first store is acknowledged; the second is refused with
// ErrEquivocation on either path, and the row keeps the first CER.
// The parent acknowledged the second store and dropped its CER.
func TestStoreRefusesEquivocation(t *testing.T) {
	for _, path := range storePaths {
		t.Run(path, func(t *testing.T) {
			c := newCloud(t)
			pid := c.startedAfterA(t)
			postA := c.retrieve(t, pid, "B1")
			first := execute(t, c.agents["B1"], postA, "B1", aea.Inputs{"techReview": "ok"})
			restarted := aea.New(c.env.KeyOf(wfdef.Fig9Participants["B1"]), c.env.Registry)
			second := execute(t, restarted, postA, "B1", aea.Inputs{"techReview": "REJECT"})

			if _, err := storeVia(c.portal, path, first); err != nil {
				t.Fatal(err)
			}
			if _, err := storeVia(c.portal, path, second); !errors.Is(err, document.ErrEquivocation) {
				t.Fatalf("second B1 CER: %v, want ErrEquivocation", err)
			}
			held, _ := c.storedDoc(t, pid).FindCER(document.KindFinal, "B1", 0)
			want, _ := first.FindCER(document.KindFinal, "B1", 0)
			if !bytes.Equal(held.El.Canonical(), want.El.Canonical()) {
				t.Fatal("the row no longer holds the acknowledged B1 CER")
			}
		})
	}
}

// TestStoreRefusesDocumentBuiltOnDiscardedCER: C's document is built on
// the B1 CER the portal refused (reached C around the portal). Whole, it
// is refused for carrying that CER; as a delta that ships only C's CER
// and names the refused B1 by its Id, C's signature fails against the
// stored B1. Either way the row keeps verifying. The parent stored the
// whole document, and its row then failed VerifyAll.
func TestStoreRefusesDocumentBuiltOnDiscardedCER(t *testing.T) {
	for _, path := range storePaths {
		t.Run(path, func(t *testing.T) {
			c := newCloud(t)
			pid := c.startedAfterA(t)
			postA := c.retrieve(t, pid, "B1")
			stored := execute(t, c.agents["B1"], postA, "B1", aea.Inputs{"techReview": "ok"})
			restarted := aea.New(c.env.KeyOf(wfdef.Fig9Participants["B1"]), c.env.Registry)
			discarded := execute(t, restarted, postA, "B1", aea.Inputs{"techReview": "REJECT"})
			b2 := execute(t, c.agents["B2"], postA, "B2", aea.Inputs{"budgetReview": "ok"})
			for _, doc := range []*document.Document{stored, b2} {
				if _, err := c.portal.Store(doc); err != nil {
					t.Fatal(err)
				}
			}

			joined, err := document.Merge(discarded, b2)
			if err != nil {
				t.Fatal(err)
			}
			if path == "delta" {
				joined.MarkRetrieved() // claims the whole join is stored
			}
			docC := execute(t, c.agents["C"], joined, "C", aea.Inputs{"summary": "s"})
			_, err = storeVia(c.portal, path, docC)
			if err == nil {
				t.Fatal("a C document built on the refused B1 CER was stored")
			}
			if path == "full" && !errors.Is(err, document.ErrEquivocation) {
				t.Fatalf("whole C document: %v, want ErrEquivocation", err)
			}
			if n := len(c.storedDoc(t, pid).FinalCERs()); n != 3 {
				t.Fatalf("row holds %d final CERs, want A, B1, B2", n)
			}
		})
	}
}

// TestStoreRefusesForgedDesignerSignature: StoreCtx checks a whole
// document against the row it extends, not alone. The designer's
// signature sits inside the application definition, which must carry the
// row's bytes, so a document whose designer signature is forged or
// missing is refused even though the CER it adds verifies, and the row is
// unchanged.
func TestStoreRefusesForgedDesignerSignature(t *testing.T) {
	c := newCloud(t)
	pid := c.startedAfterA(t)
	b1 := execute(t, c.agents["B1"], c.retrieve(t, pid, "B1"), "B1", aea.Inputs{"techReview": "ok"})
	forged, missing := b1.Clone(), b1.Clone()
	sv := forged.DesignerSignature().Child("SignatureValue")
	v := sv.TextContent()
	flip := "A"
	if v[0] == 'A' {
		flip = "B"
	}
	sv.SetText(flip + v[1:])
	missing.Root.Child("ApplicationDefinition").RemoveChild(missing.DesignerSignature())
	before, _ := c.table.Get(pid, "doc", "content")
	for name, doc := range map[string]*document.Document{"forged": forged, "missing": missing} {
		if _, err := c.portal.Store(doc); err == nil {
			t.Fatalf("a document with a %s designer signature was stored", name)
		}
	}
	if after, _ := c.table.Get(pid, "doc", "content"); !bytes.Equal(before, after) {
		t.Fatal("a refused document changed the row")
	}
	if _, err := c.portal.Store(b1); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaOnUnknownBaseRefused: a delta built on a CER the row lacks,
// or sent for an instance with no row, is ErrUnknownBase and changes
// nothing.
func TestDeltaOnUnknownBaseRefused(t *testing.T) {
	c := newCloud(t)
	pid := c.startedAfterA(t)
	doc := execute(t, c.agents["B1"], c.retrieve(t, pid, "B1"), "B1", aea.Inputs{"techReview": "ok"})
	d, _ := doc.Delta()
	before, _ := c.table.Get(pid, "doc", "content")
	ctx := context.Background()
	ghost := document.Delta{Base: append([]string{"cer-ghost-0"}, d.Base...), CERs: d.CERs}
	if _, err := c.portal.StoreDeltaCtx(ctx, pid, ghost); !errors.Is(err, document.ErrUnknownBase) {
		t.Fatalf("delta on an unknown CER: %v, want ErrUnknownBase", err)
	}
	if _, err := c.portal.StoreDeltaCtx(ctx, "ghost", d); !errors.Is(err, document.ErrUnknownBase) {
		t.Fatalf("delta for an instance with no row: %v, want ErrUnknownBase", err)
	}
	if after, _ := c.table.Get(pid, "doc", "content"); !bytes.Equal(before, after) {
		t.Fatal("a refused delta changed the row")
	}
}

// TestRepeatedDeltaIsHarmless: a delta stored twice (a retry whose first
// answer was lost) is acknowledged twice with the same notifications and
// writes the row once.
func TestRepeatedDeltaIsHarmless(t *testing.T) {
	c := newCloud(t)
	pid := c.startedAfterA(t)
	doc := execute(t, c.agents["B1"], c.retrieve(t, pid, "B1"), "B1", aea.Inputs{"techReview": "ok"})
	first, err := storeVia(c.portal, "delta", doc)
	if err != nil {
		t.Fatal(err)
	}
	version := func() int64 {
		for _, kv := range c.table.GetRow(pid) {
			if kv.Family == "doc" && kv.Qualifier == "content" {
				return kv.Version
			}
		}
		return 0
	}
	written := version()
	again, err := storeVia(c.portal, "delta", doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != len(again) || len(first) == 0 || first[0] != again[0] {
		t.Fatalf("notifications %v, then %v", first, again)
	}
	if version() != written {
		t.Fatal("a store that added nothing rewrote the row")
	}
}

// TestStoresThroughTwoPortals: B1 is stored whole through one portal,
// then B2's delta, built on the same post-A row, through the other; the
// row holds both.
func TestStoresThroughTwoPortals(t *testing.T) {
	c := newCloud(t)
	pid := c.startedAfterA(t)
	postA := c.retrieve(t, pid, "B1")
	b1 := execute(t, c.agents["B1"], postA, "B1", aea.Inputs{"techReview": "ok"})
	b2 := execute(t, c.agents["B2"], postA, "B2", aea.Inputs{"budgetReview": "ok"})
	if _, err := c.portal2.Store(b1); err != nil {
		t.Fatal(err)
	}
	if _, err := storeVia(c.portal, "delta", b2); err != nil {
		t.Fatal(err)
	}
	if n := len(c.storedDoc(t, pid).FinalCERs()); n != 3 {
		t.Fatalf("row holds %d final CERs after stores through two portals, want 3", n)
	}
}

// TestConcurrentDeltaStoresOfOneInstance: B1's and B2's deltas, each
// sent twice, reach one portal at once; the row ends with A, B1 and B2
// and verifies, whatever the order.
func TestConcurrentDeltaStoresOfOneInstance(t *testing.T) {
	c := newCloud(t)
	pid := c.startedAfterA(t)
	postA := c.retrieve(t, pid, "B1")
	b1 := execute(t, c.agents["B1"], postA, "B1", aea.Inputs{"techReview": "x"})
	b2 := execute(t, c.agents["B2"], postA, "B2", aea.Inputs{"budgetReview": "y"})
	var wg sync.WaitGroup
	start := make(chan struct{})
	for _, doc := range []*document.Document{b1, b2, b1, b2} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, err := storeVia(c.portal, "delta", doc); err != nil {
				t.Error(err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if n := len(c.storedDoc(t, pid).FinalCERs()); n != 3 {
		t.Fatalf("row holds %d final CERs, want A, B1 and B2", n)
	}
}

// SameRows is sameRows for the external tests, which walk instances
// through internal/driver (an importer of this package).
var SameRows = sameRows

// TestDeltaRefusesHeldId: a delta whose CER carries, inside it, a twin
// of an element the row holds (here A's Result, under its Id: a wrapping
// attempt) is refused with dsig.ErrDuplicateID and changes nothing.
func TestDeltaRefusesHeldId(t *testing.T) {
	c := newCloud(t)
	pid := c.startedAfterA(t)
	postA := c.retrieve(t, pid, "B1")
	a, _ := postA.FindCER(document.KindFinal, "A", 0)
	b1 := execute(t, c.agents["B1"], postA, "B1", aea.Inputs{"techReview": "ok"})
	cer, _ := b1.FindCER(document.KindFinal, "B1", 0)
	cer.El.AppendChild(a.Result().Clone())
	before, _ := c.table.Get(pid, "doc", "content")
	if _, err := storeVia(c.portal, "delta", b1); !errors.Is(err, dsig.ErrDuplicateID) {
		t.Fatalf("delta repeating a held Id: %v, want dsig.ErrDuplicateID", err)
	}
	if after, _ := c.table.Get(pid, "doc", "content"); !bytes.Equal(before, after) {
		t.Fatal("a refused delta changed the row")
	}
}

// sameRows stores each document of hops through the full path on one
// portal and through the delta path on another, and checks after every
// store that both rows hold the same cells (meta:updated aside), that the
// content is the parent's row, Merge(previous row, document), and that it
// verifies.
func sameRows(t *testing.T, env *testenv.Env, initial *document.Document, hops []*document.Document) {
	t.Helper()
	portals := map[string]*Portal{}
	for _, path := range storePaths {
		table, err := pool.NewTable(TableName, Families...)
		if err != nil {
			t.Fatal(err)
		}
		portals[path] = New(path, env.Registry, table, nil)
		if _, err := portals[path].StoreInitial(initial); err != nil {
			t.Fatal(err)
		}
	}
	pid := initial.ProcessID()
	parent := initial
	for i, doc := range hops {
		rows := map[string][]pool.KeyValue{}
		for _, path := range storePaths {
			if _, err := storeVia(portals[path], path, doc); err != nil {
				t.Fatalf("hop %d, %s path: %v", i, path, err)
			}
			rows[path] = portals[path].Table.GetRow(pid)
		}
		var err error
		if parent, err = document.Merge(parent, doc); err != nil {
			t.Fatal(err)
		}
		full, delta := rows["full"], rows["delta"]
		if len(full) != len(delta) {
			t.Fatalf("hop %d: rows of %d and %d cells", i, len(full), len(delta))
		}
		for j := range full {
			f, d := full[j], delta[j]
			if f.Family != d.Family || f.Qualifier != d.Qualifier ||
				(f.Qualifier != "updated" && !bytes.Equal(f.Value, d.Value)) {
				t.Fatalf("hop %d: full row cell %s:%s=%q, delta row %s:%s=%q", i, f.Family, f.Qualifier, f.Value, d.Family, d.Qualifier, d.Value)
			}
			if f.Family == "doc" && f.Qualifier == "content" {
				if !bytes.Equal(f.Value, parent.Bytes()) {
					t.Fatalf("hop %d: the row is not the parent's merge of the stored row and the document", i)
				}
				stored, err := document.Parse(f.Value)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := stored.VerifyAll(env.Registry); err != nil {
					t.Fatalf("hop %d: row does not verify: %v", i, err)
				}
			}
		}
	}
}

// TestDeltaAndFullRowsAgreeFig9: Fig. 9A (B1 and B2 built on one post-A
// document, so B2's store merges) and Fig. 9B (each hop notarized by a
// TFC) leave the same rows on both paths, rows the parent's merge would
// have written.
func TestDeltaAndFullRowsAgreeFig9(t *testing.T) {
	for _, model := range []string{"fig9a", "fig9b"} {
		t.Run(model, func(t *testing.T) {
			c := newCloud(t)
			def := wfdef.Fig9A()
			if model == "fig9b" {
				def = wfdef.Fig9B()
			}
			initial, err := document.New(def, c.env.KeyOf("designer@acme"), testenv.ProcessID(), now)
			if err != nil {
				t.Fatal(err)
			}
			server := tfc.New(c.env.KeyOf("tfc@cloud"), c.env.Registry, func() time.Time { return now })
			hop := func(doc *document.Document, act string, in aea.Inputs) *document.Document {
				if model == "fig9a" {
					return execute(t, c.agents[act], doc, act, in)
				}
				interm, err := c.agents[act].ExecuteToTFC(doc, act, in)
				if err != nil {
					t.Fatal(err)
				}
				out, err := server.Process(interm)
				if err != nil {
					t.Fatal(err)
				}
				return out.Doc
			}
			mark := func(d *document.Document) *document.Document {
				back, err := document.Parse(d.Bytes())
				if err != nil {
					t.Fatal(err)
				}
				back.MarkRetrieved()
				return back
			}
			a := hop(mark(initial), "A", aea.Inputs{"request": "r"})
			postA := mark(a)
			b1 := hop(postA, "B1", aea.Inputs{"techReview": "ok"})
			b2 := hop(postA, "B2", aea.Inputs{"budgetReview": "ok"})
			joined, err := document.Merge(b1, b2)
			if err != nil {
				t.Fatal(err)
			}
			cDoc := hop(mark(joined), "C", aea.Inputs{"summary": "s"})
			d := hop(mark(cDoc), "D", aea.Inputs{"accept": "true"})
			sameRows(t, c.env, initial, []*document.Document{a, b1, b2, cDoc, d})
		})
	}
}

// FuzzStoreDelta feeds arbitrary bodies to the delta decoder and every
// body it decodes to the portal's delta entry, over a Fig. 9A row after
// A. Neither may panic, and a delta the portal accepts must leave a row
// that passes VerifyAll. Seeded with the bodies the tests send: B1's and
// B2's deltas, the equivocating second B1, a delta on an unknown base,
// C's delta on the refused B1, and an empty delta.
func FuzzStoreDelta(f *testing.F) {
	c := newCloud(f)
	pid := c.startedAfterA(f)
	postA := c.retrieve(f, pid, "B1")
	restarted := aea.New(c.env.KeyOf(wfdef.Fig9Participants["B1"]), c.env.Registry)
	discarded := execute(f, restarted, postA, "B1", aea.Inputs{"techReview": "REJECT"})
	b2 := execute(f, c.agents["B2"], postA, "B2", aea.Inputs{"budgetReview": "ok"})
	joined, err := document.Merge(discarded, b2)
	if err != nil {
		f.Fatal(err)
	}
	joined.MarkRetrieved()
	for _, doc := range []*document.Document{
		execute(f, c.agents["B1"], postA, "B1", aea.Inputs{"techReview": "ok"}),
		b2,
		discarded,
		execute(f, c.agents["C"], joined, "C", aea.Inputs{"summary": "s"}),
	} {
		d, _ := doc.Delta()
		f.Add(d.Bytes())
		f.Add(document.Delta{Base: append(d.Base, "cer-ghost-0"), CERs: d.CERs}.Bytes())
	}
	f.Add(document.Delta{}.Bytes())

	var row []pool.CellMutation
	for _, kv := range c.table.GetRow(pid) {
		row = append(row, pool.CellMutation{Family: kv.Family, Qualifier: kv.Qualifier, Value: kv.Value})
	}
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, body []byte) {
		d, err := document.ParseDelta(bytes.Clone(body)) // the decoder owns its input
		if err != nil {
			return
		}
		table, err := pool.NewTable(TableName, Families...)
		if err != nil {
			t.Fatal(err)
		}
		if err := table.Mutate(ctx, pid, row); err != nil {
			t.Fatal(err)
		}
		if _, err := New("fuzz", c.env.Registry, table, nil).StoreDeltaCtx(ctx, pid, d); err != nil {
			return
		}
		raw, _ := table.Get(pid, "doc", "content")
		stored, err := document.Parse(raw)
		if err != nil {
			t.Fatalf("accepted delta left an unparsable row: %v", err)
		}
		if _, err := stored.VerifyAll(c.env.Registry); err != nil {
			t.Fatalf("accepted delta left a row that does not verify: %v", err)
		}
	})
}
