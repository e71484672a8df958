package portal

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"dra4wfms/internal/aea"
	"dra4wfms/internal/document"
	"dra4wfms/internal/dsig"
	"dra4wfms/internal/pool"
	"dra4wfms/internal/testenv"
	"dra4wfms/internal/wfdef"
)

var now = time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)

type cloud struct {
	env     *testenv.Env
	table   *pool.Table
	portal  *Portal
	portal2 *Portal
	agents  map[string]*aea.AEA
}

func newCloud(t testing.TB) *cloud {
	t.Helper()
	env := testenv.Fig9(0)
	table, err := pool.NewTable(TableName, Families...)
	if err != nil {
		t.Fatal(err)
	}
	agents := map[string]*aea.AEA{}
	for act, p := range wfdef.Fig9Participants {
		agents[act] = aea.New(env.KeyOf(p), env.Registry)
	}
	clock := func() time.Time { return now }
	return &cloud{
		env:     env,
		table:   table,
		portal:  New("portal-1", env.Registry, table, clock),
		portal2: New("portal-2", env.Registry, table, clock),
		agents:  agents,
	}
}

func (c *cloud) initial(t testing.TB) *document.Document {
	t.Helper()
	doc, err := document.New(wfdef.Fig9A(), c.env.KeyOf("designer@acme"), testenv.ProcessID(), now)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// run executes the given activity by retrieving the current document from
// the portal, running the AEA and storing the result.
func (c *cloud) run(t *testing.T, processID, activity string, inputs aea.Inputs) []Notification {
	t.Helper()
	participant := wfdef.Fig9Participants[activity]
	doc, err := c.portal.Retrieve(participant, processID)
	if err != nil {
		t.Fatalf("retrieve for %s: %v", activity, err)
	}
	out, err := c.agents[activity].Execute(doc, activity, inputs, now)
	if err != nil {
		t.Fatalf("execute %s: %v", activity, err)
	}
	notes, err := c.portal.Store(out.Doc)
	if err != nil {
		t.Fatalf("store after %s: %v", activity, err)
	}
	return notes
}

func TestCloudLifecycle(t *testing.T) {
	c := newCloud(t)
	doc := c.initial(t)
	pid := doc.ProcessID()

	notes, err := c.portal.StoreInitial(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(notes) != 1 || notes[0].Participant != wfdef.Fig9Participants["A"] || notes[0].Activity != "A" {
		t.Fatalf("initial notifications = %v", notes)
	}

	// Worklist for A's participant shows the new item.
	items, err := c.portal.Worklist(wfdef.Fig9Participants["A"])
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 1 || items[0].Activity != "A" || items[0].ProcessID != pid {
		t.Fatalf("worklist = %v", items)
	}

	notes = c.run(t, pid, "A", aea.Inputs{"request": "r"})
	// B1 and B2 are now enabled.
	acts := map[string]string{}
	for _, n := range notes {
		acts[n.Activity] = n.Participant
	}
	if len(notes) != 2 || acts["B1"] != wfdef.Fig9Participants["B1"] || acts["B2"] != wfdef.Fig9Participants["B2"] {
		t.Fatalf("notes after A = %v", notes)
	}
	// A's worklist is empty again.
	items, _ = c.portal.Worklist(wfdef.Fig9Participants["A"])
	if len(items) != 0 {
		t.Fatalf("stale worklist for A: %v", items)
	}

	c.run(t, pid, "B1", aea.Inputs{"techReview": "ok"})
	// C is an AND-join: not yet enabled.
	if enabled, _, _ := c.portal.Enabled(pid); strings.Join(enabled, ",") != "B2" {
		t.Fatalf("enabled after B1 = %v", enabled)
	}
	c.run(t, pid, "B2", aea.Inputs{"budgetReview": "ok"})
	if enabled, _, _ := c.portal.Enabled(pid); strings.Join(enabled, ",") != "C" {
		t.Fatalf("enabled after B2 = %v", enabled)
	}
	c.run(t, pid, "C", aea.Inputs{"summary": "s"})
	c.run(t, pid, "D", aea.Inputs{"accept": "true"})

	state, err := c.portal.State(pid)
	if err != nil || state != "completed" {
		t.Fatalf("state = %q, %v", state, err)
	}
	if ids := c.portal.ProcessIDs("completed"); len(ids) != 1 || ids[0] != pid {
		t.Fatalf("completed ids = %v", ids)
	}
	if ids := c.portal.ProcessIDs("running"); len(ids) != 0 {
		t.Fatalf("running ids = %v", ids)
	}
	// Final document verifies end to end.
	final, err := c.portal.Retrieve(wfdef.Fig9Participants["A"], pid)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := final.VerifyAll(c.env.Registry); err != nil || n != 6 {
		t.Fatalf("final VerifyAll = %d, %v", n, err)
	}
}

func TestSecondPortalSeesSharedPool(t *testing.T) {
	c := newCloud(t)
	doc := c.initial(t)
	if _, err := c.portal.StoreInitial(doc); err != nil {
		t.Fatal(err)
	}
	// A different portal over the same table serves the instance.
	got, err := c.portal2.Retrieve(wfdef.Fig9Participants["A"], doc.ProcessID())
	if err != nil {
		t.Fatal(err)
	}
	if got.ProcessID() != doc.ProcessID() {
		t.Fatal("portal-2 returned wrong instance")
	}
	items, err := c.portal2.Worklist(wfdef.Fig9Participants["A"])
	if err != nil || len(items) != 1 {
		t.Fatalf("portal-2 worklist = %v, %v", items, err)
	}
}

func TestBranchDocumentsMergeInPool(t *testing.T) {
	// B1 and B2 both execute against the post-A document (true parallel
	// branches); the portal must merge their stores.
	c := newCloud(t)
	doc := c.initial(t)
	pid := doc.ProcessID()
	c.portal.StoreInitial(doc)
	c.run(t, pid, "A", aea.Inputs{"request": "r"})

	postA, _ := c.portal.Retrieve(wfdef.Fig9Participants["B1"], pid)
	outB1, err := c.agents["B1"].Execute(postA.Clone(), "B1", aea.Inputs{"techReview": "x"}, now)
	if err != nil {
		t.Fatal(err)
	}
	outB2, err := c.agents["B2"].Execute(postA.Clone(), "B2", aea.Inputs{"budgetReview": "y"}, now)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.portal.Store(outB1.Doc); err != nil {
		t.Fatal(err)
	}
	notes, err := c.portal.Store(outB2.Doc)
	if err != nil {
		t.Fatal(err)
	}
	// After the merge, C is enabled.
	found := false
	for _, n := range notes {
		if n.Activity == "C" {
			found = true
		}
	}
	if !found {
		t.Fatalf("C not notified after branch merge: %v", notes)
	}
	stored, _ := c.portal.Retrieve(wfdef.Fig9Participants["C"], pid)
	if len(stored.FinalCERs()) != 3 {
		t.Fatalf("merged CERs = %d, want 3", len(stored.FinalCERs()))
	}
}

// TestStoredRowsAreFreshSerializations: documents that arrive as bytes
// (parsed, so their memos are seeded from the wire) and are merged with
// the stored row are stored as exactly the fresh serialization of their
// tree, on the plain path and on the AND-join merge path.
func TestStoredRowsAreFreshSerializations(t *testing.T) {
	c := newCloud(t)
	doc := c.initial(t)
	pid := doc.ProcessID()
	if _, err := c.portal.StoreInitial(doc); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	raw := func(activity string) []byte {
		b, err := c.portal.RetrieveRawCtx(ctx, wfdef.Fig9Participants[activity], pid)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	hop := func(in []byte, activity string, inputs aea.Inputs) {
		got, err := document.Parse(in)
		if err != nil {
			t.Fatal(err)
		}
		out, err := c.agents[activity].Execute(got, activity, inputs, now)
		if err != nil {
			t.Fatal(err)
		}
		sent, err := document.Parse(out.Doc.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.portal.StoreCtx(ctx, sent); err != nil {
			t.Fatal(err)
		}
		stored, err := document.Parse(raw(activity))
		if err != nil {
			t.Fatal(err)
		}
		if string(raw(activity)) != string(stored.Root.Clone().Canonical()) {
			t.Fatalf("row stored after %s is not the fresh serialization of its tree", activity)
		}
	}
	hop(raw("A"), "A", aea.Inputs{"request": "r"})
	postA := raw("B1")
	hop(postA, "B1", aea.Inputs{"techReview": "x"})
	hop(postA, "B2", aea.Inputs{"budgetReview": "y"})
	merged, err := document.Parse(raw("C"))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(merged.FinalCERs()); n != 3 {
		t.Fatalf("merged row holds %d final CERs, want 3", n)
	}
}

func TestAuthenticationRequired(t *testing.T) {
	c := newCloud(t)
	doc := c.initial(t)
	c.portal.StoreInitial(doc)
	if _, err := c.portal.Retrieve("mallory@evil", doc.ProcessID()); !errors.Is(err, ErrNotAuthenticated) {
		t.Fatalf("unauthenticated retrieve: %v", err)
	}
	if _, err := c.portal.Worklist("mallory@evil"); !errors.Is(err, ErrNotAuthenticated) {
		t.Fatalf("unauthenticated worklist: %v", err)
	}
}

func TestStoreRejectsTamperAndReplay(t *testing.T) {
	c := newCloud(t)
	doc := c.initial(t)
	if _, err := c.portal.StoreInitial(doc); err != nil {
		t.Fatal(err)
	}
	// Replayed initial document.
	if _, err := c.portal.StoreInitial(doc); err == nil {
		t.Fatal("replayed initial accepted")
	}
	// Tampered document.
	bad := doc.Clone()
	bad.WorkflowElement().SetAttr("Name", "evil")
	if _, err := c.portal.Store(bad); err == nil {
		t.Fatal("tampered document stored")
	}
	if _, err := c.portal.StoreInitial(bad); err == nil {
		t.Fatal("tampered initial stored")
	}
}

// TestStoreRejectsSignatureWrapping plants a signed copy of A's Result
// ahead of the CER and forges the Result the CER carries: the portal must
// refuse the document and keep serving the genuine one.
func TestStoreRejectsSignatureWrapping(t *testing.T) {
	c := newCloud(t)
	doc := c.initial(t)
	pid := doc.ProcessID()
	if _, err := c.portal.StoreInitial(doc); err != nil {
		t.Fatal(err)
	}
	c.run(t, pid, "A", aea.Inputs{"request": "r"})
	b1 := wfdef.Fig9Participants["B1"]
	genuine, err := c.portal.Retrieve(b1, pid)
	if err != nil {
		t.Fatal(err)
	}

	forged := genuine.Clone()
	cer, ok := forged.FindCER(document.KindFinal, "A", 0)
	if !ok {
		t.Fatal("no final CER A#0")
	}
	forged.Root.InsertChild(0, cer.Result().Clone())
	cer.Result().SetAttr("Forged", "true")
	if _, err := c.portal.Store(forged); !errors.Is(err, dsig.ErrDuplicateID) {
		t.Fatalf("Store(wrapped) = %v, want dsig.ErrDuplicateID", err)
	}

	back, err := c.portal.Retrieve(b1, pid)
	if err != nil {
		t.Fatal(err)
	}
	if string(back.Bytes()) != string(genuine.Bytes()) {
		t.Fatal("pool document changed by a refused store")
	}
}

func TestUnknownProcessErrors(t *testing.T) {
	c := newCloud(t)
	if _, err := c.portal.Retrieve(wfdef.Fig9Participants["A"], "ghost"); !errors.Is(err, ErrUnknownProcess) {
		t.Fatalf("retrieve ghost: %v", err)
	}
	if _, err := c.portal.State("ghost"); !errors.Is(err, ErrUnknownProcess) {
		t.Fatalf("state ghost: %v", err)
	}
	if _, _, err := c.portal.Enabled("ghost"); !errors.Is(err, ErrUnknownProcess) {
		t.Fatalf("enabled ghost: %v", err)
	}
}

func TestManyInstancesWorklistIsolation(t *testing.T) {
	c := newCloud(t)
	var pids []string
	for i := 0; i < 5; i++ {
		doc := c.initial(t)
		if _, err := c.portal.StoreInitial(doc); err != nil {
			t.Fatal(err)
		}
		pids = append(pids, doc.ProcessID())
	}
	// Advance two instances past A.
	for _, pid := range pids[:2] {
		c.run(t, pid, "A", aea.Inputs{"request": fmt.Sprintf("r-%s", pid)})
	}
	itemsA, _ := c.portal.Worklist(wfdef.Fig9Participants["A"])
	if len(itemsA) != 3 {
		t.Fatalf("A worklist = %d items, want 3", len(itemsA))
	}
	itemsB1, _ := c.portal.Worklist(wfdef.Fig9Participants["B1"])
	if len(itemsB1) != 2 {
		t.Fatalf("B1 worklist = %d items, want 2", len(itemsB1))
	}
}

func TestTemplateCatalog(t *testing.T) {
	c := newCloud(t)
	def := wfdef.Fig9A()
	tpl, err := document.SignTemplate(def, c.env.KeyOf("designer@acme"))
	if err != nil {
		t.Fatal(err)
	}
	name, err := c.portal.StoreTemplate(tpl)
	if err != nil {
		t.Fatal(err)
	}
	if name != "fig9-review" {
		t.Fatalf("name = %q", name)
	}
	// Listed with its designer.
	cat := c.portal.Templates()
	if cat["fig9-review"] != "designer@acme" {
		t.Fatalf("catalog = %v", cat)
	}
	// Fetch re-verifies and parses.
	got, _, err := c.portal2.Template(wfdef.Fig9Participants["A"], "fig9-review")
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != def.Name || len(got.Activities) != 5 {
		t.Fatalf("template def = %+v", got)
	}
	// Unknown name and unauthenticated caller.
	if _, _, err := c.portal.Template(wfdef.Fig9Participants["A"], "nope"); err == nil {
		t.Fatal("unknown template fetched")
	}
	if _, _, err := c.portal.Template("mallory@evil", "fig9-review"); err == nil {
		t.Fatal("unauthenticated template fetch")
	}
	// Tampered templates are rejected at upload.
	forged := tpl.Clone()
	forged.Find("Activity").SetAttr("Participant", "mallory@evil")
	if _, err := c.portal.StoreTemplate(forged); err == nil {
		t.Fatal("tampered template stored")
	}
	// Templates signed by someone other than the named designer rejected.
	imposter, err := document.SignTemplate(def, c.env.KeyOf("designer@acme"))
	if err != nil {
		t.Fatal(err)
	}
	_ = imposter
	wrong := *def
	wrong.Designer = wfdef.Fig9Participants["A"]
	if _, err := document.SignTemplate(&wrong, c.env.KeyOf("designer@acme")); err == nil {
		t.Fatal("SignTemplate with mismatched designer succeeded")
	}
	// Templates do not pollute process listings or statistics.
	if ids := c.portal.ProcessIDs(""); len(ids) != 0 {
		t.Fatalf("templates leaked into process ids: %v", ids)
	}
}

func TestPortalRestartResilience(t *testing.T) {
	// The paper demands WfMSs "durable and resilient to any failures":
	// kill the portal mid-process (drop it), bring up a fresh one over the
	// same pool, and the instance continues seamlessly — all state lives
	// in the self-protecting documents, none in the portal.
	c := newCloud(t)
	doc := c.initial(t)
	pid := doc.ProcessID()
	c.portal.StoreInitial(doc)
	c.run(t, pid, "A", aea.Inputs{"request": "r"})
	c.run(t, pid, "B1", aea.Inputs{"techReview": "ok"})

	// "Restart": a brand-new portal instance over the same table.
	reborn := New("portal-reborn", c.env.Registry, c.table, nil)
	items, err := reborn.Worklist(wfdef.Fig9Participants["B2"])
	if err != nil || len(items) != 1 || items[0].Activity != "B2" {
		t.Fatalf("reborn worklist = %v, %v", items, err)
	}
	cur, err := reborn.Retrieve(wfdef.Fig9Participants["B2"], pid)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.agents["B2"].Execute(cur, "B2", aea.Inputs{"budgetReview": "ok"}, now)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reborn.Store(out.Doc); err != nil {
		t.Fatal(err)
	}
	// Finish through the reborn portal.
	for _, s := range []struct {
		act    string
		inputs aea.Inputs
	}{
		{"C", aea.Inputs{"summary": "s"}},
		{"D", aea.Inputs{"accept": "true"}},
	} {
		cur, err := reborn.Retrieve(wfdef.Fig9Participants[s.act], pid)
		if err != nil {
			t.Fatal(err)
		}
		o, err := c.agents[s.act].Execute(cur, s.act, s.inputs, now)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := reborn.Store(o.Doc); err != nil {
			t.Fatal(err)
		}
	}
	state, err := reborn.State(pid)
	if err != nil || state != "completed" {
		t.Fatalf("state after restart = %q, %v", state, err)
	}
}
