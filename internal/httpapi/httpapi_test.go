package httpapi

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dra4wfms/internal/aea"
	"dra4wfms/internal/document"
	"dra4wfms/internal/monitor"
	"dra4wfms/internal/pool"
	"dra4wfms/internal/portal"
	"dra4wfms/internal/testenv"
	"dra4wfms/internal/tfc"
	"dra4wfms/internal/wfdef"
	"dra4wfms/internal/xmlenc"
)

var now = time.Date(2026, 7, 6, 16, 0, 0, 0, time.UTC)

type world struct {
	env       *testenv.Env
	portal    *portal.Portal
	portalSrv *httptest.Server
	tfcSrv    *httptest.Server
	agents    map[string]*aea.AEA
	clock     func() time.Time
}

func newWorld(t *testing.T) *world { return newWorldWith(t, nil) }

// newWorldWith is newWorld with both servers' handlers wrapped by wrap
// (nil: unwrapped).
func newWorldWith(t *testing.T, wrap func(http.Handler) http.Handler) *world {
	t.Helper()
	if wrap == nil {
		wrap = func(h http.Handler) http.Handler { return h }
	}
	env := testenv.Fig9(0)
	table, err := pool.NewTable(portal.TableName, portal.Families...)
	if err != nil {
		t.Fatal(err)
	}
	var tickMu sync.Mutex
	tick := now
	clock := func() time.Time {
		tickMu.Lock()
		defer tickMu.Unlock()
		tick = tick.Add(time.Second)
		return tick
	}

	p := portal.New("portal-1", env.Registry, table, clock)
	mon := monitor.New(table)
	auth := NewAuthenticator(env.Registry, clock)
	ps := httptest.NewServer(wrap(NewPortalServer(p, mon, auth).Handler()))
	t.Cleanup(ps.Close)

	srv := tfc.New(env.KeyOf("tfc@cloud"), env.Registry, clock)
	ts := httptest.NewServer(wrap(NewTFCServer(srv, NewAuthenticator(env.Registry, clock)).Handler()))
	t.Cleanup(ts.Close)

	agents := map[string]*aea.AEA{}
	for act, pid := range wfdef.Fig9Participants {
		agents[act] = aea.New(env.KeyOf(pid), env.Registry)
	}
	return &world{env: env, portal: p, portalSrv: ps, tfcSrv: ts, agents: agents, clock: clock}
}

func (w *world) clientFor(t *testing.T, id string) *Client {
	t.Helper()
	c := NewClient(w.portalSrv.URL, w.env.KeyOf(id))
	c.Clock = w.clock
	return c
}

func (w *world) tfcClientFor(t *testing.T, id string) *Client {
	t.Helper()
	c := NewClient(w.tfcSrv.URL, w.env.KeyOf(id))
	c.Clock = w.clock
	return c
}

func TestEndToEndOverHTTPBasicModel(t *testing.T) {
	w := newWorld(t)
	def := wfdef.Fig9A()
	doc, err := document.New(def, w.env.KeyOf("designer@acme"), testenv.ProcessID(), now)
	if err != nil {
		t.Fatal(err)
	}
	pid := doc.ProcessID()

	designer := w.clientFor(t, "designer@acme")
	notes, err := designer.StoreInitial(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(notes) != 1 || notes[0].Activity != "A" {
		t.Fatalf("initial notes = %v", notes)
	}

	steps := []struct {
		act    string
		inputs aea.Inputs
	}{
		{"A", aea.Inputs{"request": "r"}},
		{"B1", aea.Inputs{"techReview": "ok"}},
		{"B2", aea.Inputs{"budgetReview": "ok"}},
		{"C", aea.Inputs{"summary": "s"}},
		{"D", aea.Inputs{"accept": "true"}},
	}
	for _, s := range steps {
		participant := wfdef.Fig9Participants[s.act]
		cli := w.clientFor(t, participant)

		// The participant's worklist names the activity.
		items, err := cli.Worklist()
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, it := range items {
			if it.ProcessID == pid && it.Activity == s.act {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s missing from %s worklist: %v", s.act, participant, items)
		}

		cur, err := cli.Retrieve(pid)
		if err != nil {
			t.Fatal(err)
		}
		out, err := w.agents[s.act].Execute(cur, s.act, s.inputs, now)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cli.Store(out.Doc); err != nil {
			t.Fatal(err)
		}
	}

	// Monitoring over HTTP.
	st, err := designer.Status(pid)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "completed" || len(st.Steps) != 5 {
		t.Fatalf("status = %+v", st)
	}
	ids, err := designer.Processes("completed")
	if err != nil || len(ids) != 1 || ids[0] != pid {
		t.Fatalf("processes = %v, %v", ids, err)
	}
	stats, err := designer.Statistics()
	if err != nil || stats.InstancesByState["completed"] != 1 {
		t.Fatalf("stats = %+v, %v", stats, err)
	}
	// Final document fetched over HTTP verifies.
	final, err := designer.Retrieve(pid)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := final.VerifyAll(w.env.Registry); err != nil || n != 6 {
		t.Fatalf("VerifyAll = %d, %v", n, err)
	}
}

// TestRetrieveServesStoredBytes: GET /v1/documents/{pid} writes the
// stored row as it is, and those bytes are doc.Bytes() of the stored
// document — the parse and re-canonicalization it no longer does would
// have reproduced them exactly.
func TestRetrieveServesStoredBytes(t *testing.T) {
	w := newWorld(t)
	doc, err := document.New(wfdef.Fig9A(), w.env.KeyOf("designer@acme"), testenv.ProcessID(), now)
	if err != nil {
		t.Fatal(err)
	}
	pid := doc.ProcessID()
	if _, err := w.clientFor(t, "designer@acme").StoreInitial(doc); err != nil {
		t.Fatal(err)
	}
	alice := w.clientFor(t, wfdef.Fig9Participants["A"])
	check := func(when string) {
		t.Helper()
		_, body, err := alice.do(http.MethodGet, "/v1/documents/"+pid, nil)
		if err != nil {
			t.Fatal(err)
		}
		stored, err := w.portal.Retrieve(wfdef.Fig9Participants["A"], pid)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, stored.Bytes()) {
			t.Fatalf("%s: response is not doc.Bytes() of the stored document", when)
		}
	}
	check("initial document")
	cur, err := alice.Retrieve(pid)
	if err != nil {
		t.Fatal(err)
	}
	out, err := w.agents["A"].Execute(cur, "A", aea.Inputs{"request": "r"}, now)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Store(out.Doc); err != nil {
		t.Fatal(err)
	}
	check("after A")
}

func TestEndToEndOverHTTPAdvancedModel(t *testing.T) {
	w := newWorld(t)
	def := wfdef.Fig9B()
	doc, err := document.New(def, w.env.KeyOf("designer@acme"), testenv.ProcessID(), now)
	if err != nil {
		t.Fatal(err)
	}
	pid := doc.ProcessID()
	designer := w.clientFor(t, "designer@acme")
	if _, err := designer.StoreInitial(doc); err != nil {
		t.Fatal(err)
	}

	steps := []struct {
		act    string
		inputs aea.Inputs
	}{
		{"A", aea.Inputs{"request": "r"}},
		{"B1", aea.Inputs{"techReview": "ok"}},
		{"B2", aea.Inputs{"budgetReview": "ok"}},
		{"C", aea.Inputs{"summary": "s"}},
		{"D", aea.Inputs{"accept": "true"}},
	}
	for _, s := range steps {
		participant := wfdef.Fig9Participants[s.act]
		cli := w.clientFor(t, participant)
		cur, err := cli.Retrieve(pid)
		if err != nil {
			t.Fatal(err)
		}
		interm, err := w.agents[s.act].ExecuteToTFC(cur, s.act, s.inputs)
		if err != nil {
			t.Fatal(err)
		}
		pr, outDoc, err := w.tfcClientFor(t, participant).ProcessViaTFC(interm)
		if err != nil {
			t.Fatal(err)
		}
		if pr.Timestamp.IsZero() {
			t.Fatal("no timestamp in TFC response")
		}
		if _, err := cli.Store(outDoc); err != nil {
			t.Fatal(err)
		}
		if s.act == "D" && !pr.Completed {
			t.Fatal("final step did not complete")
		}
	}

	// TFC forwarding records over HTTP.
	recs, err := w.tfcClientFor(t, "designer@acme").TFCRecords(pid)
	if err != nil || len(recs) != 5 {
		t.Fatalf("records = %v, %v", recs, err)
	}
	if all, err := w.tfcClientFor(t, "designer@acme").TFCRecords(""); err != nil || len(all) != 5 {
		t.Fatalf("all records = %d, %v", len(all), err)
	}
}

func TestAuthenticationEnforced(t *testing.T) {
	w := newWorld(t)

	// Unsigned request.
	resp, err := http.Get(w.portalSrv.URL + "/v1/worklist")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unsigned request: %s", resp.Status)
	}

	// Unknown principal (valid signature under an unregistered key).
	ghost := NewClient(w.portalSrv.URL, w.env.KeyOf("ghost@nowhere"))
	ghost.Clock = w.clock
	if _, err := ghost.Worklist(); err == nil || !strings.Contains(err.Error(), "401") {
		t.Fatalf("ghost worklist: %v", err)
	}

	// Wrong key for claimed principal: sign with ghost's key but claim alice.
	forged := NewClient(w.portalSrv.URL, w.env.KeyOf("ghost@nowhere"))
	forged.Clock = w.clock
	req, _ := http.NewRequest(http.MethodGet, w.portalSrv.URL+"/v1/worklist", nil)
	if err := SignRequest(req, nil, w.env.KeyOf("ghost@nowhere"), w.clock()); err != nil {
		t.Fatal(err)
	}
	req.Header.Set(HeaderPrincipal, wfdef.Fig9Participants["A"])
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("impersonation: %s", resp.Status)
	}
}

func TestReplayAndSkewRejected(t *testing.T) {
	w := newWorld(t)
	alice := wfdef.Fig9Participants["A"]

	// Replay: re-send the exact same signed request.
	req, _ := http.NewRequest(http.MethodGet, w.portalSrv.URL+"/v1/worklist", nil)
	if err := SignRequest(req, nil, w.env.KeyOf(alice), w.clock()); err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first send: %s", resp.Status)
	}
	req2, _ := http.NewRequest(http.MethodGet, w.portalSrv.URL+"/v1/worklist", nil)
	req2.Header = req.Header.Clone()
	resp, err = http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("replayed request accepted: %s", resp.Status)
	}

	// Stale date.
	req3, _ := http.NewRequest(http.MethodGet, w.portalSrv.URL+"/v1/worklist", nil)
	if err := SignRequest(req3, nil, w.env.KeyOf(alice), w.clock().Add(-time.Hour)); err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req3)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("stale request accepted: %s", resp.Status)
	}
}

func TestTamperedBodyRejected(t *testing.T) {
	w := newWorld(t)
	def := wfdef.Fig9A()
	doc, _ := document.New(def, w.env.KeyOf("designer@acme"), testenv.ProcessID(), now)

	// Sign over the real body, then send a different one.
	body := doc.Bytes()
	req, _ := http.NewRequest(http.MethodPost, w.portalSrv.URL+"/v1/documents/initial",
		strings.NewReader(string(body)+" "))
	if err := SignRequest(req, body, w.env.KeyOf("designer@acme"), w.clock()); err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("body tamper accepted: %s", resp.Status)
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	w := newWorld(t)
	cli := w.clientFor(t, wfdef.Fig9Participants["A"])

	// Unknown process → 404.
	if _, err := cli.Retrieve("ghost"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("retrieve ghost: %v", err)
	}
	if _, err := cli.Status("ghost"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("status ghost: %v", err)
	}
	// Bad XML body → 400.
	if _, _, err := cli.do(http.MethodPost, "/v1/documents", []byte("not-xml")); err == nil ||
		!strings.Contains(err.Error(), "400") {
		t.Fatalf("bad body: %v", err)
	}
	// Bad state filter → 400.
	if _, err := cli.Processes("bogus"); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("bad state: %v", err)
	}
	// Tampered document → 409 (portal refuses).
	doc, _ := document.New(wfdef.Fig9A(), w.env.KeyOf("designer@acme"), testenv.ProcessID(), now)
	doc.WorkflowElement().SetAttr("Name", "evil")
	if _, err := cli.Store(doc); err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("tampered store: %v", err)
	}
}

func TestStoreInitialReplayOverHTTP(t *testing.T) {
	w := newWorld(t)
	doc, _ := document.New(wfdef.Fig9A(), w.env.KeyOf("designer@acme"), testenv.ProcessID(), now)
	cli := w.clientFor(t, "designer@acme")
	if _, err := cli.StoreInitial(doc); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.StoreInitial(doc); err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("replayed initial: %v", err)
	}
}

func TestConcealedWorkflowOverHTTP(t *testing.T) {
	// Figure 4 over the wire: the initial document is built with the
	// condition vault, participants route via the HTTP TFC, predicates
	// never appear in any payload the participants see.
	env := testenv.Fig4(0)
	table, err := pool.NewTable(portal.TableName, portal.Families...)
	if err != nil {
		t.Fatal(err)
	}
	tick := now
	clock := func() time.Time { tick = tick.Add(time.Second); return tick }
	p := portal.New("portal-1", env.Registry, table, clock)
	ps := httptest.NewServer(NewPortalServer(p, monitor.New(table), NewAuthenticator(env.Registry, clock)).Handler())
	t.Cleanup(ps.Close)
	srv := tfc.New(env.KeyOf("tfc@cloud"), env.Registry, clock)
	ts := httptest.NewServer(NewTFCServer(srv, NewAuthenticator(env.Registry, clock)).Handler())
	t.Cleanup(ts.Close)

	def := wfdef.Fig4()
	fp := wfdef.Fig4Participants
	tfcPub, _ := env.Registry.PublicKey("tfc@cloud")
	doc, err := document.NewConcealed(def, env.KeyOf("designer@p0"), testenv.ProcessID(), now,
		xmlenc.Recipient{ID: "tfc@cloud", Key: tfcPub})
	if err != nil {
		t.Fatal(err)
	}
	pid := doc.ProcessID()
	designer := NewClient(ps.URL, env.KeyOf("designer@p0"))
	designer.Clock = clock
	if _, err := designer.StoreInitial(doc); err != nil {
		t.Fatal(err)
	}

	steps := []struct {
		act, who string
		inputs   aea.Inputs
	}{
		{"A1", fp.Peter, aea.Inputs{"X": "1500"}},
		{"A2", fp.Tony, aea.Inputs{"Y": "dossier"}},
		{"A3", fp.Amy, aea.Inputs{"reviewed": "true"}},
		{"A4", fp.John, aea.Inputs{"highResult": "approved"}},
	}
	for _, s := range steps {
		cli := NewClient(ps.URL, env.KeyOf(s.who))
		cli.Clock = clock
		cur, err := cli.Retrieve(pid)
		if err != nil {
			t.Fatalf("%s retrieve: %v", s.act, err)
		}
		// The document a participant holds must not leak the predicates.
		if raw := string(cur.Bytes()); strings.Contains(raw, "X &gt; 1000") || strings.Contains(raw, "X > 1000") {
			t.Fatal("predicate leaked in routed document")
		}
		agent := aea.New(env.KeyOf(s.who), env.Registry)
		interm, err := agent.ExecuteToTFC(cur, s.act, s.inputs)
		if err != nil {
			t.Fatalf("%s execute: %v", s.act, err)
		}
		tcli := NewClient(ts.URL, env.KeyOf(s.who))
		tcli.Clock = clock
		pr, outDoc, err := tcli.ProcessViaTFC(interm)
		if err != nil {
			t.Fatalf("%s tfc: %v", s.act, err)
		}
		if s.act == "A3" && (len(pr.Next) != 1 || pr.Next[0] != "A4") {
			t.Fatalf("concealed routing chose %v", pr.Next)
		}
		if _, err := cli.Store(outDoc); err != nil {
			t.Fatal(err)
		}
	}
	st, err := designer.Status(pid)
	if err != nil || st.State != "completed" {
		t.Fatalf("status = %+v, %v", st, err)
	}
}

func TestTemplateCatalogOverHTTP(t *testing.T) {
	w := newWorld(t)
	designer := w.clientFor(t, "designer@acme")

	tpl, err := document.SignTemplate(wfdef.Fig9A(), w.env.KeyOf("designer@acme"))
	if err != nil {
		t.Fatal(err)
	}
	name, err := designer.StoreTemplate(tpl)
	if err != nil || name != "fig9-review" {
		t.Fatalf("StoreTemplate = %q, %v", name, err)
	}

	alice := w.clientFor(t, wfdef.Fig9Participants["A"])
	cat, err := alice.Templates()
	if err != nil || cat["fig9-review"] != "designer@acme" {
		t.Fatalf("Templates = %v, %v", cat, err)
	}
	def, err := alice.Template("fig9-review", w.env.Registry)
	if err != nil || def.Name != "fig9-review" || len(def.Activities) != 5 {
		t.Fatalf("Template = %+v, %v", def, err)
	}
	if _, err := alice.Template("nope", w.env.Registry); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown template: %v", err)
	}
	// Tampered template upload → 409.
	forged := tpl.Clone()
	forged.Find("Activity").SetAttr("Participant", "mallory@evil")
	if _, err := designer.StoreTemplate(forged); err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("tampered template: %v", err)
	}
}
