package tfc

import (
	"errors"
	"strings"
	"testing"
	"time"

	"dra4wfms/internal/aea"
	"dra4wfms/internal/document"
	"dra4wfms/internal/telemetry"
	"dra4wfms/internal/testenv"
	"dra4wfms/internal/wfdef"
	"dra4wfms/internal/xmlenc"
	"dra4wfms/internal/xmltree"
)

var base = time.Date(2026, 7, 6, 11, 0, 0, 0, time.UTC)

// clock returns a deterministic monotonic clock.
func clock() func() time.Time {
	t := base
	return func() time.Time {
		t = t.Add(time.Second)
		return t
	}
}

type fixture struct {
	env    *testenv.Env
	def    *wfdef.Definition
	doc    *document.Document
	server *Server
	agents map[string]*aea.AEA
}

func newFig9B(t *testing.T) *fixture {
	t.Helper()
	env := testenv.Fig9(0)
	def := wfdef.Fig9B()
	doc, err := document.New(def, env.KeyOf("designer@acme"), testenv.ProcessID(), base)
	if err != nil {
		t.Fatal(err)
	}
	agents := map[string]*aea.AEA{}
	for act, p := range wfdef.Fig9Participants {
		agents[act] = aea.New(env.KeyOf(p), env.Registry)
	}
	return &fixture{
		env: env, def: def, doc: doc,
		server: New(env.KeyOf("tfc@cloud"), env.Registry, clock()),
		agents: agents,
	}
}

// step runs one activity through AEA → TFC and returns the TFC outcome.
func (f *fixture) step(t *testing.T, doc *document.Document, activity string, inputs aea.Inputs) *Outcome {
	t.Helper()
	interm, err := f.agents[activity].ExecuteToTFC(doc, activity, inputs)
	if err != nil {
		t.Fatalf("AEA %s: %v", activity, err)
	}
	out, err := f.server.Process(interm)
	if err != nil {
		t.Fatalf("TFC after %s: %v", activity, err)
	}
	return out
}

func (f *fixture) runIteration(t *testing.T, doc *document.Document, accept string) *Outcome {
	t.Helper()
	outA := f.step(t, doc, "A", aea.Inputs{"request": "req"})
	outB1 := f.step(t, outA.Routed["B1"], "B1", aea.Inputs{"techReview": "ok"})
	outB2 := f.step(t, outA.Routed["B2"], "B2", aea.Inputs{"budgetReview": "ok"})
	merged, err := document.Merge(outB1.Routed["C"], outB2.Routed["C"])
	if err != nil {
		t.Fatal(err)
	}
	outC := f.step(t, merged, "C", aea.Inputs{"summary": "fine"})
	return f.step(t, outC.Routed["D"], "D", aea.Inputs{"accept": accept})
}

func TestAdvancedModelFullRun(t *testing.T) {
	f := newFig9B(t)
	outD := f.runIteration(t, f.doc, "false")
	if outD.Completed || outD.Routed["A"] == nil {
		t.Fatalf("first pass should loop back: %v", outD.Next)
	}
	outD2 := f.runIteration(t, outD.Routed["A"], "true")
	if !outD2.Completed {
		t.Fatal("second pass should complete")
	}
	final := outD2.Doc
	// Each activity contributes an intermediate + a final CER: 10 each.
	if got := len(final.CERs()); got != 20 {
		t.Fatalf("total CERs = %d, want 20", got)
	}
	if got := len(final.FinalCERs()); got != 10 {
		t.Fatalf("final CERs = %d, want 10", got)
	}
	if n, err := final.VerifyAll(f.env.Registry); err != nil || n != 21 {
		t.Fatalf("VerifyAll = %d, %v", n, err)
	}
	// All final CERs are TFC-signed, carry timestamps, and timestamps are
	// monotone in document order.
	var prev time.Time
	for _, c := range final.FinalCERs() {
		if c.Signer() != "tfc@cloud" {
			t.Fatalf("final CER %s signed by %q", c.ID(), c.Signer())
		}
		ts, ok := c.Timestamp()
		if !ok {
			t.Fatalf("final CER %s has no timestamp", c.ID())
		}
		if ts.Before(prev) {
			t.Fatalf("timestamps not monotone at %s", c.ID())
		}
		prev = ts
	}
}

func TestForwardRecords(t *testing.T) {
	f := newFig9B(t)
	outD := f.runIteration(t, f.doc, "true")
	if !outD.Completed {
		t.Fatal("should complete")
	}
	recs := f.server.RecordsFor(f.doc.ProcessID())
	if len(recs) != 5 {
		t.Fatalf("records = %d, want 5", len(recs))
	}
	if recs[0].Activity != "A" || recs[4].Activity != "D" {
		t.Fatalf("record order: %v", recs)
	}
	if recs[4].Next[0] != wfdef.EndID {
		t.Fatalf("last record next = %v", recs[4].Next)
	}
	for _, r := range recs {
		if r.Size == 0 || r.Timestamp.IsZero() || r.Participant == "" {
			t.Fatalf("incomplete record %+v", r)
		}
	}
	if got := f.server.RecordsFor("nope"); len(got) != 0 {
		t.Fatal("records for unknown process")
	}
}

// TestOnRecordFailureFailsProcess: a forwarding-record persistence
// failure must fail the whole Process call — the contract is "journaled
// before the process response is acknowledged" — and disarm the replay
// guard so the client can retry once persistence recovers.
func TestOnRecordFailureFailsProcess(t *testing.T) {
	f := newFig9B(t)
	persistErr := errors.New("journal unavailable")
	f.server.OnRecord = func(ForwardRecord) error { return persistErr }

	interm, err := f.agents["A"].ExecuteToTFC(f.doc, "A", aea.Inputs{"request": "req"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.server.Process(interm); !errors.Is(err, persistErr) {
		t.Fatalf("Process with failing journal = %v, want wrapped persistErr", err)
	}
	if got := f.server.Records(); len(got) != 0 {
		t.Fatalf("unjournaled record appended to the in-memory log: %v", got)
	}

	// Persistence recovers: the same intermediate must be retryable (the
	// failed attempt must not have armed the replay guard) and journaled
	// exactly once.
	var journaled []ForwardRecord
	f.server.OnRecord = func(r ForwardRecord) error { journaled = append(journaled, r); return nil }
	if _, err := f.server.Process(interm); err != nil {
		t.Fatalf("retry after journal recovery: %v", err)
	}
	if len(journaled) != 1 || journaled[0].Activity != "A" {
		t.Fatalf("journaled records = %+v, want exactly the retried A record", journaled)
	}
	if len(f.server.Records()) != 1 {
		t.Fatalf("in-memory log holds %d records, want 1", len(f.server.Records()))
	}

	// And the successful retry must arm the guard.
	if _, err := f.server.Process(interm); !errors.Is(err, ErrReplay) {
		t.Fatalf("second retry = %v, want ErrReplay", err)
	}
}

func TestFig4ConcealedRouting(t *testing.T) {
	env := testenv.Fig4(0)
	def := wfdef.Fig4()
	p := wfdef.Fig4Participants
	server := New(env.KeyOf("tfc@cloud"), env.Registry, clock())
	newAgent := func(id string) *aea.AEA { return aea.New(env.KeyOf(id), env.Registry) }

	run := func(x string) (*Outcome, *document.Document) {
		doc, err := document.New(def, env.KeyOf("designer@p0"), testenv.ProcessID(), base)
		if err != nil {
			t.Fatal(err)
		}
		interm, err := newAgent(p.Peter).ExecuteToTFC(doc, "A1", aea.Inputs{"X": x})
		if err != nil {
			t.Fatal(err)
		}
		o1, err := server.Process(interm)
		if err != nil {
			t.Fatal(err)
		}
		interm, err = newAgent(p.Tony).ExecuteToTFC(o1.Routed["A2"], "A2", aea.Inputs{"Y": "secret-Y"})
		if err != nil {
			t.Fatal(err)
		}
		o2, err := server.Process(interm)
		if err != nil {
			t.Fatal(err)
		}
		interm, err = newAgent(p.Amy).ExecuteToTFC(o2.Routed["A3"], "A3", aea.Inputs{"reviewed": "true"})
		if err != nil {
			t.Fatal(err)
		}
		o3, err := server.Process(interm)
		if err != nil {
			t.Fatal(err)
		}
		return o3, o3.Doc
	}

	// X > 1000 routes to John (A4).
	o, doc := run("1500")
	if strings.Join(o.Next, ",") != "A4" {
		t.Fatalf("Next = %v, want A4", o.Next)
	}
	// Tony never saw X: his view of the final document hides it.
	spy := doc.Clone()
	if _, err := xmlenc.DecryptVisible(spy.Root, env.KeyOf(p.Tony)); err != nil {
		t.Fatal(err)
	}
	if _, visible := spy.Values()["X"]; visible {
		t.Fatal("X leaked to Tony")
	}
	// John can read Y (the TFC re-encrypted it per policy).
	johnView := doc.Clone()
	if _, err := xmlenc.DecryptVisible(johnView.Root, env.KeyOf(p.John)); err != nil {
		t.Fatal(err)
	}
	if johnView.Values()["Y"] != "secret-Y" {
		t.Fatalf("John cannot read Y: %v", johnView.Values())
	}
	// Amy (reader of X) can read it.
	amyView := doc.Clone()
	if _, err := xmlenc.DecryptVisible(amyView.Root, env.KeyOf(p.Amy)); err != nil {
		t.Fatal(err)
	}
	if amyView.Values()["X"] != "1500" {
		t.Fatalf("Amy cannot read X: %v", amyView.Values())
	}

	// X <= 1000 routes to Mary (A5).
	o, _ = run("10")
	if strings.Join(o.Next, ",") != "A5" {
		t.Fatalf("Next = %v, want A5", o.Next)
	}
}

func TestProcessErrors(t *testing.T) {
	f := newFig9B(t)

	// No pending intermediate CER.
	if _, err := f.server.Process(f.doc); !errors.Is(err, ErrNoPending) {
		t.Fatalf("fresh doc: %v", err)
	}

	interm, err := f.agents["A"].ExecuteToTFC(f.doc, "A", aea.Inputs{"request": "r"})
	if err != nil {
		t.Fatal(err)
	}

	// Wrong TFC server.
	f.env.MustRegister("tfc@other")
	other := New(f.env.KeyOf("tfc@other"), f.env.Registry, clock())
	if _, err := other.Process(interm); !errors.Is(err, ErrNotResponsible) {
		t.Fatalf("wrong server: %v", err)
	}

	// Tampered intermediate document.
	forged := interm.Clone()
	forged.Root.FindByID("res-it-A-0").SetAttr("X", "1")
	if _, err := f.server.Process(forged); err == nil {
		t.Fatal("tampered intermediate accepted")
	}

	// Success, then replay.
	if _, err := f.server.Process(interm); err != nil {
		t.Fatal(err)
	}
	if _, err := f.server.Process(interm); !errors.Is(err, ErrReplay) {
		t.Fatalf("replay: %v", err)
	}
}

func TestIntermediateParticipantMismatch(t *testing.T) {
	// An intermediate CER whose recorded participant is not the activity's
	// assigned executor is rejected even if signatures verify.
	f := newFig9B(t)
	// Build a definition-valid doc, then have the WRONG principal craft an
	// intermediate CER directly (bypassing the AEA's own checks).
	mallory := f.env.KeyOf(wfdef.Fig9Participants["B1"]) // legitimate key, wrong activity
	doc := f.doc.Clone()
	tfcKey, _ := f.env.Registry.PublicKey("tfc@cloud")
	payload := document.Field("request", "forged")
	enc, err := xmlenc.Encrypt(payload, "encit-A-0", xmlenc.Recipient{ID: "tfc@cloud", Key: tfcKey})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := doc.AppendCER(document.AppendSpec{
		ActivityID: "A", Iteration: 0, Kind: document.KindIntermediate,
		Participant:    mallory.Owner,
		ResultChildren: []*xmltree.Node{enc},
		PredSigIDs:     []string{document.DesignerSig},
		Signer:         mallory,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.server.Process(doc); err == nil {
		t.Fatal("intermediate from wrong participant accepted")
	}
}

func TestDefaultClock(t *testing.T) {
	f := newFig9B(t)
	s := New(f.env.KeyOf("tfc@cloud"), f.env.Registry, nil)
	if s.Clock == nil {
		t.Fatal("nil clock not defaulted")
	}
	before := time.Now()
	if got := s.Clock(); got.Before(before.Add(-time.Minute)) {
		t.Fatal("default clock is not wall time")
	}
}

// TestUndeclaredIntermediateRefused: A's participant encrypts to the TFC
// a result that also sets accept, a variable only D declares. The server
// refuses it before policy-encrypting anything.
func TestUndeclaredIntermediateRefused(t *testing.T) {
	f := newFig9B(t)
	alice := f.env.KeyOf(wfdef.Fig9Participants["A"])
	doc := f.doc.Clone()
	tfcKey, _ := f.env.Registry.PublicKey("tfc@cloud")
	plain := xmltree.NewElement("PlainResult")
	plain.AppendChild(document.Field("accept", "true"))
	plain.AppendChild(document.Field("request", "r"))
	enc, err := xmlenc.Encrypt(plain, "encit-A-0", xmlenc.Recipient{ID: "tfc@cloud", Key: tfcKey})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := doc.AppendCER(document.AppendSpec{
		ActivityID: "A", Kind: document.KindIntermediate, Participant: alice.Owner,
		ResultChildren: []*xmltree.Node{enc}, PredSigIDs: []string{document.DesignerSig}, Signer: alice,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.server.Process(doc); !errors.Is(err, document.ErrUndeclaredVariable) {
		t.Fatalf("err = %v, want ErrUndeclaredVariable", err)
	}
}

// TestRoutesOnLookedUpVariable: Q's XOR split reads amount, which P
// produced two hops earlier. The server decrypts P's amount element, and
// nothing else beyond Q's own payload, to route.
func TestRoutesOnLookedUpVariable(t *testing.T) {
	env := testenv.New(0)
	env.MustRegister("designer@x", "p@x", "q@x", "r@x", "tfc@x")
	def := wfdef.NewBuilder("lookup", "designer@x").
		Activity("P", "", "p@x").Response("amount", "number", true).Response("memo", "string", false).Done().
		Activity("Q", "", "q@x").Response("note", "string", true).Split(wfdef.SplitXOR).Done().
		Activity("R", "", "r@x").Response("ok", "bool", true).Done().
		Start("P").Edge("P", "Q").
		EdgeIf("Q", "R", "amount > 100").EndIf("Q", "amount <= 100").
		End("R").
		DefaultReaders("p@x", "q@x", "r@x", wfdef.TFCReader).
		TFC("tfc@x").
		MustBuild()
	server := New(env.KeyOf("tfc@x"), env.Registry, clock())
	for amount, want := range map[string]string{"500": "R", "50": wfdef.EndID} {
		doc, err := document.New(def, env.KeyOf("designer@x"), testenv.ProcessID(), base)
		if err != nil {
			t.Fatal(err)
		}
		interm, err := aea.New(env.KeyOf("p@x"), env.Registry).ExecuteToTFC(doc, "P", aea.Inputs{"amount": amount, "memo": "m"})
		if err != nil {
			t.Fatal(err)
		}
		outP, err := server.Process(interm)
		if err != nil {
			t.Fatal(err)
		}
		interm, err = aea.New(env.KeyOf("q@x"), env.Registry).ExecuteToTFC(outP.Routed["Q"], "Q", aea.Inputs{"note": "n"})
		if err != nil {
			t.Fatal(err)
		}
		before := unwraps.Value()
		outQ, err := server.Process(interm)
		if err != nil {
			t.Fatal(err)
		}
		if len(outQ.Next) != 1 || outQ.Next[0] != want {
			t.Fatalf("amount %s: Q routed to %v, want %s", amount, outQ.Next, want)
		}
		if n := unwraps.Value() - before; n != 2 {
			t.Fatalf("amount %s: %d unwraps routing Q, want 2 (Q's payload and P's amount)", amount, n)
		}
	}
}

var unwraps = telemetry.Default().Counter("xmlenc_unwraps_total")
