package aea

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"dra4wfms/internal/document"
	"dra4wfms/internal/dsig"
	"dra4wfms/internal/pki"
	"dra4wfms/internal/secpol"
	"dra4wfms/internal/testenv"
	"dra4wfms/internal/wfdef"
	"dra4wfms/internal/xmlenc"
	"dra4wfms/internal/xmltree"
)

var now = time.Date(2026, 7, 6, 10, 0, 0, 0, time.UTC)

type fixture struct {
	env    *testenv.Env
	def    *wfdef.Definition
	doc    *document.Document
	agents map[string]*AEA
	// onHop, when set, sees every hop after it completed: the input
	// document, the inputs, the session its agent opened from it and the
	// outcome.
	onHop func(activity string, in *document.Document, inputs Inputs, s *Session, out *Outcome)
}

func newFixture(t testing.TB) *fixture { return newFixtureBits(t, 0) }

// benchBits is the key size of the deep-cascade benchmarks: the paper's,
// and the one the system benchmark's daemons run with.
const benchBits = 2048

// newFixtureBits is newFixture with RSA keys of the given size (0: the
// tests' 1024).
func newFixtureBits(t testing.TB, bits int) *fixture {
	t.Helper()
	env := testenv.Fig9(bits)
	def := wfdef.Fig9A()
	doc, err := document.New(def, env.KeyOf("designer@acme"), testenv.ProcessID(), now)
	if err != nil {
		t.Fatal(err)
	}
	agents := map[string]*AEA{}
	for act, p := range wfdef.Fig9Participants {
		agents[act] = New(env.KeyOf(p), env.Registry)
	}
	return &fixture{env: env, def: def, doc: doc, agents: agents}
}

// hop opens and completes one activity with its agent.
func (f *fixture) hop(t testing.TB, doc *document.Document, activity string, inputs Inputs) *Outcome {
	t.Helper()
	s, err := f.agents[activity].Open(doc, activity)
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Complete(inputs, now)
	if err != nil {
		t.Fatal(err)
	}
	if f.onHop != nil {
		f.onHop(activity, doc, inputs, s, out)
	}
	return out
}

// runIteration executes one full pass A → (B1 ∥ B2) → C → D of Figure 9A,
// returning D's outcome.
func (f *fixture) runIteration(t testing.TB, doc *document.Document, accept bool) *Outcome {
	t.Helper()
	outA := f.hop(t, doc, "A", Inputs{"request": "buy 10 servers", "attachment": "specs.pdf"})
	outB1 := f.hop(t, outA.Doc, "B1", Inputs{"techReview": "sound"})
	outB2 := f.hop(t, outA.Doc, "B2", Inputs{"budgetReview": "within budget"})
	merged, err := document.Merge(outB1.Doc, outB2.Doc)
	if err != nil {
		t.Fatal(err)
	}
	outC := f.hop(t, merged, "C", Inputs{"summary": "all reviews positive"})
	acceptStr := "false"
	if accept {
		acceptStr = "true"
	}
	return f.hop(t, outC.Doc, "D", Inputs{"accept": acceptStr})
}

// run drives a whole Figure 9A instance in which D rejects `rejects`
// times before accepting: 5·(rejects+1) hops.
func (f *fixture) run(t testing.TB, rejects int) *Outcome {
	t.Helper()
	doc := f.doc
	for i := 0; ; i++ {
		out := f.runIteration(t, doc, i == rejects)
		if i == rejects {
			return out
		}
		doc = out.Doc
	}
}

func TestBasicModelFullRun(t *testing.T) {
	f := newFixture(t)
	outD := f.runIteration(t, f.doc, false)
	if outD.Completed || !slices.Equal(outD.Next, []string{"A"}) {
		t.Fatalf("first pass should loop back to A: %+v", outD.Next)
	}
	outD2 := f.runIteration(t, outD.Doc, true)
	if !outD2.Completed {
		t.Fatal("second pass should complete the process")
	}
	final := outD2.Doc
	if got := len(final.FinalCERs()); got != 10 {
		t.Fatalf("final CERs = %d, want 10", got)
	}
	if n, err := final.VerifyAll(f.env.Registry); err != nil || n != 11 {
		t.Fatalf("VerifyAll = %d, %v", n, err)
	}
	// Everyone is a default reader, so D's decision is decryptable by B1's
	// participant.
	view := final.Clone()
	if _, err := xmlenc.DecryptVisible(view.Root, f.env.KeyOf(wfdef.Fig9Participants["B1"])); err != nil {
		t.Fatal(err)
	}
	if view.Values()["accept"] != "true" {
		t.Fatalf("accept not visible: %v", view.Values())
	}
}

func TestAlphaGrowsBetaObservable(t *testing.T) {
	// The signature-verification count (α driver) grows along the chain.
	f := newFixture(t)
	s, err := f.agents["A"].Open(f.doc, "A")
	if err != nil {
		t.Fatal(err)
	}
	if s.VerifiedSignatures != 1 {
		t.Fatalf("initial VerifiedSignatures = %d", s.VerifiedSignatures)
	}
	out, err := s.Complete(Inputs{"request": "r"}, now)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := f.agents["B1"].Open(out.Doc, "B1")
	if err != nil {
		t.Fatal(err)
	}
	if s2.VerifiedSignatures != 2 {
		t.Fatalf("B1 VerifiedSignatures = %d, want 2", s2.VerifiedSignatures)
	}
}

func TestSessionAccessorsAndRequests(t *testing.T) {
	f := newFixture(t)
	outA, _ := f.agents["A"].Execute(f.doc, "A", Inputs{"request": "the request"}, now)
	s, err := f.agents["B1"].Open(outA.Doc, "B1")
	if err != nil {
		t.Fatal(err)
	}
	if s.Activity().ID != "B1" || s.Iteration() != 0 || s.Definition().Name != "fig9-review" {
		t.Fatal("session accessors wrong")
	}
	reqs := s.Requests()
	if reqs["request"] != "the request" {
		t.Fatalf("Requests = %v", reqs)
	}
	if s.DecryptedElements != 1 {
		t.Fatalf("DecryptedElements = %d, want 1 (the one requested variable)", s.DecryptedElements)
	}
}

func TestWrongParticipantRejected(t *testing.T) {
	f := newFixture(t)
	if _, err := f.agents["B1"].Open(f.doc, "A"); !errors.Is(err, ErrNotParticipant) {
		t.Fatalf("err = %v, want ErrNotParticipant", err)
	}
}

func TestRoleEnforced(t *testing.T) {
	env := testenv.New(0)
	env.MustRegister("designer@x", "worker@x")
	def := wfdef.NewBuilder("roled", "designer@x").
		Activity("A", "", "worker@x").Role("approver").Response("v", "string", false).Done().
		Start("A").End("A").
		DefaultReaders("worker@x").
		MustBuild()
	doc, err := document.New(def, env.KeyOf("designer@x"), testenv.ProcessID(), now)
	if err != nil {
		t.Fatal(err)
	}
	agent := New(env.KeyOf("worker@x"), env.Registry)
	if _, err := agent.Open(doc, "A"); !errors.Is(err, ErrNotParticipant) {
		t.Fatalf("missing role accepted: %v", err)
	}
	// Re-register with the role.
	cert, _ := env.CA.Issue(pki.Identity{ID: "worker@x", Roles: []string{"approver"}},
		env.KeyOf("worker@x").Public(), env.Now, time.Hour)
	if err := env.Registry.Register(cert, env.Now); err != nil {
		t.Fatal(err)
	}
	if _, err := agent.Open(doc, "A"); err != nil {
		t.Fatalf("role holder rejected: %v", err)
	}
}

func TestNotEnabledRejected(t *testing.T) {
	f := newFixture(t)
	// D is not enabled on a fresh document.
	if _, err := f.agents["D"].Open(f.doc, "D"); !errors.Is(err, ErrNotEnabled) {
		t.Fatalf("err = %v, want ErrNotEnabled", err)
	}
	// C requires both branches (AND-join).
	outA, _ := f.agents["A"].Execute(f.doc, "A", Inputs{"request": "r"}, now)
	outB1, _ := f.agents["B1"].Execute(outA.Doc, "B1", Inputs{"techReview": "x"}, now)
	if _, err := f.agents["C"].Open(outB1.Doc, "C"); !errors.Is(err, ErrNotEnabled) {
		t.Fatalf("AND-join with one branch: %v", err)
	}
	// Unknown activity.
	if _, err := f.agents["A"].Open(f.doc, "ZZ"); err == nil {
		t.Fatal("unknown activity accepted")
	}
}

func TestCompletedProcessRejectsFurtherWork(t *testing.T) {
	f := newFixture(t)
	outD := f.runIteration(t, f.doc, true)
	if !outD.Completed {
		t.Fatal("process should be complete")
	}
	if _, err := f.agents["A"].Open(outD.Doc, "A"); !errors.Is(err, ErrNotEnabled) {
		t.Fatalf("execution after completion: %v", err)
	}
}

func TestReplayRejected(t *testing.T) {
	f := newFixture(t)
	if _, err := f.agents["A"].Execute(f.doc, "A", Inputs{"request": "r"}, now); err != nil {
		t.Fatal(err)
	}
	// Same agent receives the same (pristine) document again.
	if _, err := f.agents["A"].Open(f.doc, "A"); !errors.Is(err, ErrReplay) {
		t.Fatalf("replay accepted: %v", err)
	}
}

func TestTamperedDocumentRejected(t *testing.T) {
	f := newFixture(t)
	outA, _ := f.agents["A"].Execute(f.doc, "A", Inputs{"request": "legit"}, now)
	forged := outA.Doc.Clone()
	forged.Root.FindByID("res-A-0").SetText("forged result")
	if _, err := f.agents["B1"].Open(forged, "B1"); err == nil {
		t.Fatal("tampered document opened")
	}
}

func TestInputValidation(t *testing.T) {
	f := newFixture(t)
	s, err := f.agents["A"].Open(f.doc, "A")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Complete(Inputs{"bogus": "x", "request": "r"}, now); !errors.Is(err, ErrUnknownInput) {
		t.Fatalf("unknown input: %v", err)
	}
	if _, err := s.Complete(Inputs{}, now); !errors.Is(err, ErrMissingInput) {
		t.Fatalf("missing required input: %v", err)
	}
	// Valid completion still possible on the same session afterwards.
	if _, err := s.Complete(Inputs{"request": "r"}, now); err != nil {
		t.Fatalf("valid completion rejected: %v", err)
	}
}

func TestConfidentialityAcrossParticipants(t *testing.T) {
	// Restrict techReview to C's participant only; B2's participant must
	// not see it, and the process still completes.
	env := testenv.Fig9(0)
	def := wfdef.Fig9A()
	def.Policy.Rules = append(def.Policy.Rules, wfdef.ReadRule{
		Variable: "techReview",
		Readers:  []string{wfdef.Fig9Participants["C"]},
	})
	doc, err := document.New(def, env.KeyOf("designer@acme"), testenv.ProcessID(), now)
	if err != nil {
		t.Fatal(err)
	}
	agents := map[string]*AEA{}
	for act, p := range wfdef.Fig9Participants {
		agents[act] = New(env.KeyOf(p), env.Registry)
	}
	outA, _ := agents["A"].Execute(doc, "A", Inputs{"request": "r"}, now)
	outB1, _ := agents["B1"].Execute(outA.Doc, "B1", Inputs{"techReview": "secret assessment"}, now)
	outB2, _ := agents["B2"].Execute(outA.Doc, "B2", Inputs{"budgetReview": "ok"}, now)
	merged, _ := document.Merge(outB1.Doc, outB2.Doc)

	// B2's participant cannot see techReview even holding the whole doc.
	spy := merged.Clone()
	if _, err := xmlenc.DecryptVisible(spy.Root, env.KeyOf(wfdef.Fig9Participants["B2"])); err != nil {
		t.Fatal(err)
	}
	if _, visible := spy.Values()["techReview"]; visible {
		t.Fatal("techReview leaked to B2's participant")
	}

	// C's participant does see it via Requests.
	sC, err := agents["C"].Open(merged, "C")
	if err != nil {
		t.Fatal(err)
	}
	if sC.Requests()["techReview"] != "secret assessment" {
		t.Fatalf("C cannot read techReview: %v", sC.Requests())
	}
}

func TestConcealedConditionBlocksBasicRouting(t *testing.T) {
	// If D's participant cannot read the condition variable, the XOR-split
	// cannot be routed under the basic model (the Figure 4 problem).
	env := testenv.Fig9(0)
	def := wfdef.Fig9A()
	// The accept variable is produced by D but... conditions can also use
	// summary; make the loop condition depend on a variable D cannot read.
	def.Policy.Rules = append(def.Policy.Rules, wfdef.ReadRule{
		Variable: "summary",
		Readers:  []string{wfdef.Fig9Participants["A"]},
	})
	for i := range def.Transitions {
		switch def.Transitions[i].Condition {
		case "accept == true":
			def.Transitions[i].Condition = `accept == true && summary != ""`
		case "accept != true":
			def.Transitions[i].Condition = ""
		}
	}
	doc, err := document.New(def, env.KeyOf("designer@acme"), testenv.ProcessID(), now)
	if err != nil {
		t.Fatal(err)
	}
	agents := map[string]*AEA{}
	for act, p := range wfdef.Fig9Participants {
		agents[act] = New(env.KeyOf(p), env.Registry)
	}
	outA, _ := agents["A"].Execute(doc, "A", Inputs{"request": "r"}, now)
	outB1, _ := agents["B1"].Execute(outA.Doc, "B1", Inputs{"techReview": "t"}, now)
	outB2, _ := agents["B2"].Execute(outA.Doc, "B2", Inputs{"budgetReview": "b"}, now)
	merged, _ := document.Merge(outB1.Doc, outB2.Doc)
	outC, err := agents["C"].Execute(merged, "C", Inputs{"summary": "s"}, now)
	if err != nil {
		t.Fatal(err)
	}
	_, err = agents["D"].Execute(outC.Doc, "D", Inputs{"accept": "true"}, now)
	if !errors.Is(err, ErrConcealed) {
		t.Fatalf("err = %v, want ErrConcealed", err)
	}
}

func TestConcealFlowPolicyForcesAdvancedModel(t *testing.T) {
	env := testenv.Fig4(0)
	def := wfdef.Fig4()
	doc, err := document.New(def, env.KeyOf("designer@p0"), testenv.ProcessID(), now)
	if err != nil {
		t.Fatal(err)
	}
	peter := New(env.KeyOf(wfdef.Fig4Participants.Peter), env.Registry)
	s, err := peter.Open(doc, "A1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Complete(Inputs{"X": "1500"}, now); !errors.Is(err, ErrAdvancedRequired) {
		t.Fatalf("basic completion under concealed flow: %v", err)
	}
	// The advanced path works and yields an intermediate CER.
	out, err := s.CompleteToTFC(Inputs{"X": "1500"})
	if err != nil {
		t.Fatal(err)
	}
	cers := out.CERs()
	if len(cers) != 1 || cers[0].Kind() != document.KindIntermediate {
		t.Fatalf("CERs after CompleteToTFC = %v", cers)
	}
	if n, err := out.VerifyAll(env.Registry); err != nil || n != 2 {
		t.Fatalf("VerifyAll = %d, %v", n, err)
	}
	// Only the TFC can open the intermediate payload.
	payload := cers[0].Result().ChildElements()[0]
	if got := strings.Join(xmlenc.Recipients(payload), ","); got != "tfc@cloud" {
		t.Fatalf("intermediate recipients = %q", got)
	}
}

func TestCompleteToTFCRequiresTFC(t *testing.T) {
	f := newFixture(t) // Fig9A has no TFC
	s, err := f.agents["A"].Open(f.doc, "A")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CompleteToTFC(Inputs{"request": "r"}); err == nil {
		t.Fatal("CompleteToTFC without TFC succeeded")
	}
}

func TestExecuteToTFCConvenience(t *testing.T) {
	env := testenv.Fig4(0)
	def := wfdef.Fig4()
	doc, _ := document.New(def, env.KeyOf("designer@p0"), testenv.ProcessID(), now)
	peter := New(env.KeyOf(wfdef.Fig4Participants.Peter), env.Registry)
	out, err := peter.ExecuteToTFC(doc, "A1", Inputs{"X": "10"})
	if err != nil || len(out.CERs()) != 1 {
		t.Fatalf("ExecuteToTFC: %v", err)
	}
}

// TestEd25519AgentsInterop runs the full Figure 9A workflow with every AEA
// signing under the Ed25519 suite while the designer signature stays RSA:
// suites are selected per signature by the recorded algorithm, so a mixed
// cascade verifies end to end against the same registry.
func TestEd25519AgentsInterop(t *testing.T) {
	f := newFixture(t)
	for _, a := range f.agents {
		a.Suite, _ = dsig.SuiteFor(dsig.SignatureAlgEd25519)
	}
	outD := f.runIteration(t, f.doc, true)
	if !outD.Completed {
		t.Fatal("ed25519-signed pass should complete the process")
	}
	if n, err := outD.Doc.VerifyAll(f.env.Registry); err != nil || n != 6 {
		t.Fatalf("VerifyAll = %d, %v", n, err)
	}
	for _, cer := range outD.Doc.FinalCERs() {
		alg := cer.Signature().Child("SignedInfo").Child("SignatureMethod").AttrDefault("Algorithm", "")
		if alg != dsig.SignatureAlgEd25519 {
			t.Fatalf("CER signature algorithm = %q, want %s", alg, dsig.SignatureAlgEd25519)
		}
	}
}

// TestUndeclaredResultRefused: A leaves the optional attachment out, and
// B1's participant signs a CER that also sets it, a variable only A
// declares. Whether the forged value travels under its own label, in
// plaintext, or under B1's techReview label, C's agent refuses the
// document instead of showing the value to C and, later, to D.
func TestUndeclaredResultRefused(t *testing.T) {
	f := newFixture(t)
	reg := f.env.Registry
	encrypted, err := secpol.EncryptFields(nil, "", f.def, reg, "B1", 0, map[string]string{"techReview": "sound", "attachment": "forged-by-B1"})
	if err != nil {
		t.Fatal(err)
	}
	review, err := secpol.EncryptFields(nil, "", f.def, reg, "B1", 0, map[string]string{"techReview": "sound"})
	if err != nil {
		t.Fatal(err)
	}
	readers, err := secpol.Recipients(f.def, reg, "techReview")
	if err != nil {
		t.Fatal(err)
	}
	mislabelled, err := xmlenc.Encrypt(document.Field("attachment", "forged-by-B1"), "encf-B1-0-0", readers...)
	if err != nil {
		t.Fatal(err)
	}
	mislabelled.SetAttr("Variable", "techReview")
	outA, err := f.agents["A"].Execute(f.doc, "A", Inputs{"request": "r"}, now)
	if err != nil {
		t.Fatal(err)
	}
	outB2, err := f.agents["B2"].Execute(outA.Doc, "B2", Inputs{"budgetReview": "ok"}, now)
	if err != nil {
		t.Fatal(err)
	}
	for name, fields := range map[string][]*xmltree.Node{
		"labelled":    encrypted,
		"plaintext":   append(review, document.Field("attachment", "forged-by-B1")),
		"mislabelled": {mislabelled},
	} {
		t.Run(name, func(t *testing.T) {
			forged := outA.Doc.Clone()
			preds, err := document.PredecessorSignatures(f.def, forged, "B1")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := forged.AppendCER(document.AppendSpec{
				ActivityID: "B1", Kind: document.KindFinal, Participant: wfdef.Fig9Participants["B1"],
				ResultChildren: fields, Next: []string{"C"}, PredSigIDs: preds, Signer: f.agents["B1"].Keys,
			}); err != nil {
				t.Fatal(err)
			}
			merged, err := document.Merge(forged, outB2.Doc)
			if err != nil {
				t.Fatal(err)
			}
			if n, err := merged.VerifyAll(reg); err != nil {
				t.Fatalf("the forged CER is validly signed, yet VerifyAll = %d, %v", n, err)
			}
			s, err := New(f.env.KeyOf(wfdef.Fig9Participants["C"]), reg).Open(merged, "C")
			if !errors.Is(err, document.ErrUndeclaredVariable) {
				t.Fatalf("C opened B1's result setting attachment: err = %v, requests %v", err, requestsOf(s))
			}
		})
	}
}

func requestsOf(s *Session) map[string]string {
	if s == nil {
		return nil
	}
	return s.Requests()
}
