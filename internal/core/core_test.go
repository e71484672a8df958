package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"dra4wfms/internal/aea"
	"dra4wfms/internal/testenv"
	"dra4wfms/internal/wfdef"
)

// newTestSystem builds a System with small keys and cached test key pairs
// for the Figure 9 / Figure 4 principals.
func newTestSystem(t *testing.T) *System {
	t.Helper()
	tick := time.Date(2026, 7, 6, 15, 0, 0, 0, time.UTC)
	sys, err := NewSystem(Config{
		KeyBits: 1024,
		Portals: 2,
		Clock: func() time.Time {
			tick = tick.Add(time.Second)
			return tick
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	env := testenv.New(1024)
	ids := []string{"designer@acme", "designer@p0", "tfc@cloud"}
	for _, p := range wfdef.Fig9Participants {
		ids = append(ids, p)
	}
	p4 := wfdef.Fig4Participants
	ids = append(ids, p4.Peter, p4.Tony, p4.Amy, p4.John, p4.Mary)
	for _, id := range ids {
		if err := sys.EnrollWithKeys(env.KeyOf(id)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.EnrollTFC("tfc@cloud"); err != nil {
		t.Fatal(err)
	}
	return sys
}

func fig9Responders(r *Runner, accepts []string) {
	i := 0
	r.RespondValues("A", aea.Inputs{"request": "buy"}).
		RespondValues("B1", aea.Inputs{"techReview": "ok"}).
		RespondValues("B2", aea.Inputs{"budgetReview": "ok"}).
		RespondValues("C", aea.Inputs{"summary": "fine"}).
		Respond("D", func(s *aea.Session) (aea.Inputs, error) {
			v := accepts[i%len(accepts)]
			i++
			return aea.Inputs{"accept": v}, nil
		})
}

func TestRunnerBasicModelWithLoop(t *testing.T) {
	sys := newTestSystem(t)
	designer, _ := sys.Keys("designer@acme")
	doc, notes, err := sys.StartProcess(wfdef.Fig9A(), designer)
	if err != nil {
		t.Fatal(err)
	}
	if len(notes) != 1 || notes[0].Activity != "A" {
		t.Fatalf("initial notes = %v", notes)
	}
	runner := sys.NewRunner()
	fig9Responders(runner, []string{"false", "true"}) // one loop, then accept

	final, err := runner.Run(doc.ProcessID())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(final.FinalCERs()); got != 10 {
		t.Fatalf("final CERs = %d, want 10 (two passes)", got)
	}
	if n, err := final.VerifyAll(sys.Registry); err != nil || n != 11 {
		t.Fatalf("VerifyAll = %d, %v", n, err)
	}
	state, _ := sys.Portal(1).State(doc.ProcessID())
	if state != "completed" {
		t.Fatalf("state = %s", state)
	}
	// Monitoring sees the completed instance.
	st, err := sys.Monitor.InstanceStatus(doc.ProcessID())
	if err != nil || st.State != "completed" || len(st.Steps) != 10 {
		t.Fatalf("monitor status = %+v, %v", st, err)
	}
}

func TestRunnerAdvancedModel(t *testing.T) {
	sys := newTestSystem(t)
	designer, _ := sys.Keys("designer@acme")
	doc, _, err := sys.StartProcess(wfdef.Fig9B(), designer)
	if err != nil {
		t.Fatal(err)
	}
	runner := sys.NewRunner()
	fig9Responders(runner, []string{"true"})
	final, err := runner.Run(doc.ProcessID())
	if err != nil {
		t.Fatal(err)
	}
	// Advanced model: intermediate + final CER per activity.
	if got := len(final.CERs()); got != 10 {
		t.Fatalf("CERs = %d, want 10 (5 intermediate + 5 final)", got)
	}
	for _, c := range final.FinalCERs() {
		if _, ok := c.Timestamp(); !ok {
			t.Fatalf("final CER %s lacks a TFC timestamp", c.ID())
		}
	}
	// The TFC recorded all five forwards.
	srv, _ := sys.TFC("tfc@cloud")
	if got := len(srv.RecordsFor(doc.ProcessID())); got != 5 {
		t.Fatalf("TFC records = %d", got)
	}
	// Monitoring can compute activity durations from the timestamps.
	durs, err := sys.Monitor.ActivityDurations(doc.ProcessID())
	if err != nil || len(durs) != 5 {
		t.Fatalf("durations = %v, %v", durs, err)
	}
}

func TestRunnerFig4ConcealedFlow(t *testing.T) {
	sys := newTestSystem(t)
	designer, _ := sys.Keys("designer@p0")
	doc, _, err := sys.StartProcess(wfdef.Fig4(), designer)
	if err != nil {
		t.Fatal(err)
	}
	p := wfdef.Fig4Participants
	runner := sys.NewRunner()
	runner.RespondValues("A1", aea.Inputs{"X": "1500"}).
		RespondValues("A2", aea.Inputs{"Y": "classified"}).
		RespondValues("A3", aea.Inputs{"reviewed": "true"}).
		RespondValues("A4", aea.Inputs{"highResult": "handled-high"}).
		RespondValues("A5", aea.Inputs{"lowResult": "handled-low"})

	final, err := runner.Run(doc.ProcessID())
	if err != nil {
		t.Fatal(err)
	}
	// X > 1000: A4 (John) executed, A5 (Mary) did not.
	if _, ok := final.FindCER("final", "A4", 0); !ok {
		t.Fatal("A4 did not run")
	}
	if _, ok := final.FindCER("final", "A5", 0); ok {
		t.Fatal("A5 ran despite X > 1000")
	}
	_ = p
}

func TestRunnerErrors(t *testing.T) {
	sys := newTestSystem(t)
	designer, _ := sys.Keys("designer@acme")
	doc, _, _ := sys.StartProcess(wfdef.Fig9A(), designer)

	// Missing responder.
	runner := sys.NewRunner()
	if _, err := runner.Run(doc.ProcessID()); !errors.Is(err, ErrNoResponder) {
		t.Fatalf("missing responder: %v", err)
	}

	// Responder error propagates.
	runner2 := sys.NewRunner()
	boom := errors.New("boom")
	runner2.Respond("A", func(*aea.Session) (aea.Inputs, error) { return nil, boom })
	if _, err := runner2.Run(doc.ProcessID()); !errors.Is(err, boom) {
		t.Fatalf("responder error: %v", err)
	}

	// Unknown process.
	if _, err := sys.NewRunner().Run("ghost"); err == nil {
		t.Fatal("ghost process ran")
	}
}

func TestRunnerStepLimit(t *testing.T) {
	sys := newTestSystem(t)
	designer, _ := sys.Keys("designer@acme")
	doc, _, _ := sys.StartProcess(wfdef.Fig9A(), designer)
	runner := sys.NewRunner()
	fig9Responders(runner, []string{"false"}) // never accepts: infinite loop
	runner.MaxSteps = 23
	_, err := runner.Run(doc.ProcessID())
	if err == nil || !strings.Contains(err.Error(), "exceeded 23 steps") {
		t.Fatalf("err = %v", err)
	}
}

func TestEnrollmentAndAccessors(t *testing.T) {
	sys := newTestSystem(t)
	kp1, err := sys.Enroll("new@org", "admin")
	if err != nil {
		t.Fatal(err)
	}
	kp2, _ := sys.Enroll("new@org")
	if kp1 != kp2 {
		t.Fatal("re-enrollment generated new keys")
	}
	id, err := sys.Registry.Identity("new@org")
	if err != nil || id.Org != "org" || !id.HasRole("admin") {
		t.Fatalf("identity = %+v, %v", id, err)
	}
	if _, err := sys.Keys("ghost@x"); err == nil {
		t.Fatal("keys for unenrolled principal")
	}
	if _, err := sys.TFC("ghost@x"); err == nil {
		t.Fatal("TFC for unenrolled principal")
	}
	if _, err := sys.NewAEA("ghost@x"); err == nil {
		t.Fatal("AEA for unenrolled principal")
	}
	if a, err := sys.NewAEA("new@org"); err != nil || a == nil {
		t.Fatalf("NewAEA: %v", err)
	}
	srv1, _ := sys.EnrollTFC("tfc2@cloud")
	srv2, _ := sys.EnrollTFC("tfc2@cloud")
	if srv1 != srv2 {
		t.Fatal("EnrollTFC not idempotent")
	}
	if sys.Portal(0) == nil || sys.Portal(5) == nil {
		t.Fatal("portal accessor")
	}
	if sys.Now().IsZero() {
		t.Fatal("zero clock")
	}
}

func TestNewProcessIDUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := NewProcessID()
		if seen[id] {
			t.Fatal("duplicate process id")
		}
		seen[id] = true
		if !strings.HasPrefix(id, "proc-") {
			t.Fatalf("id = %q", id)
		}
	}
}

func TestSystemDefaults(t *testing.T) {
	sys, err := NewSystem(Config{KeyBits: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Portals) != 2 {
		t.Fatalf("defaults: portals=%d", len(sys.Portals))
	}
}

func TestRoleBasedActivityEndToEnd(t *testing.T) {
	sys := newTestSystem(t)
	// Any "approver" may claim the approval activity; two candidates exist.
	env := testenv.New(1024)
	if err := sys.EnrollWithKeys(env.KeyOf("mgr1@acme"), "approver"); err != nil {
		t.Fatal(err)
	}
	if err := sys.EnrollWithKeys(env.KeyOf("mgr2@acme"), "approver"); err != nil {
		t.Fatal(err)
	}
	designer, _ := sys.Keys("designer@acme")
	def := wfdef.NewBuilder("roled-approval", "designer@acme").
		Activity("file", "File request", wfdef.Fig9Participants["A"]).
		Response("req", "string", true).Done().
		Activity("approve", "Approve", "").Role("approver").
		Request("req").Response("ok", "bool", true).Done().
		Start("file").Edge("file", "approve").End("approve").
		DefaultReaders(wfdef.Fig9Participants["A"], "mgr1@acme", "mgr2@acme").
		MustBuild()

	doc, _, err := sys.StartProcess(def, designer)
	if err != nil {
		t.Fatal(err)
	}
	// The role-based worklist shows the item to both managers.
	pA, _ := sys.Keys(wfdef.Fig9Participants["A"])
	_ = pA
	runnerA := sys.NewRunner()
	runnerA.RespondValues("file", aea.Inputs{"req": "please"})
	runnerA.RespondValues("approve", aea.Inputs{"ok": "true"})
	runnerA.ActAs("approver", "mgr2@acme")

	// After the first step, both role holders see the work item.
	if err := func() error {
		// run only the first activity by temporarily limiting steps
		r2 := sys.NewRunner()
		r2.RespondValues("file", aea.Inputs{"req": "please"})
		r2.MaxSteps = 1
		_, err := r2.Run(doc.ProcessID())
		if err == nil {
			return errors.New("expected step-limit error")
		}
		return nil
	}(); err != nil {
		t.Fatal(err)
	}
	for _, mgr := range []string{"mgr1@acme", "mgr2@acme"} {
		items, err := sys.Portal(0).Worklist(mgr)
		if err != nil {
			t.Fatal(err)
		}
		if len(items) != 1 || items[0].Activity != "approve" {
			t.Fatalf("%s worklist = %v", mgr, items)
		}
	}
	// A non-holder does not see it.
	items, err := sys.Portal(0).Worklist(wfdef.Fig9Participants["B1"])
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 0 {
		t.Fatalf("non-holder worklist = %v", items)
	}

	final, err := runnerA.Run(doc.ProcessID())
	if err != nil {
		t.Fatal(err)
	}
	cer, ok := final.FindCER("final", "approve", 0)
	if !ok || cer.Participant() != "mgr2@acme" || cer.Signer() != "mgr2@acme" {
		t.Fatalf("approve CER: %v %s/%s", ok, cer.Participant(), cer.Signer())
	}
	if n, err := final.VerifyAll(sys.Registry); err != nil || n != 3 {
		t.Fatalf("VerifyAll = %d, %v", n, err)
	}
}

func TestRoleBasedRejectsNonHolder(t *testing.T) {
	sys := newTestSystem(t)
	env := testenv.New(1024)
	if err := sys.EnrollWithKeys(env.KeyOf("pleb@acme")); err != nil { // no role
		t.Fatal(err)
	}
	designer, _ := sys.Keys("designer@acme")
	def := wfdef.NewBuilder("roled2", "designer@acme").
		Activity("approve", "", "").Role("approver").Response("ok", "bool", true).Done().
		Start("approve").End("approve").
		DefaultReaders("pleb@acme").
		MustBuild()
	doc, _, err := sys.StartProcess(def, designer)
	if err != nil {
		t.Fatal(err)
	}
	runner := sys.NewRunner()
	runner.RespondValues("approve", aea.Inputs{"ok": "true"})
	runner.ActAs("approver", "pleb@acme")
	if _, err := runner.Run(doc.ProcessID()); !errors.Is(err, aea.ErrNotParticipant) {
		t.Fatalf("non-holder executed role activity: %v", err)
	}
	// Without ActAs at all the runner reports a clear error.
	runner2 := sys.NewRunner()
	runner2.RespondValues("approve", aea.Inputs{"ok": "true"})
	if _, err := runner2.Run(doc.ProcessID()); err == nil || !strings.Contains(err.Error(), "ActAs") {
		t.Fatalf("missing actor: %v", err)
	}
}

func TestMultiTFCDeployment(t *testing.T) {
	// The Figure 6 deployment: different activities handled by different
	// TFC servers, all chained into one verifiable document.
	sys := newTestSystem(t)
	if _, err := sys.EnrollTFC("tfc-east@cloud"); err != nil {
		t.Fatal(err)
	}
	designer, _ := sys.Keys("designer@acme")

	def := wfdef.Fig9B() // default TFC tfc@cloud
	def.Policy.TFCAssigns = []wfdef.TFCAssign{
		{Activity: "B2", TFC: "tfc-east@cloud"},
		{Activity: "C", TFC: "tfc-east@cloud"},
	}
	if err := def.Validate(); err != nil {
		t.Fatal(err)
	}
	if def.TFCFor("A") != "tfc@cloud" || def.TFCFor("B2") != "tfc-east@cloud" {
		t.Fatalf("TFCFor routing wrong")
	}
	if got := strings.Join(def.TFCs(), ","); got != "tfc-east@cloud,tfc@cloud" {
		t.Fatalf("TFCs = %q", got)
	}

	doc, _, err := sys.StartProcess(def, designer)
	if err != nil {
		t.Fatal(err)
	}
	runner := sys.NewRunner()
	fig9Responders(runner, []string{"true"})
	final, err := runner.Run(doc.ProcessID())
	if err != nil {
		t.Fatal(err)
	}
	// Final CERs signed by the responsible server per activity.
	wantSigner := map[string]string{
		"A": "tfc@cloud", "B1": "tfc@cloud", "B2": "tfc-east@cloud",
		"C": "tfc-east@cloud", "D": "tfc@cloud",
	}
	for _, c := range final.FinalCERs() {
		if c.Signer() != wantSigner[c.ActivityID()] {
			t.Fatalf("CER %s signed by %q, want %q", c.ID(), c.Signer(), wantSigner[c.ActivityID()])
		}
	}
	if n, err := final.VerifyAll(sys.Registry); err != nil || n != 11 {
		t.Fatalf("VerifyAll = %d, %v", n, err)
	}
	// The wrong server refuses a document bound for the other.
	east, _ := sys.TFC("tfc-east@cloud")
	fresh, _, _ := sys.StartProcess(def, designer)
	agent, _ := sys.NewAEA(wfdef.Fig9Participants["A"])
	interm, err := agent.ExecuteToTFC(fresh, "A", aea.Inputs{"request": "r"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := east.Process(interm); err == nil {
		t.Fatal("east TFC processed a document assigned to the default TFC")
	}
}
