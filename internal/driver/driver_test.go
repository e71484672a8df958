package driver

import (
	"errors"
	"strings"
	"testing"

	"dra4wfms/internal/aea"
	"dra4wfms/internal/portal"
	"dra4wfms/internal/testenv"
	"dra4wfms/internal/wfdef"
)

// newDriver is a deployment with the Figure 9 and Figure 4 designers,
// participants and TFC server registered.
func newDriver(t *testing.T) *Driver {
	t.Helper()
	env := testenv.New(1024)
	ids := []string{"designer@acme", "designer@p0", "tfc@cloud"}
	for _, p := range wfdef.Fig9Participants {
		ids = append(ids, p)
	}
	p4 := wfdef.Fig4Participants
	ids = append(ids, p4.Peter, p4.Tony, p4.Amy, p4.John, p4.Mary)
	env.MustRegister(ids...)
	return New(env)
}

// values answers every activity with its fixed inputs.
func values(in map[string]aea.Inputs) Responder {
	return func(s *aea.Session) (aea.Inputs, error) { return in[s.Activity().ID], nil }
}

// fig9 answers the Figure 9 activities, D with accepts in turn.
func fig9(accepts ...string) Responder {
	i := 0
	in := map[string]aea.Inputs{
		"A":  {"request": "buy"},
		"B1": {"techReview": "ok"},
		"B2": {"budgetReview": "ok"},
		"C":  {"summary": "fine"},
	}
	return func(s *aea.Session) (aea.Inputs, error) {
		if s.Activity().ID == "D" {
			i++
			return aea.Inputs{"accept": accepts[(i-1)%len(accepts)]}, nil
		}
		return in[s.Activity().ID], nil
	}
}

func start(t *testing.T, d *Driver, def *wfdef.Definition) string {
	t.Helper()
	doc, _, err := d.Start(def)
	if err != nil {
		t.Fatal(err)
	}
	return doc.ProcessID()
}

func TestRunBasicModelWithLoop(t *testing.T) {
	d := newDriver(t)
	doc, notes, err := d.Start(wfdef.Fig9A())
	if err != nil {
		t.Fatal(err)
	}
	if len(notes) != 1 || notes[0].Activity != "A" {
		t.Fatalf("initial notes = %v", notes)
	}
	pid := doc.ProcessID()
	final, err := d.Run(pid, Walk{Respond: fig9("false", "true")}) // one loop, then accept
	if err != nil {
		t.Fatal(err)
	}
	if got := len(final.FinalCERs()); got != 10 {
		t.Fatalf("final CERs = %d, want 10 (two passes)", got)
	}
	if n, err := final.VerifyAll(d.Env.Registry); err != nil || n != 11 {
		t.Fatalf("VerifyAll = %d, %v", n, err)
	}
	if state, _ := d.Portals[1].State(pid); state != "completed" {
		t.Fatalf("state = %s", state)
	}
	st, err := d.Monitor.InstanceStatus(pid)
	if err != nil || st.State != "completed" || len(st.Steps) != 10 {
		t.Fatalf("monitor status = %+v, %v", st, err)
	}
}

func TestRunAdvancedModel(t *testing.T) {
	d := newDriver(t)
	pid := start(t, d, wfdef.Fig9B())
	final, err := d.Run(pid, Walk{Respond: fig9("true")})
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
	if recs, err := d.TFC("tfc@cloud").RecordsFor(pid); err != nil || len(recs) != 5 {
		t.Fatalf("TFC records = %d, %v", len(recs), err)
	}
	// Monitoring computes activity durations from the timestamps.
	if durs, err := d.Monitor.ActivityDurations(pid); err != nil || len(durs) != 5 {
		t.Fatalf("durations = %v, %v", durs, err)
	}
}

func TestRunFig4ConcealedFlow(t *testing.T) {
	d := newDriver(t)
	pid := start(t, d, wfdef.Fig4())
	final, err := d.Run(pid, Walk{Respond: values(map[string]aea.Inputs{
		"A1": {"X": "1500"},
		"A2": {"Y": "classified"},
		"A3": {"reviewed": "true"},
		"A4": {"highResult": "handled-high"},
		"A5": {"lowResult": "handled-low"},
	})})
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
}

func TestRunErrors(t *testing.T) {
	d := newDriver(t)
	pid := start(t, d, wfdef.Fig9A())

	if _, err := d.Run(pid, Walk{}); err == nil || !strings.Contains(err.Error(), "no responder") {
		t.Fatalf("missing responder: %v", err)
	}
	boom := errors.New("boom")
	if _, err := d.Run(pid, Walk{Respond: func(*aea.Session) (aea.Inputs, error) { return nil, boom }}); !errors.Is(err, boom) {
		t.Fatalf("responder error: %v", err)
	}
	if _, err := d.Run("ghost", Walk{Respond: fig9("true")}); !errors.Is(err, portal.ErrUnknownProcess) {
		t.Fatalf("ghost process: %v", err)
	}
}

func TestRunStepLimit(t *testing.T) {
	d := newDriver(t)
	pid := start(t, d, wfdef.Fig9A())
	_, err := d.run(pid, Walk{Respond: fig9("false")}, 23) // never accepts: an endless loop
	if err == nil || !strings.Contains(err.Error(), "exceeded 23 steps") {
		t.Fatalf("err = %v", err)
	}
}

func TestEnrollmentAndAccessors(t *testing.T) {
	d := newDriver(t)
	if err := d.Env.RegisterRoles("new@org", "admin"); err != nil {
		t.Fatal(err)
	}
	id, err := d.Env.Registry.Identity("new@org")
	if err != nil || id.Org != "org" || !id.HasRole("admin") {
		t.Fatalf("identity = %+v, %v", id, err)
	}
	if d.agent("new@org") != d.agent("new@org") {
		t.Fatal("AEA rebuilt for the same principal")
	}
	if d.TFC("tfc2@cloud") != d.TFC("tfc2@cloud") {
		t.Fatal("TFC server started twice")
	}
}

func TestRoleBasedActivityEndToEnd(t *testing.T) {
	d := newDriver(t)
	// Any "approver" may claim the approval activity; two hold the role.
	for _, mgr := range []string{"mgr1@acme", "mgr2@acme"} {
		if err := d.Env.RegisterRoles(mgr, "approver"); err != nil {
			t.Fatal(err)
		}
	}
	def := wfdef.NewBuilder("roled-approval", "designer@acme").
		Activity("file", "File request", wfdef.Fig9Participants["A"]).
		Response("req", "string", true).Done().
		Activity("approve", "Approve", "").Role("approver").
		Request("req").Response("ok", "bool", true).Done().
		Start("file").Edge("file", "approve").End("approve").
		DefaultReaders(wfdef.Fig9Participants["A"], "mgr1@acme", "mgr2@acme").
		MustBuild()
	pid := start(t, d, def)
	w := Walk{
		Respond: values(map[string]aea.Inputs{"file": {"req": "please"}, "approve": {"ok": "true"}}),
		Actors:  map[string]string{"approver": "mgr2@acme"},
	}
	if _, _, err := d.Step(pid, w); err != nil {
		t.Fatal(err)
	}
	// After the first step, both role holders see the work item.
	for _, mgr := range []string{"mgr1@acme", "mgr2@acme"} {
		items, err := d.Portals[0].Worklist(mgr)
		if err != nil {
			t.Fatal(err)
		}
		if len(items) != 1 || items[0].Activity != "approve" {
			t.Fatalf("%s worklist = %v", mgr, items)
		}
	}
	// A non-holder does not see it.
	items, err := d.Portals[0].Worklist(wfdef.Fig9Participants["B1"])
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 0 {
		t.Fatalf("non-holder worklist = %v", items)
	}

	final, err := d.Run(pid, w)
	if err != nil {
		t.Fatal(err)
	}
	cer, ok := final.FindCER("final", "approve", 0)
	if !ok || cer.Participant() != "mgr2@acme" || cer.Signer() != "mgr2@acme" {
		t.Fatalf("approve CER: %v %s/%s", ok, cer.Participant(), cer.Signer())
	}
	if n, err := final.VerifyAll(d.Env.Registry); err != nil || n != 3 {
		t.Fatalf("VerifyAll = %d, %v", n, err)
	}
}

func TestRoleBasedRejectsNonHolder(t *testing.T) {
	d := newDriver(t)
	d.Env.MustRegister("pleb@acme") // holds no role
	def := wfdef.NewBuilder("roled2", "designer@acme").
		Activity("approve", "", "").Role("approver").Response("ok", "bool", true).Done().
		Start("approve").End("approve").
		DefaultReaders("pleb@acme").
		MustBuild()
	pid := start(t, d, def)
	respond := values(map[string]aea.Inputs{"approve": {"ok": "true"}})
	if _, err := d.Run(pid, Walk{Respond: respond, Actors: map[string]string{"approver": "pleb@acme"}}); !errors.Is(err, aea.ErrNotParticipant) {
		t.Fatalf("non-holder executed role activity: %v", err)
	}
	// A walk that names no actor for the role gets a clear error.
	if _, err := d.Run(pid, Walk{Respond: respond}); err == nil || !strings.Contains(err.Error(), "Walk.Actors") {
		t.Fatalf("missing actor: %v", err)
	}
}

func TestMultiTFCDeployment(t *testing.T) {
	// The Figure 6 deployment: different activities handled by different
	// TFC servers, all chained into one verifiable document.
	d := newDriver(t)
	d.Env.MustRegister("tfc-east@cloud")
	def := wfdef.Fig9B() // default TFC tfc@cloud
	def.Policy.TFCAssigns = []wfdef.TFCAssign{
		{Activity: "B2", TFC: "tfc-east@cloud"},
		{Activity: "C", TFC: "tfc-east@cloud"},
	}
	if err := def.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(def.TFCs(), ","); got != "tfc-east@cloud,tfc@cloud" {
		t.Fatalf("TFCs = %q", got)
	}
	final, err := d.Run(start(t, d, def), Walk{Respond: fig9("true")})
	if err != nil {
		t.Fatal(err)
	}
	// Final CERs are signed by the responsible server per activity.
	wantSigner := map[string]string{
		"A": "tfc@cloud", "B1": "tfc@cloud", "B2": "tfc-east@cloud",
		"C": "tfc-east@cloud", "D": "tfc@cloud",
	}
	for _, c := range final.FinalCERs() {
		if c.Signer() != wantSigner[c.ActivityID()] {
			t.Fatalf("CER %s signed by %q, want %q", c.ID(), c.Signer(), wantSigner[c.ActivityID()])
		}
	}
	if n, err := final.VerifyAll(d.Env.Registry); err != nil || n != 11 {
		t.Fatalf("VerifyAll = %d, %v", n, err)
	}
	// The wrong server refuses a document bound for the other.
	fresh, _, err := d.Start(def)
	if err != nil {
		t.Fatal(err)
	}
	interm, err := d.agent(wfdef.Fig9Participants["A"]).ExecuteToTFC(fresh, "A", aea.Inputs{"request": "r"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.TFC("tfc-east@cloud").Process(interm); err == nil {
		t.Fatal("east TFC processed a document assigned to the default TFC")
	}
}
