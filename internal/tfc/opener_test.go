package tfc_test

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"dra4wfms/internal/aea"
	"dra4wfms/internal/document"
	"dra4wfms/internal/pki"
	"dra4wfms/internal/secpol"
	"dra4wfms/internal/telemetry"
	"dra4wfms/internal/testenv"
	"dra4wfms/internal/tfc"
	"dra4wfms/internal/wfdef"
	"dra4wfms/internal/wfgen"
	"dra4wfms/internal/xmlenc"
)

var start = time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)

// differential drives hops AEA → TFC and checks, at every hop, that the
// participant's Requests() and the server's routing decision equal those
// computed from cold xmlenc.DecryptVisible copies of the whole document.
// It also counts the server's RSA unwraps.
type differential struct {
	t      *testing.T
	reg    *pki.Registry
	server *tfc.Server
	tfcKey *pki.KeyPair
	agents map[string]*aea.AEA
	keys   func(id string) *pki.KeyPair

	hops, unwraps, fresh int
	opened               map[string]bool
}

var unwrapCounter = telemetry.Default().Counter("xmlenc_unwraps_total")

func newDifferential(t *testing.T, reg *pki.Registry, tfcKey *pki.KeyPair, keys func(string) *pki.KeyPair) *differential {
	return &differential{
		t: t, reg: reg, tfcKey: tfcKey, keys: keys,
		server: tfc.New(tfcKey, reg, nil),
		agents: map[string]*aea.AEA{},
		opened: map[string]bool{},
	}
}

// coldValues is Values() of a copy of in fully decrypted for key.
func (d *differential) coldValues(in *document.Document, key *pki.KeyPair) map[string]string {
	d.t.Helper()
	cold := in.Clone()
	if _, err := xmlenc.DecryptVisible(cold.Root, key); err != nil {
		d.t.Fatalf("hop %d: cold decrypt for %s: %v", d.hops, key.Owner, err)
	}
	return cold.Values()
}

func (d *differential) step(doc *document.Document, activity, participant string, inputs aea.Inputs) *tfc.Outcome {
	d.t.Helper()
	d.hops++
	agent := d.agents[participant]
	if agent == nil {
		agent = aea.New(d.keys(participant), d.reg)
		d.agents[participant] = agent
	}
	s, err := agent.Open(doc, activity)
	if err != nil {
		d.t.Fatalf("hop %d: open %s: %v", d.hops, activity, err)
	}
	vals := d.coldValues(doc, agent.Keys)
	want := map[string]string{}
	for _, r := range s.Activity().Requests {
		if v, ok := vals[r.Variable]; ok {
			want[r.Variable] = v
		}
	}
	if got := s.Requests(); !reflect.DeepEqual(got, want) {
		d.t.Fatalf("hop %d: %s's Requests() = %v, cold = %v", d.hops, activity, got, want)
	}
	interm, err := s.CompleteToTFC(inputs)
	if err != nil {
		d.t.Fatalf("hop %d: complete %s: %v", d.hops, activity, err)
	}
	for _, k := range testenv.ReadableKeys(interm.Root, d.tfcKey.Owner) {
		if !d.opened[k] {
			d.opened[k] = true
			d.fresh++
		}
	}
	before := unwrapCounter.Value()
	out, err := d.server.Process(interm)
	if err != nil {
		d.t.Fatalf("hop %d: TFC after %s: %v", d.hops, activity, err)
	}
	d.unwraps += int(unwrapCounter.Value() - before)

	// The cold route: the server's definition with the vault revealed,
	// over everything the server can read plus the fresh values.
	def, err := interm.Definition()
	if err != nil {
		d.t.Fatal(err)
	}
	if interm.ConditionVault() != nil {
		if err := interm.RevealConditions(def, xmlenc.NewOpener(d.tfcKey)); err != nil {
			d.t.Fatal(err)
		}
	}
	env := d.coldValues(interm, d.tfcKey)
	for k, v := range inputs {
		env[k] = v
	}
	next, err := secpol.Route(def, def.Activity(activity), secpol.Env(env))
	if err != nil {
		d.t.Fatalf("hop %d: cold route after %s: %v", d.hops, activity, err)
	}
	if !reflect.DeepEqual(out.Next, next) {
		d.t.Fatalf("hop %d: TFC routed %s to %v, cold route %v", d.hops, activity, out.Next, next)
	}
	return out
}

// checkUnwraps: the server unwrapped each participant's intermediate
// payload key (a participant's agent seals all its payloads of the
// instance under one key), and beyond that only what routing read, never
// a content key twice: at most one unwrap per key it could read, however
// often it saw it.
func (d *differential) checkUnwraps(atMost int) {
	d.t.Helper()
	d.t.Logf("%d hops by %d participants: the TFC unwrapped %d content keys (could read %d)", d.hops, len(d.agents), d.unwraps, d.fresh)
	if d.unwraps < len(d.agents) || d.unwraps > atMost || d.unwraps > d.fresh {
		d.t.Fatalf("TFC unwraps = %d, want between %d and min(%d, %d)", d.unwraps, len(d.agents), atMost, d.fresh)
	}
}

func TestFig9BOpenersMatchColdDecrypt(t *testing.T) {
	env := testenv.Fig9(0)
	d := newDifferential(t, env.Registry, env.KeyOf("tfc@cloud"), env.KeyOf)
	doc, err := document.New(wfdef.Fig9B(), env.KeyOf("designer@acme"), testenv.ProcessID(), start)
	if err != nil {
		t.Fatal(err)
	}
	p := wfdef.Fig9Participants
	for i := 0; ; i++ {
		outA := d.step(doc, "A", p["A"], aea.Inputs{"request": "req"})
		outB1 := d.step(outA.Doc, "B1", p["B1"], aea.Inputs{"techReview": "ok"})
		outB2 := d.step(outA.Doc, "B2", p["B2"], aea.Inputs{"budgetReview": "ok"})
		merged, err := document.Merge(outB1.Doc, outB2.Doc)
		if err != nil {
			t.Fatal(err)
		}
		outC := d.step(merged, "C", p["C"], aea.Inputs{"summary": "fine"})
		accept := "false"
		if i == 3 {
			accept = "true"
		}
		outD := d.step(outC.Doc, "D", p["D"], aea.Inputs{"accept": accept})
		if outD.Completed {
			break
		}
		doc = outD.Doc
	}
	// Every condition reads the fresh accept, which is in the hop's
	// payload: one unwrap per participant.
	d.checkUnwraps(len(d.agents))
}

// TestConcealedWfgenOpenersMatchColdDecrypt runs generated definitions with
// loops under flow concealment: the TFC opens the condition vault on every
// hop, yet unwraps it once per instance, and looks up what the revealed
// conditions name.
func TestConcealedWfgenOpenersMatchColdDecrypt(t *testing.T) {
	parts := []string{"p1@gen", "p2@gen", "p3@gen"}
	env := testenv.New(0)
	env.MustRegister(append([]string{"designer@gen", "tfc@gen"}, parts...)...)
	for seed := int64(40); seed < 44; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := wfgen.MustGenerate(r, wfgen.Options{
			Participants: parts, MaxDepth: 2, MaxSegments: 2, MaxBranches: 3,
			AllowLoops: true, TFC: "tfc@gen",
		})
		g.Def.Policy.ConcealFlow = true
		tfcKey := env.KeyOf("tfc@gen")
		doc, err := document.NewConcealed(g.Def, env.KeyOf("designer@gen"), testenv.ProcessID(), start,
			xmlenc.Recipient{ID: "tfc@gen", Key: tfcKey.Public()})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if doc.ConditionVault() == nil {
			continue
		}
		d := newDifferential(t, env.Registry, tfcKey, env.KeyOf)
		embedded, err := doc.Definition()
		if err != nil {
			t.Fatal(err)
		}
		decided := map[string]int{}
		for steps := 0; ; steps++ {
			if steps > 200 {
				t.Fatalf("seed %d: no termination", seed)
			}
			enabled, completed, err := document.Enabled(embedded, doc)
			if err != nil {
				t.Fatal(err)
			}
			if completed {
				break
			}
			act := embedded.Activity(enabled[0])
			inputs := aea.Inputs{}
			for _, resp := range act.Responses {
				v := resp.Variable
				if _, ok := g.DecisionVars[v]; ok {
					// Every decision is taken once each way, so each loop
					// body runs twice.
					inputs[v] = map[bool]string{true: "true", false: "false"}[decided[v] == 0]
					decided[v]++
					continue
				}
				inputs[v] = "value of " + v
			}
			doc = d.step(doc, act.ID, act.Participant, inputs).Doc
		}
		d.checkUnwraps(d.fresh)
	}
}
