package tfc_test

import (
	"math/rand"
	"testing"
	"time"

	"dra4wfms/internal/aea"
	"dra4wfms/internal/document"
	"dra4wfms/internal/pki"
	"dra4wfms/internal/telemetry"
	"dra4wfms/internal/testenv"
	"dra4wfms/internal/tfc"
	"dra4wfms/internal/wfdef"
	"dra4wfms/internal/wfgen"
	"dra4wfms/internal/xmlenc"
)

var start = time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)

// differential drives hops AEA → TFC and checks, at every hop, that the
// participant's view and the server's routing history built through their
// openers are byte-identical to cold xmlenc.DecryptVisible results. It
// also counts the server's RSA unwraps against the content keys it had
// not opened before.
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

// sameView fails unless the opener-backed view (n elements) equals the
// cold view of in for key.
func (d *differential) sameView(what string, in, view *document.Document, n int, key *pki.KeyPair) {
	d.t.Helper()
	cold := in.Clone()
	nCold, err := xmlenc.DecryptVisible(cold.Root, key)
	if err != nil {
		d.t.Fatalf("hop %d: cold %s: %v", d.hops, what, err)
	}
	if n != nCold || string(view.Root.Canonical()) != string(cold.Root.Canonical()) {
		d.t.Fatalf("hop %d: %s through the opener (%d elements) differs from cold (%d)", d.hops, what, n, nCold)
	}
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
	d.sameView("view of "+activity, doc, s.View(), s.DecryptedElements, agent.Keys)
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
	hist, n, err := d.server.History(interm)
	if err != nil {
		d.t.Fatal(err)
	}
	d.sameView("TFC history", interm, hist, n, d.tfcKey)
	return out
}

// checkUnwraps: the server paid one RSA unwrap per content key it had not
// opened before — the condition vault included, once per instance.
func (d *differential) checkUnwraps() {
	d.t.Helper()
	d.t.Logf("%d hops: the TFC unwrapped %d content keys", d.hops, d.unwraps)
	if d.unwraps != d.fresh {
		d.t.Fatalf("TFC unwraps = %d over %d hops, want %d (one per key it had not opened)", d.unwraps, d.hops, d.fresh)
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
		outB1 := d.step(outA.Routed["B1"], "B1", p["B1"], aea.Inputs{"techReview": "ok"})
		outB2 := d.step(outA.Routed["B2"], "B2", p["B2"], aea.Inputs{"budgetReview": "ok"})
		merged, err := document.Merge(outB1.Routed["C"], outB2.Routed["C"])
		if err != nil {
			t.Fatal(err)
		}
		outC := d.step(merged, "C", p["C"], aea.Inputs{"summary": "fine"})
		accept := "false"
		if i == 3 {
			accept = "true"
		}
		outD := d.step(outC.Routed["D"], "D", p["D"], aea.Inputs{"accept": accept})
		if outD.Completed {
			break
		}
		doc = outD.Routed["A"]
	}
	d.checkUnwraps()
}

// TestConcealedWfgenOpenersMatchColdDecrypt runs generated definitions with
// loops under flow concealment: the TFC opens the condition vault on every
// hop, yet unwraps it once per instance.
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
		d.checkUnwraps()
	}
}
