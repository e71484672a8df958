package wfgen

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dra4wfms/internal/document"
	"dra4wfms/internal/driver"
	"dra4wfms/internal/testenv"
	"dra4wfms/internal/wfdef"
	"dra4wfms/internal/xmltree"
)

var participants = []string{"p1@gen", "p2@gen", "p3@gen"}

// newDriver is an in-process deployment with the generator's designer,
// participants and TFC server registered.
func newDriver() *driver.Driver {
	env := testenv.New(0)
	env.MustRegister(append([]string{"designer@gen", "tfc@gen"}, participants...)...)
	return driver.New(env)
}

// walk starts an instance of g and steps it to completion, picking the
// next activity and every input with r (loop variables true at most
// budget times). After every store it retrieves the row through a portal
// and requires that the row holds every CER of the stored document byte
// for byte and still verifies.
func walk(t *testing.T, d *driver.Driver, seed int64, r *rand.Rand, g *Generated, budget int) *document.Document {
	t.Helper()
	start, _, err := d.Start(g.Def)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	pid := start.ProcessID()
	w := driver.Walk{Respond: g.Chooser(r, budget), Rand: r}
	for steps := 0; ; steps++ {
		if steps > driver.MaxSteps {
			t.Fatalf("seed %d: execution exceeded %d steps", seed, driver.MaxSteps)
		}
		stored, done, err := d.Step(pid, w)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, g.Def)
		}
		if done {
			return stored
		}
		row, err := d.Portals[0].Retrieve(g.Def.Designer, pid)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, c := range stored.CERs() {
			got := row.Root.FindByID(c.ID())
			if got == nil || !bytes.Equal(got.Canonical(), c.El.Canonical()) {
				t.Fatalf("seed %d: stored row lost or altered %s", seed, c.ID())
			}
		}
		if _, err := row.VerifyAll(d.Env.Registry); err != nil {
			t.Fatalf("seed %d: stored row does not verify: %v", seed, err)
		}
	}
}

func opts(loops bool) Options {
	return Options{Participants: participants, MaxDepth: 2, MaxSegments: 2, MaxBranches: 3, AllowLoops: loops}
}

// TestPropGeneratedDefinitionsValid: every generated definition validates
// and survives an XML round trip.
func TestPropGeneratedDefinitionsValid(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		g, err := Generate(r, opts(seed%2 == 0))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := g.Def.Validate(); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, g.Def)
		}
		back, err := xmltree.ParseBytes(g.Def.ToXML().Canonical())
		if err != nil {
			t.Fatalf("seed %d: reparse: %v", seed, err)
		}
		if back == nil {
			t.Fatal("nil reparse")
		}
	}
}

// requireCanonicalFixpoint: a routed document's bytes parse back to a tree
// whose canonical form is the same bytes, which is what lets the portal
// serve a stored row without re-canonicalizing it.
func requireCanonicalFixpoint(t *testing.T, seed int64, doc *document.Document) {
	t.Helper()
	raw := doc.Bytes()
	back, err := document.Parse(raw)
	if err != nil {
		t.Fatalf("seed %d: final document does not reparse: %v", seed, err)
	}
	if !bytes.Equal(back.Bytes(), raw) {
		t.Fatalf("seed %d: reparsed document canonicalizes to different bytes", seed)
	}
}

// TestPropRandomExecutionsVerify: random executions of random workflows
// terminate and yield fully verifiable documents with intact cascades.
func TestPropRandomExecutionsVerify(t *testing.T) {
	d := newDriver()
	for seed := int64(100); seed < 120; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := MustGenerate(r, opts(true))
		final := walk(t, d, seed, r, g, 2)
		nsigs, err := final.VerifyAll(d.Env.Registry)
		if err != nil {
			t.Fatalf("seed %d: final doc does not verify: %v", seed, err)
		}
		requireCanonicalFixpoint(t, seed, final)
		if nsigs != len(final.FinalCERs())+1 {
			t.Fatalf("seed %d: %d signatures for %d CERs", seed, nsigs, len(final.FinalCERs()))
		}
		// The nonrepudiation scope of the last CER must reach CER(A0).
		cers := final.FinalCERs()
		last := cers[len(cers)-1]
		scope, err := final.NonrepudiationScope(last.ID())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		foundRoot := false
		for _, id := range scope {
			if id == "cer-A0" {
				foundRoot = true
			}
		}
		if !foundRoot {
			t.Fatalf("seed %d: scope of %s does not reach the designer: %v", seed, last.ID(), scope)
		}
	}
}

// TestPropRandomTamperDetected: after a random execution, mutating any
// text node inside any signed region breaks verification.
func TestPropRandomTamperDetected(t *testing.T) {
	d := newDriver()
	r := rand.New(rand.NewSource(7))
	g := MustGenerate(r, opts(false))
	final := walk(t, d, 7, r, g, 2)
	if _, err := final.VerifyAll(d.Env.Registry); err != nil {
		t.Fatal(err)
	}

	// Collect every text node with its parent, then mutate each in a fresh
	// clone. Text inside signed regions must break verification; the only
	// unsigned text in the whole document lives inside the Signature
	// elements themselves (KeyName, algorithm labels) — mutating those
	// must ALSO fail verification (wrong key / bad encoding).
	type site struct{ path []int }
	var sites []site
	var walk func(n *xmltree.Node, path []int)
	walk = func(n *xmltree.Node, path []int) {
		for i, c := range n.Children {
			p := append(append([]int{}, path...), i)
			if c.IsText() {
				sites = append(sites, site{path: p})
			} else {
				walk(c, p)
			}
		}
	}
	walk(final.Root, nil)
	if len(sites) < 10 {
		t.Fatalf("suspiciously few text nodes: %d", len(sites))
	}
	for _, s := range sites {
		clone := final.Clone()
		n := clone.Root
		for _, idx := range s.path[:len(s.path)-1] {
			n = n.Children[idx]
		}
		target := n.Children[s.path[len(s.path)-1]]
		target.Text = target.Text + "x"
		if _, err := clone.VerifyAll(d.Env.Registry); err == nil {
			t.Fatalf("mutating text under <%s> went undetected", n.Name)
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(rand.New(rand.NewSource(1)), Options{}); err == nil {
		t.Fatal("no participants accepted")
	}
	if _, err := Generate(rand.New(rand.NewSource(1)),
		Options{Participants: []string{"solo@gen"}, Leaks: 1}); err == nil {
		t.Fatal("leak seeding with a single participant accepted")
	}
}

// TestPropSeededLeaksDetected is the negative corpus for the
// information-flow lint: every definition generated with Options.Leaks
// still validates, and the IFC pass reports EACH seeded leak as an
// error-severity finding that names the concealed variable, the excluded
// participant, and a concrete counterexample path through the leaking
// activity.
func TestPropSeededLeaksDetected(t *testing.T) {
	for seed := int64(400); seed < 440; seed++ {
		r := rand.New(rand.NewSource(seed))
		o := opts(seed%2 == 0)
		o.Leaks = 1 + int(seed%3)
		g, err := Generate(r, o)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(g.Leaks) != o.Leaks {
			t.Fatalf("seed %d: seeded %d leaks, recorded %d", seed, o.Leaks, len(g.Leaks))
		}
		if err := g.Def.Validate(); err != nil {
			t.Fatalf("seed %d: leaky definition must still validate: %v\n%s", seed, err, g.Def)
		}
		findings := wfdef.Lint(g.Def)
		for _, leak := range g.Leaks {
			found := false
			for _, f := range findings {
				if f.Rule != wfdef.RuleIFCFlow || f.Severity != wfdef.SevError {
					continue
				}
				if strings.Contains(f.Message, fmt.Sprintf("%q", leak.Variable)) &&
					strings.Contains(f.Message, leak.Participant) &&
					strings.Contains(f.Message, leak.Reader) &&
					strings.Contains(f.Message, "→") {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("seed %d: seeded leak of %q to %s at %s not reported\nfindings: %v",
					seed, leak.Variable, leak.Participant, leak.Reader, findings)
			}
		}
	}
}

func TestWalkTerminatesLoops(t *testing.T) {
	d := newDriver()
	// Seeds chosen arbitrarily; with AllowLoops every walk must terminate
	// thanks to the chooser's loop budget.
	for seed := int64(200); seed < 210; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := MustGenerate(r, Options{Participants: participants, MaxDepth: 2, MaxSegments: 2, AllowLoops: true})
		walk(t, d, seed, r, g, 1)
	}
}

func TestGeneratedShapesVary(t *testing.T) {
	// Sanity: across seeds the generator produces AND, XOR and loop
	// structures, not just chains.
	sawAND, sawXOR, sawLoop := false, false, false
	for seed := int64(0); seed < 80; seed++ {
		g := MustGenerate(rand.New(rand.NewSource(seed)), opts(true))
		for _, a := range g.Def.Activities {
			if a.Split == "AND" {
				sawAND = true
			}
			if a.Split == "XOR" {
				sawXOR = true
			}
		}
		if len(g.LoopVars) > 0 {
			sawLoop = true
		}
	}
	if !sawAND || !sawXOR || !sawLoop {
		t.Fatalf("generator variety: AND=%v XOR=%v loop=%v", sawAND, sawXOR, sawLoop)
	}
}

// TestPropRandomAdvancedExecutionsVerify: random workflows through the
// TFC server — intermediate+final CER pairs, timestamps, full cascade.
func TestPropRandomAdvancedExecutionsVerify(t *testing.T) {
	d := newDriver()
	for seed := int64(300); seed < 312; seed++ {
		r := rand.New(rand.NewSource(seed))
		o := opts(true)
		o.TFC = "tfc@gen"
		g := MustGenerate(r, o)
		final := walk(t, d, seed, r, g, 2)
		if _, err := final.VerifyAll(d.Env.Registry); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		requireCanonicalFixpoint(t, seed, final)
		finals := final.FinalCERs()
		if len(final.CERs()) != 2*len(finals) {
			t.Fatalf("seed %d: %d CERs for %d finals (want pairs)", seed, len(final.CERs()), len(finals))
		}
		for _, c := range finals {
			if _, ok := c.Timestamp(); !ok {
				t.Fatalf("seed %d: final CER %s without timestamp", seed, c.ID())
			}
			if c.Signer() != "tfc@gen" {
				t.Fatalf("seed %d: final CER %s signed by %q", seed, c.ID(), c.Signer())
			}
		}
	}
}
