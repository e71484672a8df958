package aea

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"dra4wfms/internal/document"
	"dra4wfms/internal/dsig"
	"dra4wfms/internal/pki"
	"dra4wfms/internal/secpol"
	"dra4wfms/internal/telemetry"
	"dra4wfms/internal/testenv"
	"dra4wfms/internal/wfdef"
	"dra4wfms/internal/xmlenc"
)

// deepRejects is the loop depth of the deep-cascade workload: D rejects
// seven times, so the instance has 40 hops and 40 CERs.
const deepRejects = 7

// coldRequests is the reference for Session.Requests: a whole copy of in
// decrypted for key, its Values(), kept to the activity's requests.
func coldRequests(t testing.TB, in *document.Document, key *pki.KeyPair, act *wfdef.Activity) (map[string]string, map[string]string) {
	t.Helper()
	cold := in.Clone()
	if _, err := xmlenc.DecryptVisible(cold.Root, key); err != nil {
		t.Fatal(err)
	}
	vals := cold.Values()
	reqs := map[string]string{}
	for _, r := range act.Requests {
		if v, ok := vals[r.Variable]; ok {
			reqs[r.Variable] = v
		}
	}
	return reqs, vals
}

// TestOpenMatchesColdDecrypt is the differential check for the
// need-driven lookup: at every hop of a 7-reject Figure 9A instance the
// agent's Requests() and routing decision equal those computed from a
// cold xmlenc.DecryptVisible of the whole document.
func TestOpenMatchesColdDecrypt(t *testing.T) {
	f := newFixture(t)
	hops := 0
	f.onHop = func(activity string, in *document.Document, inputs Inputs, s *Session, out *Outcome) {
		hops++
		reqs, vals := coldRequests(t, in, f.agents[activity].Keys, s.Activity())
		if got := s.Requests(); !reflect.DeepEqual(got, reqs) {
			t.Fatalf("hop %d (%s): Requests() = %v, cold = %v", hops, activity, got, reqs)
		}
		for k, v := range inputs {
			vals[k] = v
		}
		next, err := secpol.Route(f.def, s.Activity(), secpol.Env(vals))
		if err != nil {
			t.Fatalf("hop %d (%s): cold route: %v", hops, activity, err)
		}
		if !reflect.DeepEqual(out.Next, next) {
			t.Fatalf("hop %d (%s): routed to %v, cold route %v", hops, activity, out.Next, next)
		}
	}
	f.run(t, deepRejects)
	if hops != 5*(deepRejects+1) {
		t.Fatalf("checked %d hops, want %d", hops, 5*(deepRejects+1))
	}
}

// TestUnwrapsPerReaderOnce counts RSA unwraps over a 7-reject Figure 9A
// instance: one per requested variable per hop (6 per iteration, 48 in
// all), where opening every readable element once per reader costs 223
// and a cold decrypt of every hop's document 944.
func TestUnwrapsPerReaderOnce(t *testing.T) {
	f := newFixture(t)
	opened := map[string]map[string]bool{}
	var requested, fresh, cold int
	f.onHop = func(activity string, in *document.Document, _ Inputs, s *Session, _ *Outcome) {
		requested += len(s.Requests())
		owner := f.agents[activity].Keys.Owner
		if opened[owner] == nil {
			opened[owner] = map[string]bool{}
		}
		for _, k := range testenv.ReadableKeys(in.Root, owner) {
			cold++
			if !opened[owner][k] {
				opened[owner][k] = true
				fresh++
			}
		}
	}
	unwraps := telemetry.Default().Counter("xmlenc_unwraps_total")
	before := unwraps.Value()
	f.run(t, deepRejects)
	got := int(unwraps.Value() - before)
	t.Logf("unwraps over the instance: %d; every readable element once per reader: %d; cold: %d", got, fresh, cold)
	if want := 6 * (deepRejects + 1); got != want || requested != want {
		t.Fatalf("unwraps = %d for %d requested values, want %d for both", got, requested, want)
	}
}

// TestConcurrentOpens opens one deep document from many goroutines on one
// agent; every session shows the cold requests.
func TestConcurrentOpens(t *testing.T) {
	f := newFixture(t)
	var deep *document.Document
	f.onHop = func(activity string, in *document.Document, _ Inputs, _ *Session, _ *Outcome) {
		if activity == "D" {
			deep = in
		}
	}
	f.run(t, 2)
	want, _ := coldRequests(t, deep, f.agents["D"].Keys, f.def.Activity("D"))
	if len(want) != 2 {
		t.Fatalf("cold requests of D = %v, want summary and attachment", want)
	}
	agent := New(f.agents["D"].Keys, f.env.Registry)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := agent.Open(deep, "D")
			if err == nil && !reflect.DeepEqual(s.Requests(), want) {
				err = fmt.Errorf("requests %v differ from cold %v", s.Requests(), want)
			}
			if err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// cerIDs lists the Ids of d's CERs in document order.
func cerIDs(d *document.Document) []string {
	var ids []string
	for _, c := range d.CERs() {
		ids = append(ids, c.ID())
	}
	return ids
}

// TestForkedSessionsKeepInputs: sessions fork the document they open, so
// B1 and B2 executing concurrently on one parsed document both complete,
// each output holds only its own new CER and serializes to its fresh
// canonical bytes, and neither the input nor, after the AND-join, the
// merged branches change a byte.
func TestForkedSessionsKeepInputs(t *testing.T) {
	f := newFixture(t)
	outA := f.hop(t, f.doc, "A", Inputs{"request": "buy 10 servers", "attachment": "specs.pdf"})
	in, err := document.Parse(outA.Doc.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	before := string(in.Bytes())
	inputs := map[string]Inputs{"B1": {"techReview": "sound"}, "B2": {"budgetReview": "within budget"}}
	outs := map[string]*Outcome{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for act, inp := range inputs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := f.agents[act].ExecuteCtx(context.Background(), in, act, inp, now)
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			outs[act] = out
			mu.Unlock()
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if got := string(in.Bytes()); got != before || got != string(in.Root.Clone().Canonical()) {
		t.Fatal("executing B1 and B2 changed their input document")
	}
	for act, out := range outs {
		want := append(cerIDs(in), "cer-"+act+"-0")
		if got := cerIDs(out.Doc); !slices.Equal(got, want) {
			t.Errorf("%s output CERs = %v, want %v", act, got, want)
		}
		if !bytes.Equal(out.Doc.Bytes(), out.Doc.Root.Clone().Canonical()) {
			t.Errorf("%s output bytes differ from its fresh serialization", act)
		}
		if _, err := out.Doc.VerifyAll(f.env.Registry); err != nil {
			t.Errorf("%s output: %v", act, err)
		}
	}
	b1, b2 := string(outs["B1"].Doc.Bytes()), string(outs["B2"].Doc.Bytes())
	merged, err := document.Merge(outs["B1"].Doc, outs["B2"].Doc)
	if err != nil {
		t.Fatal(err)
	}
	if string(outs["B1"].Doc.Bytes()) != b1 || string(outs["B2"].Doc.Bytes()) != b2 {
		t.Fatal("Merge changed a branch document")
	}
	if got := cerIDs(merged); len(got) != len(cerIDs(in))+2 {
		t.Fatalf("merged CERs = %v", got)
	}
	if !bytes.Equal(merged.Bytes(), merged.Root.Clone().Canonical()) {
		t.Fatal("merged bytes differ from their fresh serialization")
	}
	if _, err := f.agents["C"].Execute(merged, "C", Inputs{"summary": "ok"}, now); err != nil {
		t.Fatal(err)
	}
}

// TestExecuteToTFCKeepsInput: the advanced-model completion appends its
// intermediate CER to a fork, not to the document it was given.
func TestExecuteToTFCKeepsInput(t *testing.T) {
	env := testenv.Fig9(0)
	doc, err := document.New(wfdef.Fig9B(), env.KeyOf("designer@acme"), testenv.ProcessID(), now)
	if err != nil {
		t.Fatal(err)
	}
	in, err := document.Parse(doc.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	before := string(in.Bytes())
	agent := New(env.KeyOf(wfdef.Fig9Participants["A"]), env.Registry)
	interm, err := agent.ExecuteToTFCCtx(context.Background(), in, "A", Inputs{"request": "r"})
	if err != nil {
		t.Fatal(err)
	}
	if string(in.Bytes()) != before || len(in.CERs()) != 0 {
		t.Fatal("ExecuteToTFC changed its input document")
	}
	if got := cerIDs(interm); !slices.Equal(got, []string{"cer-it-A-0"}) {
		t.Fatalf("intermediate CERs = %v", got)
	}
}

// TestOpenParsedMissesNoMemo: Parse seeds the canonical bytes of every
// element a signature references or verifies (SignedInfo), and Open forks
// instead of cloning, so verifying a received document, with or without
// the verified-prefix cache, and opening it re-serialize nothing.
func TestOpenParsedMissesNoMemo(t *testing.T) {
	f := newFixture(t)
	var deep *document.Document
	f.onHop = func(activity string, in *document.Document, _ Inputs, _ *Session, _ *Outcome) {
		if activity == "D" {
			deep = in
		}
	}
	f.run(t, 2)
	in, err := document.Parse(deep.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	misses := telemetry.Default().Counter("xmltree_canon_memo_misses_total")
	before := misses.Value()
	if _, err := in.VerifyAllWith(&dsig.Verifier{Workers: 1}, f.env.Registry); err != nil {
		t.Fatal(err)
	}
	if d := misses.Value() - before; d != 0 {
		t.Fatalf("cold verification of a parsed document missed %d canonical memos, want 0", d)
	}
	if _, err := New(f.agents["D"].Keys, f.env.Registry).Open(in, "D"); err != nil {
		t.Fatal(err)
	}
	if d := misses.Value() - before; d != 0 {
		t.Fatalf("opening a parsed document missed %d canonical memos, want 0", d)
	}
}

// TestCompleteClaimsOnce: two sessions opened from one document before
// either completes must not both sign a CER for the same (process,
// activity, iteration); the loser gets ErrReplay.
func TestCompleteClaimsOnce(t *testing.T) {
	basic := newFixture(t)
	env := testenv.Fig4(0)
	doc4, err := document.New(wfdef.Fig4(), env.KeyOf("designer@p0"), testenv.ProcessID(), now)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		agent    *AEA
		doc      *document.Document
		activity string
		complete func(*Session) error
	}{
		{"basic", basic.agents["A"], basic.doc, "A", func(s *Session) error {
			_, err := s.Complete(Inputs{"request": "r"}, now)
			return err
		}},
		{"tfc", New(env.KeyOf(wfdef.Fig4Participants.Peter), env.Registry), doc4, "A1", func(s *Session) error {
			_, err := s.CompleteToTFC(Inputs{"X": "10"})
			return err
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var sessions [2]*Session
			for i := range sessions {
				s, err := c.agent.Open(c.doc, c.activity)
				if err != nil {
					t.Fatal(err)
				}
				sessions[i] = s
			}
			var wg sync.WaitGroup
			var errs [2]error
			for i, s := range sessions {
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs[i] = c.complete(s)
				}()
			}
			wg.Wait()
			ok, replays := 0, 0
			for _, err := range errs {
				switch {
				case err == nil:
					ok++
				case errors.Is(err, ErrReplay):
					replays++
				default:
					t.Fatal(err)
				}
			}
			if ok != 1 || replays != 1 {
				t.Fatalf("%d completions succeeded and %d were replays, want 1 and 1", ok, replays)
			}
		})
	}
}

// BenchmarkOpenDeepCascade measures phase α at the last hop of a 7-reject
// instance (D opening the eighth iteration's decision): "cold" builds a fresh agent
// per Open, so each requested element costs an RSA unwrap; "warm" reuses
// one agent that has opened the document before. Signature verification
// is warm in both (the process-wide verified-prefix cache), so the gap is
// the unwraps.
func BenchmarkOpenDeepCascade(b *testing.B) {
	f := newFixture(b)
	var in *document.Document
	hops := 0
	f.onHop = func(_ string, doc *document.Document, _ Inputs, _ *Session, _ *Outcome) {
		if hops == 39 {
			in = doc
		}
		hops++
	}
	f.run(b, deepRejects)
	keys := f.agents["D"].Keys
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := New(keys, f.env.Registry).Open(in, "D"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		agent := New(keys, f.env.Registry)
		if _, err := agent.Open(in, "D"); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := agent.Open(in, "D"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkHopDeepCascade runs one whole 7-reject Figure 9A instance per
// op, 40 hops, with long-lived agents. Each hop is what a participant's
// process does: parse the retrieved bytes, Open, Complete, serialize.
// Every instance encrypts under fresh content keys, as the system
// benchmark's instances do, so the agents' memos only help within an
// instance. It reports the RSA unwraps per instance.
func BenchmarkHopDeepCascade(b *testing.B) {
	f := newFixture(b)
	hop := func(in []byte, activity string, inputs Inputs) []byte {
		doc, err := document.Parse(in)
		if err != nil {
			b.Fatal(err)
		}
		s, err := f.agents[activity].Open(doc, activity)
		if err != nil {
			b.Fatal(err)
		}
		out, err := s.Complete(inputs, now)
		if err != nil {
			b.Fatal(err)
		}
		return out.Doc.Bytes()
	}
	parse := func(in []byte) *document.Document {
		doc, err := document.Parse(in)
		if err != nil {
			b.Fatal(err)
		}
		return doc
	}
	unwraps := telemetry.Default().Counter("xmlenc_unwraps_total")
	before := unwraps.Value()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc, err := document.New(f.def, f.env.KeyOf("designer@acme"), testenv.ProcessID(), now)
		if err != nil {
			b.Fatal(err)
		}
		in := doc.Bytes()
		for iter := 0; iter <= deepRejects; iter++ {
			a := hop(in, "A", Inputs{"request": "buy 10 servers", "attachment": "specs.pdf"})
			b1 := hop(a, "B1", Inputs{"techReview": "sound"})
			b2 := hop(a, "B2", Inputs{"budgetReview": "within budget"})
			merged, err := document.Merge(parse(b1), parse(b2))
			if err != nil {
				b.Fatal(err)
			}
			c := hop(merged.Bytes(), "C", Inputs{"summary": "all reviews positive"})
			in = hop(c, "D", Inputs{"accept": fmt.Sprint(iter == deepRejects)})
		}
	}
	b.ReportMetric(float64(unwraps.Value()-before)/float64(b.N), "unwraps/op")
}
