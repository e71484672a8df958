package document

import (
	"errors"
	"testing"

	"dra4wfms/internal/wfdef"
	"dra4wfms/internal/xmlenc"
	"dra4wfms/internal/xmltree"
)

// appendResult appends a final CER of activity (next iteration) whose
// result holds children as given.
func appendResult(t *testing.T, doc *Document, def *wfdef.Definition, activity string, children ...*xmltree.Node) {
	t.Helper()
	participant := def.Activity(activity).Participant
	if _, err := doc.AppendCER(AppendSpec{
		ActivityID: activity, Iteration: doc.LatestIteration(activity) + 1, Kind: KindFinal,
		Participant: participant, ResultChildren: children,
		PredSigIDs: []string{DesignerSig}, Signer: cache.MustGet(participant),
	}); err != nil {
		t.Fatal(err)
	}
}

// sealed encrypts content for readers, labelled with label unless it is
// empty.
func sealed(t *testing.T, content *xmltree.Node, label string, readers ...string) *xmltree.Node {
	t.Helper()
	var rs []xmlenc.Recipient
	for _, id := range readers {
		rs = append(rs, xmlenc.Recipient{ID: id, Key: cache.MustGet(id).Public()})
	}
	enc, err := xmlenc.Encrypt(content, "", rs...)
	if err != nil {
		t.Fatal(err)
	}
	if label != "" {
		enc.SetAttr("Variable", label)
	}
	return enc
}

// TestLookupMatchesColdValues: labelled, unlabelled and unreadable
// elements, and a later iteration the reader cannot open, resolve as
// Values() does on a fully decrypted copy, and each variable is opened
// once.
func TestLookupMatchesColdValues(t *testing.T) {
	def := wfdef.Fig9A()
	doc := newFig9Doc(t)
	p := wfdef.Fig9Participants
	wrapper := xmltree.NewElement("Bundle")
	wrapper.AppendChild(Field("attachment", "specs.pdf"))
	appendResult(t, doc, def, "A",
		sealed(t, Field("request", "first"), "request", p["B1"], p["B2"]),
		sealed(t, wrapper, "", p["B1"]))
	appendResult(t, doc, def, "B1", sealed(t, Field("techReview", "sound"), "techReview", p["C"]))
	appendResult(t, doc, def, "A", sealed(t, Field("request", "second"), "request", p["B2"]))
	if err := CheckDeclared(def, doc); err != nil {
		t.Fatal(err)
	}

	key := cache.MustGet(p["B1"])
	cold := doc.Clone()
	if _, err := xmlenc.DecryptVisible(cold.Root, key); err != nil {
		t.Fatal(err)
	}
	want := cold.Values()
	l := NewLookup(doc, def, xmlenc.NewOpener(key))
	for pass := 0; pass < 2; pass++ {
		for _, v := range []string{"request", "attachment", "techReview", "summary"} {
			got, ok, err := l.Value(v)
			if err != nil {
				t.Fatal(err)
			}
			if w, wok := want[v]; got != w || ok != wok {
				t.Fatalf("pass %d: %s = %q, %v; cold %q, %v", pass, v, got, ok, w, wok)
			}
		}
		// request 0, and the unlabelled bundle once for each of the two
		// variables A produces: it may hold either.
		if l.Decrypted != 3 {
			t.Fatalf("pass %d: decrypted %d elements, want 3", pass, l.Decrypted)
		}
	}
	if want["request"] != "first" {
		t.Fatalf("cold request = %q, want the iteration B1 can read", want["request"])
	}
}

// TestLookupRefusesUndeclared: a variable the activity does not produce,
// whether labelled, in plaintext, hidden in an unlabelled element or
// under another variable's label, is refused with ErrUndeclaredVariable.
func TestLookupRefusesUndeclared(t *testing.T) {
	def := wfdef.Fig9A()
	b1 := wfdef.Fig9Participants["B1"]
	for name, c := range map[string]struct {
		result  *xmltree.Node
		checked bool // CheckDeclared sees it without a key
	}{
		"labelled":    {sealed(t, Field("accept", "true"), "accept", b1), true},
		"plaintext":   {Field("accept", "true"), true},
		"unlabelled":  {sealed(t, Field("accept", "true"), "", b1), false},
		"mislabelled": {sealed(t, Field("accept", "true"), "request", b1), false},
	} {
		t.Run(name, func(t *testing.T) {
			doc := newFig9Doc(t)
			appendResult(t, doc, def, "A", c.result)
			err := CheckDeclared(def, doc)
			if c.checked {
				if !errors.Is(err, ErrUndeclaredVariable) {
					t.Fatalf("CheckDeclared = %v, want ErrUndeclaredVariable", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			_, _, err = NewLookup(doc, def, xmlenc.NewOpener(cache.MustGet(b1))).Value("request")
			if !errors.Is(err, ErrUndeclaredVariable) {
				t.Fatalf("Value(request) = %v, want ErrUndeclaredVariable", err)
			}
		})
	}
}

// TestLookupEnv: the routing environment answers from the fresh values
// without decrypting, and a lookup error leaves the variable undefined
// and is kept for Err.
func TestLookupEnv(t *testing.T) {
	def := wfdef.Fig9A()
	b1 := wfdef.Fig9Participants["B1"]
	doc := newFig9Doc(t)
	appendResult(t, doc, def, "A", sealed(t, Field("accept", "true"), "request", b1))
	l := NewLookup(doc, def, xmlenc.NewOpener(cache.MustGet(b1)))
	env := l.Env(map[string]string{"request": "fresh"})
	if v, ok := env.Lookup("request"); !ok || v.Text() != "fresh" || l.Decrypted != 0 || l.Err() != nil {
		t.Fatalf("fresh request = %v, %v; decrypted %d, err %v", v, ok, l.Decrypted, l.Err())
	}
	if _, ok := l.Env(nil).Lookup("request"); ok || !errors.Is(l.Err(), ErrUndeclaredVariable) {
		t.Fatalf("mislabelled request: defined %v, Err() = %v", ok, l.Err())
	}
}
