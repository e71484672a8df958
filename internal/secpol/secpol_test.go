package secpol

import (
	"errors"
	"strings"
	"testing"

	"dra4wfms/internal/document"
	"dra4wfms/internal/expr"
	"dra4wfms/internal/testenv"
	"dra4wfms/internal/wfdef"
	"dra4wfms/internal/xmlenc"
)

func TestRecipientsResolution(t *testing.T) {
	env := testenv.Fig4(0)
	def := wfdef.Fig4()
	p := wfdef.Fig4Participants

	recips, err := Recipients(def, env.Registry, "X")
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]bool{}
	for _, r := range recips {
		ids[r.ID] = true
	}
	if !ids[p.Amy] || !ids["tfc@cloud"] || len(ids) != 2 {
		t.Fatalf("Recipients(X) = %v", ids)
	}

	// Default readers for a variable without a rule.
	recips, err = Recipients(def, env.Registry, "reviewed")
	if err != nil {
		t.Fatal(err)
	}
	if len(recips) != 5 {
		t.Fatalf("Recipients(reviewed) = %d, want 5 defaults", len(recips))
	}
}

func TestRecipientsErrors(t *testing.T) {
	env := testenv.Fig4(0)
	def := wfdef.Fig4()

	// Unregistered reader.
	def2 := *def
	def2.Policy.Rules = append([]wfdef.ReadRule{}, def.Policy.Rules...)
	def2.Policy.Rules[0].Readers = []string{"ghost@nowhere"}
	if _, err := Recipients(&def2, env.Registry, def2.Policy.Rules[0].Variable); err == nil {
		t.Fatal("unregistered reader accepted")
	}

	// No readers at all.
	def3 := *def
	def3.Policy.DefaultReaders = nil
	if _, err := Recipients(&def3, env.Registry, "no-rule-var"); err == nil {
		t.Fatal("variable without readers accepted")
	}

	// TFCReader with no TFC configured.
	def4 := *def
	def4.Policy.TFC = ""
	if _, err := Recipients(&def4, env.Registry, "X"); err == nil {
		t.Fatal("TFC reader without TFC accepted")
	}
}

func TestEncryptFieldsPolicy(t *testing.T) {
	env := testenv.Fig4(0)
	def := wfdef.Fig4()
	p := wfdef.Fig4Participants

	fields, err := EncryptFields(nil, "", def, env.Registry, "A1", 0, map[string]string{
		"X": "1500",
		"Y": "confidential payload",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(fields) != 2 {
		t.Fatalf("fields = %d", len(fields))
	}
	// Sorted variable order: X then Y.
	if fields[0].AttrDefault("Variable", "") != "X" || fields[1].AttrDefault("Variable", "") != "Y" {
		t.Fatalf("field order: %s, %s", fields[0].AttrDefault("Variable", ""), fields[1].AttrDefault("Variable", ""))
	}
	for _, f := range fields {
		if !xmlenc.IsEncrypted(f) {
			t.Fatalf("field %s not encrypted", f.AttrDefault("Variable", ""))
		}
	}
	// Amy can read X but not Y.
	if !xmlenc.CanDecrypt(fields[0], p.Amy) || xmlenc.CanDecrypt(fields[1], p.Amy) {
		t.Fatal("X/Y recipient sets wrong for Amy")
	}
	// Tony (the Figure 4 victim) can read neither.
	if xmlenc.CanDecrypt(fields[0], p.Tony) || xmlenc.CanDecrypt(fields[1], p.Tony) {
		t.Fatal("Tony can read concealed variables")
	}
	// Decrypt X as Amy and check the plaintext Field.
	plain, err := xmlenc.Decrypt(fields[0], env.KeyOf(p.Amy))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := document.FieldValue(plain, "X"); !ok || v != "1500" {
		t.Fatalf("decrypted X = %q, %v", v, ok)
	}
}

func TestEnv(t *testing.T) {
	e := Env(map[string]string{"n": "42", "b": "true", "s": "hi"})
	if v, _ := e.Lookup("n"); v.Kind != expr.NumberKind || v.Num != 42 {
		t.Fatalf("n = %+v", v)
	}
	if v, _ := e.Lookup("b"); v.Kind != expr.BoolKind || !v.Bool {
		t.Fatalf("b = %+v", v)
	}
	if v, _ := e.Lookup("s"); v.Kind != expr.StringKind || v.Str != "hi" {
		t.Fatalf("s = %+v", v)
	}
	if _, ok := e.Lookup("missing"); ok {
		t.Fatal("missing found")
	}
}

func routeDef() *wfdef.Definition {
	return wfdef.NewBuilder("route", "d@x").
		Activity("A", "", "p@x").Response("v", "number", true).Split(wfdef.SplitXOR).Done().
		Activity("B", "", "p@x").Done().
		Activity("C", "", "p@x").Done().
		Start("A").
		EdgeIf("A", "B", "v > 10").
		Edge("A", "C"). // default branch
		End("B", "C").
		MustBuild()
}

func TestRouteXOR(t *testing.T) {
	def := routeDef()
	act := def.Activity("A")

	next, err := Route(def, act, Env(map[string]string{"v": "11"}))
	if err != nil || strings.Join(next, ",") != "B" {
		t.Fatalf("Route(v=11) = %v, %v", next, err)
	}
	next, err = Route(def, act, Env(map[string]string{"v": "5"}))
	if err != nil || strings.Join(next, ",") != "C" {
		t.Fatalf("Route(v=5, default) = %v, %v", next, err)
	}
	// Concealed variable.
	_, err = Route(def, act, Env(nil))
	if !errors.Is(err, ErrUnreadableCondition) {
		t.Fatalf("Route(no env) err = %v, want ErrUnreadableCondition", err)
	}
}

func TestRouteXORNoDefault(t *testing.T) {
	def := wfdef.NewBuilder("route", "d@x").
		Activity("A", "", "p@x").Response("v", "number", true).Split(wfdef.SplitXOR).Done().
		Activity("B", "", "p@x").Done().
		Activity("C", "", "p@x").Done().
		Start("A").
		EdgeIf("A", "B", "v > 10").
		EdgeIf("A", "C", "v < 0").
		End("B", "C").
		MustBuild()
	_, err := Route(def, def.Activity("A"), Env(map[string]string{"v": "5"}))
	if !errors.Is(err, ErrNoBranch) {
		t.Fatalf("err = %v, want ErrNoBranch", err)
	}
}

func TestRouteANDAndSequence(t *testing.T) {
	def := wfdef.Fig9A()
	next, err := Route(def, def.Activity("A"), Env(nil))
	if err != nil || strings.Join(next, ",") != "B1,B2" {
		t.Fatalf("AND-split route = %v, %v", next, err)
	}
	next, err = Route(def, def.Activity("B1"), Env(nil))
	if err != nil || strings.Join(next, ",") != "C" {
		t.Fatalf("sequence route = %v, %v", next, err)
	}
	// XOR at D.
	next, err = Route(def, def.Activity("D"), Env(map[string]string{"accept": "true"}))
	if err != nil || strings.Join(next, ",") != wfdef.EndID {
		t.Fatalf("accept route = %v, %v", next, err)
	}
	next, err = Route(def, def.Activity("D"), Env(map[string]string{"accept": "false"}))
	if err != nil || strings.Join(next, ",") != "A" {
		t.Fatalf("loop route = %v, %v", next, err)
	}
}

func TestRouteGuardedSequence(t *testing.T) {
	def := wfdef.NewBuilder("g", "d@x").
		Activity("A", "", "p@x").Response("ok", "bool", true).Done().
		Activity("B", "", "p@x").Join(wfdef.JoinNone).Done().
		Start("A").
		EdgeIf("A", "B", "ok == true").
		End("B").
		MustBuild()
	act := def.Activity("A")
	if next, err := Route(def, act, Env(map[string]string{"ok": "true"})); err != nil || len(next) != 1 {
		t.Fatalf("guarded edge true: %v, %v", next, err)
	}
	if _, err := Route(def, act, Env(map[string]string{"ok": "false"})); !errors.Is(err, ErrNoBranch) {
		t.Fatalf("guarded edge false: %v", err)
	}
}
