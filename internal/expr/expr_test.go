package expr

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func env() MapEnv {
	return MapEnv{
		"amount":     Number(15000),
		"status":     String("approved"),
		"attachment": String(""),
		"comment":    String("looks good"),
		"ok":         Bool(true),
		"retries":    Number(2),
	}
}

// evalTable holds conditions and their value in env(); FuzzExpr seeds
// from it too.
var evalTable = []struct {
	src  string
	want bool
}{
	{`amount > 10000`, true},
	{`amount >= 15000`, true},
	{`amount < 15000`, false},
	{`amount <= 14999`, false},
	{`status == "approved"`, true},
	{`status = "approved"`, true}, // paper notation Func(X)=True
	{`status != "rejected"`, true},
	{`ok`, true},
	{`!ok`, false},
	{`ok && amount > 0`, true},
	{`ok && amount < 0`, false},
	{`!ok || amount > 0`, true},
	{`len(attachment) == 0`, true},
	{`len(comment) > 5`, true},
	{`contains(comment, "good")`, true},
	{`contains(comment, "bad")`, false},
	{`startswith(comment, "looks")`, true},
	{`(amount > 10000 && status == "approved") || retries >= 3`, true},
	{`amount + 1000 == 16000`, true},
	{`amount - 5000 == 10000`, true},
	{`amount * 2 > 29999`, true},
	{`amount / 3 < 5001`, true},
	{`-amount < 0`, true},
	{`num("42") == 42`, true},
	{`true`, true},
	{`True`, true},
	{`false`, false},
	{`False`, false},
	{`"b" > "a"`, true},
	{`defined(amount)`, true},
	{`retries >= 3`, false},
}

func TestEvalTable(t *testing.T) {
	for _, c := range evalTable {
		e, err := Parse(c.src)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.src, err)
			continue
		}
		got, err := e.EvalBool(env())
		if err != nil {
			t.Errorf("Eval(%q): %v", c.src, err)
			continue
		}
		if got != c.want {
			t.Errorf("Eval(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}

// parseErrors are sources Parse refuses.
var parseErrors = []string{
	``, `   `, `amount >`, `(amount`, `amount))`, `"unterminated`,
	`nosuchfn(1)`, `amount @ 2`, `"bad \q escape"`, `x ==`, `&& y`,
}

func TestParseErrors(t *testing.T) {
	for _, src := range parseErrors {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

// evalErrors parse but fail to evaluate in env().
var evalErrors = []string{
	`missing > 1`,            // undefined variable
	`amount && ok`,           // non-bool logical operand
	`!amount`,                // non-bool negation
	`amount == status`,       // cross-type equality
	`ok < true`,              // ordering bools
	`amount + status`,        // mixed +
	`status - "x"`,           // strings with -
	`amount / 0`,             // division by zero
	`len(amount)`,            // len of number
	`contains(amount, "x")`,  // wrong arg type
	`num(ok)`,                // num of bool
	`num("not-a-number")`,    // unparsable
	`len("a", "b")`,          // arity
	`5 > 1 && missing == ""`, // error on RHS after short-circuit passes
}

func TestEvalErrors(t *testing.T) {
	for _, src := range evalErrors {
		e, err := Parse(src)
		if err != nil {
			t.Errorf("Parse(%q) failed at parse time: %v (want eval-time error)", src, err)
			continue
		}
		if _, err := e.Eval(env()); err == nil {
			t.Errorf("Eval(%q) succeeded, want error", src)
		}
	}
}

func TestUndefinedVariableErrorIsTyped(t *testing.T) {
	e := MustParse(`concealed == "x"`)
	_, err := e.Eval(MapEnv{})
	if !errors.Is(err, ErrUndefinedVariable) {
		t.Fatalf("err = %v, want ErrUndefinedVariable", err)
	}
}

func TestShortCircuit(t *testing.T) {
	// RHS with undefined variable is never evaluated when LHS decides.
	e := MustParse(`false && missing == 1`)
	if got, err := e.EvalBool(env()); err != nil || got {
		t.Fatalf("short-circuit && failed: %v %v", got, err)
	}
	e = MustParse(`true || missing == 1`)
	if got, err := e.EvalBool(env()); err != nil || !got {
		t.Fatalf("short-circuit || failed: %v %v", got, err)
	}
}

func TestEvalBoolRequiresBool(t *testing.T) {
	e := MustParse(`amount + 1`)
	if _, err := e.EvalBool(env()); err == nil {
		t.Fatal("EvalBool of numeric expression succeeded")
	}
}

func TestVariables(t *testing.T) {
	e := MustParse(`amount > 0 && contains(status, comment) || amount < 5`)
	got := e.Variables()
	want := []string{"amount", "status", "comment"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("Variables = %v, want %v", got, want)
	}
	if vars := MustParse(`1 + 2 == 3`).Variables(); len(vars) != 0 {
		t.Fatalf("literal expression has variables %v", vars)
	}
}

func TestPrecedence(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{`1 + 2 * 3 == 7`, true},
		{`(1 + 2) * 3 == 9`, true},
		{`2 * 3 + 1 == 7`, true},
		{`10 - 2 - 3 == 5`, true},        // left assoc
		{`12 / 2 / 3 == 2`, true},        // left assoc
		{`true || false && false`, true}, // && binds tighter
		{`!false && true`, true},
	}
	for _, c := range cases {
		got, err := MustParse(c.src).EvalBool(MapEnv{})
		if err != nil || got != c.want {
			t.Errorf("Eval(%q) = %v, %v; want %v", c.src, got, err, c.want)
		}
	}
}

func TestStringEscapes(t *testing.T) {
	e := MustParse(`x == "a\"b\\c\nd\te"`)
	got, err := e.EvalBool(MapEnv{"x": String("a\"b\\c\nd\te")})
	if err != nil || !got {
		t.Fatalf("escape handling: %v %v", got, err)
	}
}

func TestCanonicalStringRoundTrip(t *testing.T) {
	// Parse → String → Parse must preserve evaluation behaviour.
	sources := []string{
		`amount > 10000 && status == "approved"`,
		`!ok || (retries >= 3 && len(attachment) == 0)`,
		`contains(comment, "good") != false`,
		`-amount + 15000 == 0`,
		`num("3.5") * 2 == 7`,
	}
	for _, src := range sources {
		e1 := MustParse(src)
		e2, err := Parse(e1.String())
		if err != nil {
			t.Errorf("reparse of %q (%q) failed: %v", src, e1.String(), err)
			continue
		}
		v1, err1 := e1.Eval(env())
		v2, err2 := e2.Eval(env())
		if (err1 == nil) != (err2 == nil) || v1 != v2 {
			t.Errorf("round trip changed semantics for %q: %v/%v vs %v/%v", src, v1, err1, v2, err2)
		}
	}
}

func TestValueTextRoundTrip(t *testing.T) {
	f := func(n float64, s string, b bool) bool {
		if FromText(Number(n).Text()).Num != n && !(n != n) { // NaN excluded
			return false
		}
		if FromText(Bool(b).Text()).Bool != b {
			return false
		}
		// Strings that *look like* numbers or bools intentionally re-parse
		// as those kinds; plain strings survive.
		v := FromText(s)
		if v.Kind == StringKind && v.Str != s {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestFromTextKinds(t *testing.T) {
	if FromText("true").Kind != BoolKind || FromText("false").Kind != BoolKind {
		t.Fatal("bool text not detected")
	}
	if FromText("3.25").Kind != NumberKind {
		t.Fatal("number text not detected")
	}
	if FromText("hello").Kind != StringKind {
		t.Fatal("plain string misdetected")
	}
}

func TestSourcePreserved(t *testing.T) {
	src := `amount > 10`
	if got := MustParse(src).Source(); got != src {
		t.Fatalf("Source = %q", got)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse of invalid source did not panic")
		}
	}()
	MustParse(`((`)
}

func TestExtendedBuiltins(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{`min(3, 1, 2) == 1`, true},
		{`max(3, 1, 2) == 3`, true},
		{`min(5) == 5`, true},
		{`abs(-4) == 4`, true},
		{`abs(4) == 4`, true},
		{`upper("abc") == "ABC"`, true},
		{`lower("AbC") == "abc"`, true},
		{`trim("  x  ") == "x"`, true},
		{`max(amount, 20000) == 20000`, true},
	}
	for _, c := range cases {
		got, err := MustParse(c.src).EvalBool(env())
		if err != nil || got != c.want {
			t.Errorf("Eval(%q) = %v, %v; want %v", c.src, got, err, c.want)
		}
	}
	bad := []string{
		`min()`, `min("a")`, `max(true)`, `abs("x")`, `abs(1, 2)`,
		`upper(1)`, `lower(true)`, `trim(3)`,
	}
	for _, src := range bad {
		if _, err := MustParse(src).Eval(env()); err == nil {
			t.Errorf("Eval(%q) succeeded, want error", src)
		}
	}
}

// TestPropParserNeverPanics: Parse must reject or accept arbitrary input,
// never panic (routing code feeds it designer-controlled text).
func TestPropParserNeverPanics(t *testing.T) {
	f := func(src string) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Parse(%q) panicked: %v", src, r)
			}
		}()
		e, err := Parse(src)
		if err == nil && e != nil {
			// Evaluation must not panic either.
			_, _ = e.Eval(env())
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	// Targeted nasties.
	for _, src := range []string{
		"((((((((((", "!!!!!!!", "a=====b", "\"", "\\", "\x00", "1..2..3",
		"min(min(min(min(", ")(", "a&&&&b", "-", "--", "- -", "&& ||",
	} {
		_, _ = Parse(src)
	}
}
