package expr

import "testing"

// recordingEnv is a MapEnv that notes every name evaluation asks for.
type recordingEnv struct {
	vals   MapEnv
	looked []string
}

func (e *recordingEnv) Lookup(name string) (Value, bool) {
	e.looked = append(e.looked, name)
	return e.vals.Lookup(name)
}

// FuzzExpr parses arbitrary condition text and evaluates whatever parses:
// nothing may panic, and every name evaluation looks up must be one that
// Variables() reports. Routing leans on that: a condition is evaluated
// over an environment that decrypts a variable on first lookup, and the
// variables a definition's conditions name are what the static checks
// reason about. Each parsed expression is evaluated against an empty
// environment, env(), and one binding every reported variable to each of
// the three kinds.
func FuzzExpr(f *testing.F) {
	for _, c := range evalTable {
		f.Add(c.src)
	}
	for _, src := range parseErrors {
		f.Add(src)
	}
	for _, src := range evalErrors {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		e, err := Parse(src)
		if err != nil {
			return
		}
		vars := map[string]bool{}
		for _, v := range e.Variables() {
			vars[v] = true
		}
		envs := []MapEnv{{}, env()}
		for _, val := range []Value{String("x"), Number(1), Bool(true)} {
			bound := MapEnv{}
			for v := range vars {
				bound[v] = val
			}
			envs = append(envs, bound)
		}
		for _, vals := range envs {
			rec := &recordingEnv{vals: vals}
			_, _ = e.Eval(rec)
			for _, name := range rec.looked {
				if !vars[name] {
					t.Fatalf("%q: Eval looked up %q, which Variables() %v omits", src, name, e.Variables())
				}
			}
		}
	})
}
