package engine

import (
	"errors"
	"sync"
	"testing"
	"time"

	"dra4wfms/internal/wfdef"
)

var base = time.Date(2026, 7, 6, 14, 0, 0, 0, time.UTC)

func clock() func() time.Time {
	t := base
	return func() time.Time { t = t.Add(time.Second); return t }
}

func p(act string) string { return wfdef.Fig9Participants[act] }

// runFig9 executes the Figure 9A process on an engine, looping once.
func runFig9(t *testing.T, e *Engine) string {
	t.Helper()
	if err := e.Deploy(wfdef.Fig9A()); err != nil {
		t.Fatal(err)
	}
	id, err := e.CreateInstance("fig9-review")
	if err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		act    string
		inputs map[string]string
	}{
		{"A", map[string]string{"request": "r"}},
		{"B1", map[string]string{"techReview": "ok"}},
		{"B2", map[string]string{"budgetReview": "ok"}},
		{"C", map[string]string{"summary": "s"}},
		{"D", map[string]string{"accept": "false"}}, // loop back
		{"A", map[string]string{"request": "r2"}},
		{"B1", map[string]string{"techReview": "ok"}},
		{"B2", map[string]string{"budgetReview": "ok"}},
		{"C", map[string]string{"summary": "s2"}},
		{"D", map[string]string{"accept": "true"}},
	}
	for _, s := range steps {
		if _, err := e.Execute(id, s.act, p(s.act), s.inputs); err != nil {
			t.Fatalf("execute %s: %v", s.act, err)
		}
	}
	return id
}

func TestCentralizedFullRun(t *testing.T) {
	e := New("engine-1", clock())
	id := runFig9(t, e)
	in, err := e.Instance(id)
	if err != nil {
		t.Fatal(err)
	}
	if !in.Completed {
		t.Fatal("instance not completed")
	}
	if len(in.History) != 10 {
		t.Fatalf("history = %d steps", len(in.History))
	}
	if in.History[9].Activity != "D" || in.History[9].Iteration != 1 {
		t.Fatalf("last step = %+v", in.History[9])
	}
	if in.Values["accept"] != "true" || in.Values["summary"] != "s2" {
		t.Fatalf("values = %v", in.Values)
	}
	if _, err := e.Execute(id, "A", p("A"), nil); !errors.Is(err, ErrCompleted) {
		t.Fatalf("execution after completion: %v", err)
	}
}

func TestEngineChecks(t *testing.T) {
	e := New("engine-1", clock())
	if err := e.Deploy(wfdef.Fig9A()); err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateInstance("nope"); !errors.Is(err, ErrUnknownDefinition) {
		t.Fatalf("unknown def: %v", err)
	}
	id, _ := e.CreateInstance("fig9-review")

	if _, err := e.Execute("ghost", "A", p("A"), nil); !errors.Is(err, ErrUnknownInstance) {
		t.Fatalf("ghost instance: %v", err)
	}
	if _, err := e.Execute(id, "ZZ", p("A"), nil); err == nil {
		t.Fatal("unknown activity accepted")
	}
	if _, err := e.Execute(id, "A", "mallory", nil); !errors.Is(err, ErrNotParticipant) {
		t.Fatalf("wrong participant: %v", err)
	}
	if _, err := e.Execute(id, "D", p("D"), nil); !errors.Is(err, ErrNotEnabled) {
		t.Fatalf("not enabled: %v", err)
	}
	bad := wfdef.Fig9A()
	bad.Activities = nil
	if err := e.Deploy(bad); err == nil {
		t.Fatal("invalid definition deployed")
	}
}

func TestWorklist(t *testing.T) {
	e := New("engine-1", clock())
	e.Deploy(wfdef.Fig9A())
	id1, _ := e.CreateInstance("fig9-review")
	id2, _ := e.CreateInstance("fig9-review")
	items := e.Worklist(p("A"))
	if len(items) != 2 {
		t.Fatalf("worklist = %v", items)
	}
	e.Execute(id1, "A", p("A"), map[string]string{"request": "r"})
	items = e.Worklist(p("A"))
	if len(items) != 1 || items[0].InstanceID != id2 {
		t.Fatalf("worklist after execute = %v", items)
	}
	if got := e.Worklist(p("B1")); len(got) != 1 || got[0].InstanceID != id1 {
		t.Fatalf("B1 worklist = %v", got)
	}
}

func TestANDJoinTokens(t *testing.T) {
	e := New("engine-1", clock())
	e.Deploy(wfdef.Fig9A())
	id, _ := e.CreateInstance("fig9-review")
	e.Execute(id, "A", p("A"), map[string]string{"request": "r"})
	e.Execute(id, "B1", p("B1"), map[string]string{"techReview": "x"})
	// C needs both branches.
	if _, err := e.Execute(id, "C", p("C"), map[string]string{"summary": "s"}); !errors.Is(err, ErrNotEnabled) {
		t.Fatalf("AND-join with one token: %v", err)
	}
	e.Execute(id, "B2", p("B2"), map[string]string{"budgetReview": "y"})
	if _, err := e.Execute(id, "C", p("C"), map[string]string{"summary": "s"}); err != nil {
		t.Fatalf("AND-join with both tokens: %v", err)
	}
}

// TestSuperuserTamperIsUndetectable reproduces the paper's core negative
// result: the engine store can be silently rewritten.
func TestSuperuserTamperIsUndetectable(t *testing.T) {
	e := New("engine-1", clock())
	id := runFig9(t, e)

	before, _ := e.Instance(id)
	if before.History[0].Values["request"] != "r" {
		t.Fatalf("precondition: %v", before.History[0].Values)
	}

	su := e.Superuser()
	if err := su.TamperResult(id, "A", 0, "request", "FORGED ORDER"); err != nil {
		t.Fatal(err)
	}
	after, _ := e.Instance(id)
	if after.History[0].Values["request"] != "FORGED ORDER" {
		t.Fatal("tamper did not take effect")
	}
	// ... and the engine's own integrity check is blind to it.
	if err := e.VerifyInstance(id); err != nil {
		t.Fatalf("VerifyInstance reported %v — the baseline cannot detect tampering by design", err)
	}

	// The audit log itself can be rewritten.
	if err := su.EraseStep(id, "B1", 0); err != nil {
		t.Fatal(err)
	}
	erased, _ := e.Instance(id)
	if len(erased.History) != len(after.History)-1 {
		t.Fatal("step not erased")
	}
	if err := e.VerifyInstance(id); err != nil {
		t.Fatalf("VerifyInstance after log rewrite: %v", err)
	}

	// Error paths.
	if err := su.TamperResult("ghost", "A", 0, "x", "y"); err == nil {
		t.Fatal("tamper on ghost instance")
	}
	if err := su.TamperResult(id, "ZZ", 0, "x", "y"); err == nil {
		t.Fatal("tamper on ghost step")
	}
	if err := su.EraseStep(id, "ZZ", 9); err == nil {
		t.Fatal("erase of ghost step")
	}
}

func TestInstanceSnapshotIsolated(t *testing.T) {
	e := New("engine-1", clock())
	id := runFig9(t, e)
	snap, _ := e.Instance(id)
	snap.Values["accept"] = "mutated"
	snap.History[0].Values["request"] = "mutated"
	fresh, _ := e.Instance(id)
	if fresh.Values["accept"] != "true" || fresh.History[0].Values["request"] != "r" {
		t.Fatal("snapshot mutation leaked into engine state")
	}
}

func TestEngineConcurrentInstances(t *testing.T) {
	// Many goroutines driving separate instances against one engine — the
	// shared-state serialization point the paper criticizes — must be
	// data-race free and fully consistent.
	e := New("engine-1", clock())
	if err := e.Deploy(wfdef.Fig9A()); err != nil {
		t.Fatal(err)
	}
	const n = 16
	ids := make([]string, n)
	for i := range ids {
		id, err := e.CreateInstance("fig9-review")
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			steps := []struct {
				act string
				in  map[string]string
			}{
				{"A", map[string]string{"request": "r"}},
				{"B1", map[string]string{"techReview": "ok"}},
				{"B2", map[string]string{"budgetReview": "ok"}},
				{"C", map[string]string{"summary": "s"}},
				{"D", map[string]string{"accept": "true"}},
			}
			for _, s := range steps {
				if _, err := e.Execute(id, s.act, p(s.act), s.in); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, id)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
	}
	for _, id := range ids {
		in, err := e.Instance(id)
		if err != nil || !in.Completed || len(in.History) != 5 {
			t.Fatalf("instance %s: %+v, %v", id, in, err)
		}
	}
}
