package monitor

import (
	"testing"
	"time"

	"dra4wfms/internal/aea"
	"dra4wfms/internal/document"
	"dra4wfms/internal/pool"
	"dra4wfms/internal/portal"
	"dra4wfms/internal/testenv"
	"dra4wfms/internal/tfc"
	"dra4wfms/internal/wfdef"
)

var base = time.Date(2026, 7, 6, 13, 0, 0, 0, time.UTC)

type world struct {
	env    *testenv.Env
	table  *pool.Table
	portal *portal.Portal
	server *tfc.Server
	agents map[string]*aea.AEA
	mon    *Monitor
}

func newWorld(t *testing.T) *world {
	t.Helper()
	env := testenv.Fig9(0)
	table, err := pool.NewTable(portal.TableName, portal.Families...)
	if err != nil {
		t.Fatal(err)
	}
	agents := map[string]*aea.AEA{}
	for act, p := range wfdef.Fig9Participants {
		agents[act] = aea.New(env.KeyOf(p), env.Registry)
	}
	tick := base
	clock := func() time.Time { tick = tick.Add(time.Minute); return tick }
	return &world{
		env:    env,
		table:  table,
		portal: portal.New("p1", env.Registry, table, func() time.Time { return base }),
		server: tfc.New(env.KeyOf("tfc@cloud"), env.Registry, clock),
		agents: agents,
		mon:    New(table),
	}
}

// runBasic executes the Figure 9A process once (accepting) under the basic
// model, storing every produced document via the portal.
func (w *world) runBasic(t *testing.T) string {
	t.Helper()
	doc, err := document.New(wfdef.Fig9A(), w.env.KeyOf("designer@acme"), testenv.ProcessID(), base)
	if err != nil {
		t.Fatal(err)
	}
	pid := doc.ProcessID()
	if _, err := w.portal.StoreInitial(doc); err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		act    string
		inputs aea.Inputs
	}{
		{"A", aea.Inputs{"request": "r"}},
		{"B1", aea.Inputs{"techReview": "ok"}},
		{"B2", aea.Inputs{"budgetReview": "ok"}},
		{"C", aea.Inputs{"summary": "s"}},
		{"D", aea.Inputs{"accept": "true"}},
	}
	for _, s := range steps {
		cur, err := w.portal.Retrieve(wfdef.Fig9Participants[s.act], pid)
		if err != nil {
			t.Fatal(err)
		}
		out, err := w.agents[s.act].Execute(cur, s.act, s.inputs, base)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.portal.Store(out.Doc); err != nil {
			t.Fatal(err)
		}
	}
	return pid
}

// runAdvanced executes Fig9B once (accepting) through the TFC.
func (w *world) runAdvanced(t *testing.T) string {
	t.Helper()
	doc, err := document.New(wfdef.Fig9B(), w.env.KeyOf("designer@acme"), testenv.ProcessID(), base)
	if err != nil {
		t.Fatal(err)
	}
	pid := doc.ProcessID()
	if _, err := w.portal.StoreInitial(doc); err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		act    string
		inputs aea.Inputs
	}{
		{"A", aea.Inputs{"request": "r"}},
		{"B1", aea.Inputs{"techReview": "ok"}},
		{"B2", aea.Inputs{"budgetReview": "ok"}},
		{"C", aea.Inputs{"summary": "s"}},
		{"D", aea.Inputs{"accept": "true"}},
	}
	for _, s := range steps {
		cur, err := w.portal.Retrieve(wfdef.Fig9Participants[s.act], pid)
		if err != nil {
			t.Fatal(err)
		}
		interm, err := w.agents[s.act].ExecuteToTFC(cur, s.act, s.inputs)
		if err != nil {
			t.Fatal(err)
		}
		out, err := w.server.Process(interm)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.portal.Store(out.Doc); err != nil {
			t.Fatal(err)
		}
	}
	return pid
}

func TestInstanceStatusBasic(t *testing.T) {
	w := newWorld(t)
	pid := w.runBasic(t)
	st, err := w.mon.InstanceStatus(pid)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "completed" || len(st.Enabled) != 0 {
		t.Fatalf("state = %s enabled = %v", st.State, st.Enabled)
	}
	if len(st.Steps) != 5 {
		t.Fatalf("steps = %d", len(st.Steps))
	}
	if st.Steps[0].Activity != "A" || st.Steps[4].Activity != "D" {
		t.Fatalf("step order: %v", st.Steps)
	}
	if st.Steps[4].Next[0] != wfdef.EndID {
		t.Fatalf("last next = %v", st.Steps[4].Next)
	}
	if !st.Steps[0].Timestamp.IsZero() {
		t.Fatal("basic-model step has a timestamp")
	}
	if st.SizeBytes == 0 || st.Definition != "fig9-review" {
		t.Fatalf("size=%d def=%s", st.SizeBytes, st.Definition)
	}
}

func TestInstanceStatusRunning(t *testing.T) {
	w := newWorld(t)
	doc, _ := document.New(wfdef.Fig9A(), w.env.KeyOf("designer@acme"), testenv.ProcessID(), base)
	w.portal.StoreInitial(doc)
	st, err := w.mon.InstanceStatus(doc.ProcessID())
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "running" || len(st.Enabled) != 1 || st.Enabled[0] != "A" {
		t.Fatalf("status = %+v", st)
	}
	if _, err := w.mon.InstanceStatus("ghost"); err == nil {
		t.Fatal("ghost instance found")
	}
}

func TestStatistics(t *testing.T) {
	w := newWorld(t)
	w.runBasic(t)
	w.runBasic(t)
	// One instance left running.
	doc, _ := document.New(wfdef.Fig9A(), w.env.KeyOf("designer@acme"), testenv.ProcessID(), base)
	w.portal.StoreInitial(doc)

	stats, err := w.mon.Statistics()
	if err != nil {
		t.Fatal(err)
	}
	if stats.InstancesByState["completed"] != 2 || stats.InstancesByState["running"] != 1 {
		t.Fatalf("by state = %v", stats.InstancesByState)
	}
	if stats.InstancesByDefinition["fig9-review"] != 3 {
		t.Fatalf("by definition = %v", stats.InstancesByDefinition)
	}
	if stats.TotalFinalCERs != 10 { // 2 completed runs × 5 activities
		t.Fatalf("total CERs = %d", stats.TotalFinalCERs)
	}
	if stats.MeanDocumentBytes == 0 {
		t.Fatal("mean document size = 0")
	}
}

func TestActivityDurationsAdvanced(t *testing.T) {
	w := newWorld(t)
	pid := w.runAdvanced(t)
	durations, err := w.mon.ActivityDurations(pid)
	if err != nil {
		t.Fatal(err)
	}
	if len(durations) != 5 {
		t.Fatalf("durations = %v", durations)
	}
	for k, d := range durations {
		if d <= 0 {
			t.Fatalf("duration %s = %v", k, d)
		}
	}
	if _, ok := durations["A#0"]; !ok {
		t.Fatalf("missing A#0: %v", durations)
	}
}

func TestActivityDurationsRejectsBasicModel(t *testing.T) {
	w := newWorld(t)
	pid := w.runBasic(t)
	if _, err := w.mon.ActivityDurations(pid); err == nil {
		t.Fatal("durations computed without timestamps")
	}
	if _, err := w.mon.ActivityDurations("ghost"); err == nil {
		t.Fatal("ghost instance accepted")
	}
}

func TestDurationStatistics(t *testing.T) {
	w := newWorld(t)
	// Two advanced instances and one basic (skipped).
	w.runAdvanced(t)
	w.runAdvanced(t)
	w.runBasic(t)

	stats, err := w.mon.DurationStatistics("fig9-review")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Instances != 2 {
		t.Fatalf("instances = %d, want 2", stats.Instances)
	}
	if stats.SkippedNoTimestamps != 1 {
		t.Fatalf("skipped = %d, want 1", stats.SkippedNoTimestamps)
	}
	if len(stats.PerActivity) != 5 {
		t.Fatalf("activities = %v", stats.PerActivity)
	}
	for act, d := range stats.PerActivity {
		if d <= 0 {
			t.Fatalf("activity %s mean duration %v", act, d)
		}
	}
	// Unknown definition yields an empty report.
	empty, err := w.mon.DurationStatistics("nope")
	if err != nil || empty.Instances != 0 || len(empty.PerActivity) != 0 {
		t.Fatalf("empty stats = %+v, %v", empty, err)
	}
}

// TestDurationStatisticsEmptyPool: the mapreduce job over a table with no
// documents must yield a well-formed empty report, not an error or nil
// maps.
func TestDurationStatisticsEmptyPool(t *testing.T) {
	w := newWorld(t)
	stats, err := w.mon.DurationStatistics("fig9-review")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Definition != "fig9-review" {
		t.Errorf("definition = %q", stats.Definition)
	}
	if stats.Instances != 0 || stats.SkippedNoTimestamps != 0 {
		t.Errorf("instances/skipped = %d/%d, want 0/0", stats.Instances, stats.SkippedNoTimestamps)
	}
	if stats.PerActivity == nil {
		t.Error("PerActivity is nil, want empty map")
	}
	if len(stats.PerActivity) != 0 {
		t.Errorf("PerActivity = %v, want empty", stats.PerActivity)
	}
}

// TestDurationStatisticsNoMatchingInstances: a populated pool whose
// documents all belong to other definitions contributes nothing — and is
// not counted as skipped either (skipped means matched but untimestamped).
func TestDurationStatisticsNoMatchingInstances(t *testing.T) {
	w := newWorld(t)
	w.runBasic(t)
	stats, err := w.mon.DurationStatistics("some-other-definition")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Instances != 0 || stats.SkippedNoTimestamps != 0 {
		t.Errorf("instances/skipped = %d/%d, want 0/0", stats.Instances, stats.SkippedNoTimestamps)
	}
	if stats.PerActivity == nil || len(stats.PerActivity) != 0 {
		t.Errorf("PerActivity = %v, want empty non-nil", stats.PerActivity)
	}
}

// TestDurationStatisticsAllBasic: basic-model instances carry no TFC
// timestamps, so a pool of only basic runs reports every instance as
// skipped and aggregates nothing.
func TestDurationStatisticsAllBasic(t *testing.T) {
	w := newWorld(t)
	w.runBasic(t)
	w.runBasic(t)
	stats, err := w.mon.DurationStatistics("fig9-review")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Instances != 0 {
		t.Errorf("instances = %d, want 0", stats.Instances)
	}
	if stats.SkippedNoTimestamps != 2 {
		t.Errorf("skipped = %d, want 2", stats.SkippedNoTimestamps)
	}
	if stats.PerActivity == nil || len(stats.PerActivity) != 0 {
		t.Errorf("PerActivity = %v, want empty non-nil", stats.PerActivity)
	}
}
