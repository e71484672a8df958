package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sync"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentilePicker(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{99, 0}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	xs := make([]float64, 199)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, err := percentile(xs, 95); err == nil {
		t.Error("p95 of 199 samples was not refused")
	}
	xs = append(xs, 199)
	p95, err := percentile(xs, 95)
	if err != nil || !near(p95, 0.95*199) {
		t.Errorf("p95 of 0..199 = %g, %v", p95, err)
	}
	if !near(median([]float64{4, 1, 3, 2}), 2.5) {
		t.Error("median of an even count")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles = %g, %g", q1, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %g", got)
	}
}

// An open-loop operation is timed from when it was due, so a stall in one
// operation shows in the latency of those queued behind it.
func TestScheduleTimesFromDueUnderStall(t *testing.T) {
	const stall = 60 * time.Millisecond
	dues := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	latency := make([]time.Duration, len(dues))
	lateness := make([]time.Duration, len(dues))
	start := time.Now()
	runSchedule(1, start, dues, func(_, i int, due, woke time.Time) {
		if !due.Equal(start.Add(dues[i])) {
			t.Errorf("op %d due %v after start, want %v", i, due.Sub(start), dues[i])
		}
		if i == 0 {
			time.Sleep(stall)
		}
		lateness[i] = woke.Sub(due)
		latency[i] = time.Since(due)
	})
	if latency[0] < stall {
		t.Errorf("stalled op latency %v", latency[0])
	}
	for i := 1; i < len(dues); i++ {
		if want := stall - dues[i]; lateness[i] < want || latency[i] < want {
			t.Errorf("op %d: lateness %v latency %v, want at least %v (the stall it queued behind)", i, lateness[i], latency[i], want)
		}
	}
}

func TestScheduleNeverStartsEarlyAndUsesAllClients(t *testing.T) {
	dues := make([]time.Duration, 8)
	for i := range dues {
		dues[i] = time.Duration(i) * 5 * time.Millisecond
	}
	var mu sync.Mutex
	clients := map[int]bool{}
	runSchedule(2, time.Now(), dues, func(c, i int, due, woke time.Time) {
		if woke.Before(due) {
			t.Errorf("op %d started %v early", i, due.Sub(woke))
		}
		time.Sleep(8 * time.Millisecond)
		mu.Lock()
		clients[c] = true
		mu.Unlock()
	})
	if len(clients) != 2 {
		t.Errorf("clients used: %v", clients)
	}
}

func TestPlanIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a := makePlan(w, 7, 1, 6*time.Second)
		b := makePlan(w, 7, 1, 6*time.Second)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed, different plans", w.Name)
		}
		for _, other := range []plan{makePlan(w, 8, 1, 6*time.Second), makePlan(w, 7, 2, 6*time.Second)} {
			if reflect.DeepEqual(a, other) {
				t.Errorf("%s: a different seed or round gave the same plan", w.Name)
			}
		}
		if len(a.Instances)+len(a.Ops) == 0 {
			t.Errorf("%s: empty plan", w.Name)
		}
	}
}

func TestMixedPlanKeepsItsMixAndNeverOverdrawsAnInstance(t *testing.T) {
	w, _ := workloadByName("monitor-mixed")
	pl := makePlan(w, 3, 0, 7*time.Second)
	if want := int(w.Rate * 7); len(pl.Ops) != want {
		t.Fatalf("%d ops, want %d", len(pl.Ops), want)
	}
	count := map[opKind]int{}
	hopsOn := map[int]int{}
	for i, o := range pl.Ops {
		count[o.Kind]++
		if o.Kind == opHop {
			hopsOn[o.Target]++
		}
		if want := time.Duration(float64(i) / w.Rate * float64(time.Second)); o.Due != want {
			t.Fatalf("op %d due %v, want %v", i, o.Due, want)
		}
	}
	if got := float64(count[opHop]) / float64(len(pl.Ops)); math.Abs(got-0.35) > 0.02 {
		t.Errorf("hop share %.3f, want 0.35 (every hop slot must find a stopped instance)", got)
	}
	if got := float64(count[opStats]) / float64(len(pl.Ops)); math.Abs(got-0.05) > 0.01 {
		t.Errorf("stats share %.3f, want 0.05", got)
	}
	completed := 0
	for i, s := range pl.Preload {
		if s.StopAfter == s.hopsTotal() {
			completed++
		}
		if s.StopAfter < 1 || s.StopAfter+hopsOn[i] > s.hopsTotal() {
			t.Errorf("instance %d: stopped after %d, %d more hops scheduled, only %d in all", i, s.StopAfter, hopsOn[i], s.hopsTotal())
		}
	}
	if completed != len(pl.Preload)/2 {
		t.Errorf("%d of %d preloaded instances completed, want half", completed, len(pl.Preload))
	}
}

func TestDeepCascadeSpec(t *testing.T) {
	s := instanceSpec{Rejects: 7}
	if s.hopsTotal() != 40 {
		t.Fatalf("hops %d", s.hopsTotal())
	}
	if act, iter := s.step(39); act != "D" || iter != 7 {
		t.Errorf("last step %s#%d", act, iter)
	}
	if s.inputs("D", 6)["accept"] != "false" || s.inputs("D", 7)["accept"] != "true" {
		t.Error("D must reject seven times and then accept")
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "hop", Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 20, End: 50}, // overlaps the next one
		{ID: 3, Parent: 1, Start: 10, End: 30},
		{ID: 4, Parent: 1, Start: 60, End: 120}, // clipped to the parent
		{ID: 5, Parent: 2, Start: 25, End: 35},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 20, 2: 20, 3: 20, 4: 60, 5: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestBoundComparison(t *testing.T) {
	lower := metricDef{Name: "hop_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "hops_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		m          metricDef
		base, cand float64
		want       bool
	}{
		{lower, 100, 109, true}, {lower, 100, 111, false}, {lower, 100, 50, true},
		{higher, 100, 91, true}, {higher, 100, 89, false}, {higher, 100, 150, true},
	} {
		if got := withinBound(c.m, c.base, c.cand); got != c.want {
			t.Errorf("%s: %g -> %g within bound = %v, want %v", c.m.Name, c.base, c.cand, got, c.want)
		}
	}
	set := func(hop, setup float64) *resultSet {
		return &resultSet{Runs: []*runResult{{Workload: workloads[0], Metrics: map[string]metricValue{
			"hop_p50_ms": {Value: hop}, "setup_s": {Value: setup},
		}}}}
	}
	// setup_s may differ by half a second whatever its share.
	if !compareSets(io.Discard, []*resultSet{set(20, 0.3), set(21, 0.7)}) {
		t.Error("sets within bound and slack were reported as disagreeing")
	}
	if compareSets(io.Discard, []*resultSet{set(20, 0.3), set(26, 0.3)}) {
		t.Error("a 30% difference in hop_p50_ms passed its 25% bound")
	}
	if compareSets(io.Discard, []*resultSet{set(20, 2), set(20, 3)}) {
		t.Error("a one-second, 50% difference in setup_s passed")
	}
}

func TestScrapeSumsSamplesByName(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "# HELP x\n# TYPE pool_wal_appends_total counter\npool_wal_appends_total 7\n"+
			"http_requests_total{route=\"GET /v1/worklist\",code=\"200\"} 3\nhttp_requests_total{route=\"POST /v1/documents\",code=\"200\"} 2\n\ngarbage\n")
	}))
	defer srv.Close()
	got := scrapeOne(srv.Client(), srv.URL)
	if got["pool_wal_appends_total"] != 7 || got["http_requests_total"] != 5 || len(got) != 2 {
		t.Errorf("scraped %v", got)
	}
}

// The catalogue in this package and BENCHMARK.json at the repository root
// name the same metrics, bounds, workloads and run length.
func TestCatalogueMatchesManifest(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no manifest beside the benchmark: %v", err)
	}
	var m struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []layerDef  `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, catalogue %d", m.RunSeconds, defaultSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the manifest, %d in the catalogue", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.Name || m.Workloads[i].Why != w.Why {
			t.Errorf("workload %d differs: %+v", i, m.Workloads[i])
		}
		if len(w.Why) > 200 || !name.MatchString(w.Name) {
			t.Errorf("%s: name or why (%d chars) breaks the contract", w.Name, len(w.Why))
		}
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in the manifest, %d in the catalogue", len(m.EndToEnd), len(endToEnd))
	}
	for i, e := range endToEnd {
		g := m.EndToEnd[i]
		if g.Name != e.Name || g.Unit != e.Unit || g.Better != e.Better || g.Bound != e.Bound {
			t.Errorf("end-to-end metric %d differs: manifest %+v, catalogue %+v", i, g, e)
		}
		if !name.MatchString(e.Name) || !unit.MatchString(e.Unit) || e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s breaks the contract", e.Name)
		}
	}
	if len(m.PerLayer) != len(perLayer) {
		t.Fatalf("%d layer metrics in the manifest, %d in the catalogue", len(m.PerLayer), len(perLayer))
	}
	for i, l := range perLayer {
		g := m.PerLayer[i]
		if g.Name != l.Name || g.Unit != l.Unit || g.Better != l.Better {
			t.Errorf("layer metric %d differs: manifest %+v, catalogue %+v", i, g, l)
		}
		if !name.MatchString(l.Name) || !unit.MatchString(l.Unit) {
			t.Errorf("%s breaks the contract", l.Name)
		}
	}
}

// TestQuickSmoke boots every real fleet once (two seconds per workload) so
// the harness cannot rot unnoticed. It compiles the daemons, so -short
// skips it.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real daemons")
	}
	if code := run("", runConfig{Seed: 1, Seconds: 2, Rounds: 1, Quick: true}, false, 1); code != 0 {
		t.Fatalf("quick run exited %d", code)
	}
}
