package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runConfig is how long and how often one run measures.
type runConfig struct {
	Seed    int64 `json:"seed"`
	Seconds int   `json:"seconds"` // measured time of the whole run
	Rounds  int   `json:"rounds"`  // fresh fleets the time is split over
	Quick   bool  `json:"quick"`   // smoke run: too short for tail percentiles
}

func (c runConfig) window() time.Duration {
	return time.Duration(c.Seconds) * time.Second / time.Duration(c.Rounds)
}

// metricValue is one reported number.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// roundSummary is what the result file keeps of one round.
type roundSummary struct {
	Kind      string     `json:"kind"` // measured, traced or single-client
	SetupS    float64    `json:"setup_s"`
	WindowS   float64    `json:"window_s"`
	Hops      int        `json:"hops"`
	Attempted int        `json:"attempted"`
	Failed    int        `json:"failed"`
	Checked   int        `json:"instances_checked"`
	Argv      [][]string `json:"daemon_argv"`
}

// runResult is one run of one workload: its end-to-end metrics (untraced
// run) or its layer ledger (traced run), plus diagnostics.
type runResult struct {
	Workload    workloadDef            `json:"workload"`
	Seed        int64                  `json:"seed"`
	Seconds     int                    `json:"seconds"`
	Traced      bool                   `json:"traced"`
	Correct     bool                   `json:"correct"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	Failures    []string               `json:"failures,omitempty"`
	Metrics     map[string]metricValue `json:"metrics"`
	Diagnostics map[string]metricValue `json:"diagnostics,omitempty"`
	Layers      map[string]layerRow    `json:"layers,omitempty"`
	Rounds      []roundSummary         `json:"rounds"`
	spans       []span
}

// pooled is the samples of several rounds put together.
type pooled struct {
	hopMs, stats, lateness, instanceMs, finalBytes, setups []float64
	reads                                                  map[opKind][]float64
	hops                                                   []hopSample
	inWindow                                               int // hops completed before their window closed
	windowS                                                float64
}

func poolRounds(rs ...*roundResult) pooled {
	p := pooled{reads: map[opKind][]float64{}}
	for _, r := range rs {
		rec := r.Rec
		for _, h := range rec.hops {
			p.hopMs = append(p.hopMs, h.Ms)
			if !h.Done.After(rec.stop) {
				p.inWindow++
			}
		}
		p.hops = append(p.hops, rec.hops...)
		for kind, xs := range rec.reads {
			p.reads[kind] = append(p.reads[kind], xs...)
		}
		p.stats = append(p.stats, rec.stats...)
		p.lateness = append(p.lateness, rec.lateness...)
		p.instanceMs = append(p.instanceMs, rec.instanceMs...)
		p.finalBytes = append(p.finalBytes, rec.finalBytes...)
		p.setups = append(p.setups, r.SetupS)
		p.windowS += rec.stop.Sub(rec.start).Seconds()
	}
	return p
}

// summarize folds a round into the run's totals.
func (res *runResult) summarize(kind string, r *roundResult) {
	res.Attempted += r.Rec.attempted
	res.Failed += r.Rec.failed
	res.Failures = append(res.Failures, r.Rec.failures...)
	if r.Err != nil {
		res.Correct = false
		res.Failures = append(res.Failures, r.Err.Error())
	}
	res.Rounds = append(res.Rounds, roundSummary{
		Kind: kind, SetupS: r.SetupS, WindowS: r.WindowS, Hops: len(r.Rec.hops),
		Attempted: r.Rec.attempted, Failed: r.Rec.failed, Checked: r.Checked, Argv: r.Argv,
	})
}

// runUntraced measures the end-to-end metrics: `rounds` fresh fleets, each
// measured for an equal share of the run.
func runUntraced(ctx context.Context, s *site, t *trust, w workloadDef, c runConfig) *runResult {
	res := &runResult{Workload: w, Seed: c.Seed, Seconds: c.Seconds, Correct: true,
		Metrics: map[string]metricValue{}, Diagnostics: map[string]metricValue{}}
	var rs []*roundResult
	for i := 0; i < c.Rounds; i++ {
		r := runRound(ctx, s, t, w, roundOptions{Seed: c.Seed, Round: i, Window: c.window()})
		res.summarize("measured", r)
		rs = append(rs, r)
	}
	p := poolRounds(rs...)
	if err := res.endToEnd(p, c.Quick); err != nil {
		res.Correct = false
		res.Failures = append(res.Failures, err.Error())
	}
	res.diagnose(w, p)
	if res.Failed > 0 {
		res.Correct = false
	}
	return res
}

// set records a catalogued metric with the catalogue's unit.
func (res *runResult) set(name string, v float64, n int) {
	for _, m := range endToEnd {
		if m.Name == name {
			res.Metrics[name] = metricValue{Value: v, Unit: m.Unit, Samples: n}
		}
	}
	for _, l := range perLayer {
		if l.Name == name {
			res.Metrics[name] = metricValue{Value: v, Unit: l.Unit, Samples: n}
		}
	}
}

// endToEnd fills in every end-to-end metric from the pooled samples. A
// quick smoke run is too short for some of them (no deep-cascade instance
// completes in two seconds) and goes without.
func (res *runResult) endToEnd(p pooled, quick bool) error {
	set := res.set
	var errs []error
	need := func(name string, xs []float64) bool {
		if len(xs) == 0 && !quick {
			errs = append(errs, fmt.Errorf("%s: no samples", name))
		}
		return len(xs) > 0
	}
	if need("hop_p50_ms", p.hopMs) {
		set("hop_p50_ms", median(p.hopMs), len(p.hopMs))
		set("hops_per_s", float64(p.inWindow)/p.windowS, p.inWindow)
	}
	// Each kind of read has its own typical cost; the median of the pooled
	// calls would sit in the gap between two kinds and jump with their
	// shares. The mean of the kinds' medians moves only when a kind does.
	var kindMedians []float64
	reads := 0
	for _, xs := range p.reads {
		kindMedians = append(kindMedians, median(xs))
		reads += len(xs)
	}
	if need("read_p50_ms", kindMedians) {
		set("read_p50_ms", mean(kindMedians), reads)
	}
	if need("stats_p50_ms", p.stats) {
		set("stats_p50_ms", median(p.stats), len(p.stats))
	}
	if need("final_doc_bytes", p.finalBytes) {
		set("final_doc_bytes", median(p.finalBytes), len(p.finalBytes))
	}
	set("setup_s", median(p.setups), len(p.setups))
	return errors.Join(errs...)
}

// diagnose adds the numbers that are printed but not gated.
func (res *runResult) diagnose(w workloadDef, p pooled) {
	d := res.Diagnostics
	// Tail percentiles, each only with ten samples beyond it.
	for _, tail := range tailPercentiles {
		if v, err := percentile(p.hopMs, tail); err == nil {
			d[fmt.Sprintf("hop_p%g_ms", tail)] = metricValue{Value: v, Unit: "ms", Samples: len(p.hopMs)}
		}
	}
	if len(p.instanceMs) > 0 {
		d["instance_p50_ms"] = metricValue{Value: median(p.instanceMs), Unit: "ms", Samples: len(p.instanceMs)}
	}
	if w.Loop == openLoop {
		d["offered_rate"] = metricValue{Value: w.Rate, Unit: "1/s"}
		if top := highestPercentile(len(p.lateness)); top > 0 {
			v, _ := percentile(p.lateness, top)
			d[fmt.Sprintf("generator_lateness_p%g_ms", top)] = metricValue{Value: v, Unit: "ms", Samples: len(p.lateness)}
		} else if n := len(p.lateness); n > 0 {
			d["generator_lateness_max_ms"] = metricValue{Value: sorted(p.lateness)[n-1], Unit: "ms", Samples: n}
		}
	}
	if w.Rejects > 0 {
		// Table 1's alpha-versus-#CERs curve: hop latency per loop
		// iteration, each iteration adding five CERs.
		byIter := map[int][]float64{}
		for _, h := range p.hops {
			it := h.Depth / len(fig9Order)
			byIter[it] = append(byIter[it], h.Ms)
		}
		for it, xs := range byIter {
			d[fmt.Sprintf("hop_p50_ms.iteration%d", it)] = metricValue{Value: median(xs), Unit: "ms", Samples: len(xs)}
		}
	}
}

// runTraced produces the layer ledger: an untraced round and a traced round
// of the workload as defined (their difference is the tracing overhead), a
// single-client round (the service-time reference), then the in-process
// replay over the documents the traced round captured.
func runTraced(ctx context.Context, s *site, t *trust, w workloadDef, c runConfig) *runResult {
	res := &runResult{Workload: w, Seed: c.Seed, Seconds: c.Seconds, Traced: true, Correct: true,
		Metrics: map[string]metricValue{}, Diagnostics: map[string]metricValue{}, Layers: map[string]layerRow{}}
	seed, window := c.Seed, c.window()
	plain := runRound(ctx, s, t, w, roundOptions{Seed: seed, Round: 0, Window: window})
	res.summarize("measured", plain)
	traced := runRound(ctx, s, t, w, roundOptions{Seed: seed, Round: 1, Window: window, Tracing: true})
	res.summarize("traced", traced)
	single := runRound(ctx, s, t, w, roundOptions{Seed: seed, Round: 2, Window: window, SingleClient: true})
	res.summarize("single-client", single)
	res.spans = traced.Rec.spans

	set := res.set
	// Client-boundary spans.
	byName := map[string][]float64{}
	bytesBy := map[string]int64{}
	self := selfTimes(traced.Rec.spans)
	for _, sp := range traced.Rec.spans {
		if sp.Name == "hop" {
			byName["hop.self"] = append(byName["hop.self"], float64(self[sp.ID])/1e6)
		}
		byName[sp.Name] = append(byName[sp.Name], sp.ms())
	}
	for _, c := range traced.Rec.captured {
		bytesBy[spanRetrieve] += int64(len(c.In))
		bytesBy[spanExecute] += int64(len(c.In))
		bytesBy[spanTFC] += int64(len(c.Interm))
		bytesBy[spanStore] += int64(len(c.Out))
	}
	for metric, name := range map[string]string{
		"span.worklist_ms": spanWorklist, "span.retrieve_ms": spanRetrieve, "span.aea_execute_ms": spanExecute,
		"span.tfc_process_ms": spanTFC, "span.store_ms": spanStore, "span.hop_self_ms": "hop.self",
	} {
		row := layerRow{Calls: len(byName[name]), BytesIn: bytesBy[name]}
		if row.Calls > 0 {
			row.MedianMs = median(byName[name])
		}
		res.Layers[metric] = row
		set(metric, row.MedianMs, row.Calls)
	}

	// In-process replay.
	scratch, err := os.MkdirTemp(filepath.Join(s.Build, "tmp"), "replay-")
	if err == nil {
		defer os.RemoveAll(scratch)
		var rows map[string]layerRow
		var extra map[string]float64
		if rows, extra, err = replayLayers(w, t, traced.Rec.captured, seed, scratch); err == nil {
			for name, row := range rows {
				res.Layers[name] = row
				set(name, row.MedianMs, row.Calls)
				res.Attempted += row.Calls
				res.Failed += row.Failures
			}
			for name, v := range extra {
				set(name, v, 0)
			}
		}
	}
	if err != nil {
		res.Correct = false
		res.Failures = append(res.Failures, "replay: "+err.Error())
	}

	// Calls per hop, read from the daemons' own counters.
	hops := float64(len(traced.Rec.hops))
	perHop := func(counter string) float64 {
		if hops == 0 {
			return 0
		}
		return traced.Counters[counter] / hops
	}
	set("tfc.calls_per_hop", perHop("tfc_timestamps_total"), len(traced.Rec.hops))
	set("poolcluster.writes_per_hop", perHop("poolcluster_writes_total"), len(traced.Rec.hops))
	set("pool.wal_appends_per_hop", perHop("pool_wal_appends_total"), len(traced.Rec.hops))

	// The two remainders.
	tp, pp, sp := poolRounds(traced), poolRounds(plain), poolRounds(single)
	if len(tp.hopMs) > 0 && len(pp.hopMs) > 0 {
		set("tracing_overhead_ms", median(tp.hopMs)-median(pp.hopMs), len(tp.hopMs))
		res.Diagnostics["hop_p50_ms.untraced"] = metricValue{Value: median(pp.hopMs), Unit: "ms", Samples: len(pp.hopMs)}
		res.Diagnostics["hop_p50_ms.traced"] = metricValue{Value: median(tp.hopMs), Unit: "ms", Samples: len(tp.hopMs)}
	}
	if len(sp.hopMs) > 0 {
		attributed := 0.0
		for layer, calls := range blockingPath(w, res.Metrics) {
			attributed += calls * res.Metrics[layer].Value
		}
		res.Diagnostics["hop_p50_ms.single_client"] = metricValue{Value: median(sp.hopMs), Unit: "ms", Samples: len(sp.hopMs)}
		res.Diagnostics["attributed_ms"] = metricValue{Value: attributed, Unit: "ms"}
		set("unattributed_ms", median(sp.hopMs)-attributed, len(sp.hopMs))
	}
	for _, l := range perLayer {
		if _, ok := res.Metrics[l.Name]; !ok {
			res.Correct = false
			res.Failures = append(res.Failures, "layer metric not produced: "+l.Name)
			set(l.Name, 0, 0)
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	return res
}

// blockingPath is the model the remainder is taken against: how often one
// hop calls each replayed layer on the path the participant waits for.
// Counts that the daemons report are measured (m holds them per hop); the
// others follow from the request sequence of a hop and are structural:
//
//	worklist, retrieve, store           3 signed requests (+1 to the TFC)
//	retrieve: portal.RetrieveCtx, the server serializes, the client parses
//	aea: verify (warm), decrypt the view, encrypt the answer, sign
//	store: the client serializes, the server parses, portal.StoreCtx
//	  (verify, read-merge-write; timed over an in-memory table)
//	TFC: the client serializes, the server parses, tfc.ProcessCtx, the
//	  server serializes, the client parses
//
// A layer timed inside another (document.Merge inside portal.StoreCtx, the
// TFC's verify inside tfc.ProcessCtx) is not added again.
func blockingPath(w workloadDef, m map[string]metricValue) map[string]float64 {
	tfcCalls := m["tfc.calls_per_hop"].Value
	path := map[string]float64{
		"httpapi.auth_ms":      3 + tfcCalls,
		"portal.retrieve_ms":   1,
		"xmltree.canonical_ms": 2 + 2*tfcCalls,
		"xmltree.parse_ms":     2 + 2*tfcCalls,
		"dsig.verify_warm_ms":  1,
		"xmlenc.decrypt_ms":    1,
		"xmlenc.encrypt_ms":    1,
		"dsig.sign_ms":         1,
		"portal.store_ms":      1,
		"tfc.process_ms":       tfcCalls,
		"poolcluster.put_ms":   m["poolcluster.writes_per_hop"].Value,
		"pool.wal_put_ms":      m["pool.wal_appends_per_hop"].Value,
	}
	if w.Model == "fig9a" {
		// A answers two variables, the others one: 6 fields per 5 hops.
		path["xmlenc.encrypt_ms"] = 1.2
	}
	return path
}

// scrapeOne reads one daemon's Prometheus exposition and sums the samples
// of each metric name over its label sets. A daemon that does not answer
// contributes nothing.
func scrapeOne(httpc *http.Client, baseURL string) map[string]float64 {
	out := map[string]float64{}
	resp, err := httpc.Get(baseURL + "/v1/metrics")
	if err != nil {
		return out
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return out
	}
	sc := bufio.NewScanner(strings.NewReader(string(body)))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			continue
		}
		name := line[:cut]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] += v
	}
	return out
}

// sortedNames returns the keys of a metric map in order.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
