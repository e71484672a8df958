package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Trajectory comparison: `drabench -compare` diffs the two newest
// BENCH_<n>.json files — the previous run is the baseline, the newest is
// the candidate — and exits nonzero when any named duration metric
// regressed by more than the threshold. This is the ratchet half of the
// trajectory files: -json records runs, -compare refuses to let them
// quietly get slower.

// benchMetric is one named measurement extracted from a trajectory:
// durations for the α/β/γ timings, bytes for the Σ document sizes.
type benchMetric struct {
	Name  string
	Value float64
	Unit  string // "ns" or "B"
}

// format renders the value in its unit for the report table.
func (m benchMetric) format(v float64) string {
	if m.Unit == "B" {
		return fmt.Sprintf("%.0fB", v)
	}
	return time.Duration(v).Round(time.Microsecond).String()
}

// metricsOf flattens a trajectory into named metrics. Names are stable
// across runs ("table1/X_A(0)/alpha", "cascade/cers=64/verify", …) so
// two trajectories join on them.
func metricsOf(traj *trajectory) []benchMetric {
	var out []benchMetric
	add := func(name string, d time.Duration) {
		out = append(out, benchMetric{Name: name, Value: float64(d), Unit: "ns"})
	}
	addBytes := func(name string, b int) {
		out = append(out, benchMetric{Name: name, Value: float64(b), Unit: "B"})
	}
	for _, r := range traj.Table1 {
		add(fmt.Sprintf("table1/%s/alpha", r.Doc), r.Alpha)
		add(fmt.Sprintf("table1/%s/beta", r.Doc), r.Beta)
		addBytes(fmt.Sprintf("table1/%s/sigma", r.Doc), r.Sigma)
	}
	for _, r := range traj.Table2 {
		add(fmt.Sprintf("table2/%s:%s/alpha", r.Doc, r.Stage), r.Alpha)
		add(fmt.Sprintf("table2/%s:%s/beta", r.Doc, r.Stage), r.Beta)
		add(fmt.Sprintf("table2/%s:%s/gamma", r.Doc, r.Stage), r.Gamma)
		addBytes(fmt.Sprintf("table2/%s:%s/sigma", r.Doc, r.Stage), r.Sigma)
	}
	for _, r := range traj.Cascade {
		add(fmt.Sprintf("cascade/cers=%d/verify", r.CERs), r.VerifyTime)
		add(fmt.Sprintf("cascade/cers=%d/warm_verify", r.CERs), r.WarmVerifyTime)
		add(fmt.Sprintf("cascade/cers=%d/scope", r.CERs), r.ScopeTime)
	}
	for _, r := range traj.VerifyCache {
		add(fmt.Sprintf("verifycache/cers=%d/cold_serial", r.CERs), r.ColdSerial)
		add(fmt.Sprintf("verifycache/cers=%d/cold_fast", r.CERs), r.ColdFast)
		add(fmt.Sprintf("verifycache/cers=%d/warm_hop", r.CERs), r.WarmHop)
	}
	for _, r := range traj.PoolScale {
		base := fmt.Sprintf("poolscale/docs=%d", r.Documents)
		add(base+"/store_doc", time.Duration(r.StoreMicrosPerDoc*float64(time.Microsecond)))
		add(base+"/query_doc", time.Duration(r.QueryMicrosPerDoc*float64(time.Microsecond)))
	}
	for _, r := range traj.Crypto {
		add(fmt.Sprintf("crypto/%s/%s_hop", r.Suite, r.Mode), r.Hop)
		add(fmt.Sprintf("crypto/%s/%s_verify", r.Suite, r.Mode), r.Verify)
		add(fmt.Sprintf("crypto/%s/%s_sign", r.Suite, r.Mode), r.Sign)
	}
	if f := traj.PoolFailover; f != nil {
		add("poolfailover/failover_write", f.FailoverLatency)
		add("poolfailover/max_stall", f.MaxStall)
		add("poolfailover/mean_write", f.MeanWrite)
	}
	for _, r := range traj.Chaos {
		base := "chaos/" + r.Scenario
		if r.FailoverLatency > 0 {
			add(base+"/failover", r.FailoverLatency)
		}
		if r.Recovery > 0 {
			add(base+"/recovery", r.Recovery)
		}
		if r.MeanWrite > 0 {
			add(base+"/mean_write", r.MeanWrite)
		}
		if r.MaxStall > 0 {
			add(base+"/max_stall", r.MaxStall)
		}
	}
	return out
}

// newestTrajectories returns the paths of the two highest-numbered
// BENCH_<n>.json files in dir, baseline first.
func newestTrajectories(dir string) (baseline, candidate string, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", "", err
	}
	var ns []int
	for _, e := range entries {
		var n int
		if _, err := fmt.Sscanf(e.Name(), "BENCH_%d.json", &n); err == nil {
			ns = append(ns, n)
		}
	}
	if len(ns) < 2 {
		return "", "", nil
	}
	sort.Ints(ns)
	baseline = filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", ns[len(ns)-2]))
	candidate = filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", ns[len(ns)-1]))
	return baseline, candidate, nil
}

func readTrajectory(path string) (*trajectory, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var traj trajectory
	if err := json.Unmarshal(data, &traj); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &traj, nil
}

// compareTrajectories joins the two runs' metrics by name and reports
// every regression beyond threshold (0.10 = 10% slower). Metrics whose
// larger side is below floor are ignored: at sub-floor absolute times the
// relative delta is measurement noise, not a regression.
func compareTrajectories(base, cand *trajectory, threshold float64, floor time.Duration) (report string, regressions int) {
	baseBy := map[string]float64{}
	for _, m := range metricsOf(base) {
		baseBy[m.Name] = m.Value
	}
	out := fmt.Sprintf("%-40s %12s %12s %8s\n", "metric", "baseline", "candidate", "delta")
	compared := 0
	for _, m := range metricsOf(cand) {
		old, ok := baseBy[m.Name]
		if !ok || old <= 0 {
			continue
		}
		compared++
		delta := (m.Value - old) / old
		mark := ""
		if m.Value > old && delta > threshold {
			// The noise floor applies to durations only: document sizes
			// are deterministic, so any growth there is real.
			if m.Unit == "ns" && m.Value < float64(floor) && old < float64(floor) {
				mark = "  (noise: below floor)"
			} else {
				mark = "  REGRESSION"
				regressions++
			}
		}
		out += fmt.Sprintf("%-40s %12s %12s %+7.1f%%%s\n",
			m.Name, m.format(old), m.format(m.Value), delta*100, mark)
	}
	out += fmt.Sprintf("\n%d metrics compared, %d regression(s) beyond %.0f%% (floor %s)\n",
		compared, regressions, threshold*100, floor)
	return out, regressions
}

// runCompare is the -compare entry point: returns the process exit code.
func runCompare(dir string, threshold float64, floor time.Duration) int {
	basePath, candPath, err := newestTrajectories(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "drabench: %v\n", err)
		return 2
	}
	if basePath == "" {
		fmt.Printf("fewer than two BENCH_<n>.json trajectories in %s — nothing to compare yet\n", dir)
		return 0
	}
	base, err := readTrajectory(basePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "drabench: %v\n", err)
		return 2
	}
	cand, err := readTrajectory(candPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "drabench: %v\n", err)
		return 2
	}
	fmt.Printf("comparing %s (baseline) → %s (candidate)\n\n", basePath, candPath)
	report, regressions := compareTrajectories(base, cand, threshold, floor)
	fmt.Print(report)
	if regressions > 0 {
		return 1
	}
	return 0
}
