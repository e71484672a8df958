package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// print writes the run's metrics by name with unit, sample count and
// bound, then its diagnostics and layer rows.
func (r *runResult) print(w io.Writer) {
	kind := "end-to-end"
	if r.Traced {
		kind = "layer ledger (traced run)"
	}
	fmt.Fprintf(w, "\n== %s  %s  seed %d  %d s  %s loop, %d client(s)", r.Workload.Name, kind, r.Seed, r.Seconds, r.Workload.Loop, r.Workload.Clients)
	if r.Workload.Loop == openLoop {
		fmt.Fprintf(w, ", offered %g/s", r.Workload.Rate)
	}
	fmt.Fprintf(w, "\n   attempted %d  failed %d  correct %v\n", r.Attempted, r.Failed, r.Correct)
	for _, rd := range r.Rounds {
		fmt.Fprintf(w, "   round %-13s setup %.3f s  window %.3f s  hops %d  instances checked %d\n", rd.Kind, rd.SetupS, rd.WindowS, rd.Hops, rd.Checked)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "   FAILED: %s\n", f)
	}
	if r.Traced {
		for _, l := range perLayer {
			v := r.Metrics[l.Name]
			row := r.Layers[l.Name]
			fmt.Fprintf(w, "   %-34s %12.4f %-6s calls %-5d bytes_in %-10d failures %d\n", "layer/"+l.Name, v.Value, v.Unit, max(row.Calls, v.Samples), row.BytesIn, row.Failures)
		}
	} else {
		for _, m := range endToEnd {
			v, ok := r.Metrics[m.Name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "   %-34s %12.4f %-6s n=%-6d bound %g%%\n", m.Name, v.Value, v.Unit, v.Samples, m.Bound*100)
		}
	}
	for _, name := range sortedNames(r.Diagnostics) {
		v := r.Diagnostics[name]
		fmt.Fprintf(w, "   %-34s %12.4f %-6s n=%-6d (diagnostic)\n", name, v.Value, v.Unit, v.Samples)
	}
}

// contractLine is the one JSON object a single-workload run ends with.
func (r *runResult) contractLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]mv{}}
	for name, v := range r.Metrics {
		out.Metrics[name] = mv{v.Value, v.Unit}
	}
	data, _ := json.Marshal(out)
	return string(data)
}

// compareSets prints, per workload and end-to-end metric, the median,
// quartiles and (max − min) ÷ median over the sets, and reports whether
// every later set stayed within the metric's bound of every earlier one.
func compareSets(w io.Writer, sets []*resultSet) bool {
	agree := true
	fmt.Fprintf(w, "\n== repeatability over %d sets\n", len(sets))
	for _, wl := range workloads {
		for _, m := range endToEnd {
			var vals []float64
			for _, set := range sets {
				for _, r := range set.Runs {
					if v, ok := r.Metrics[m.Name]; ok && !r.Traced && r.Workload.Name == wl.Name {
						vals = append(vals, v.Value)
					}
				}
			}
			if len(vals) < 2 {
				continue
			}
			q1, q3 := quartiles(vals)
			verdict := "ok"
			for i := range vals {
				for j := i + 1; j < len(vals); j++ {
					if !withinBound(m, vals[i], vals[j]) || !withinBound(m, vals[j], vals[i]) {
						verdict = fmt.Sprintf("DISAGREE: sets %d and %d differ by more than the bound", i+1, j+1)
						agree = false
					}
				}
			}
			fmt.Fprintf(w, "   %-17s %-16s median %12.4f  q1 %12.4f  q3 %12.4f  iqr/median %5.1f%%  range/median %5.1f%%  bound %g%%  %s\n",
				wl.Name, m.Name, median(vals), q1, q3, spread(vals)*100, rangeShare(vals)*100, m.Bound*100, verdict)
		}
	}
	return agree
}
