// drabench regenerates the paper's evaluation: Table 1 (basic operational
// model) and Table 2 (advanced operational model) on the Figure 9
// workflows, plus the superuser tamper against the engine-based baseline
// of the paper's Section 1. It prints the same rows the paper reports;
// absolute times differ from the 2012 testbed (JDK 6, Core 2 Quad), the
// shape is what reproduces.
//
// Usage:
//
//	drabench [-experiment all|table1|table2|engine] [-bits 2048] [-reps 5] [-json]
//
// An unknown experiment name is refused with exit status 2 and the list
// of valid names; so are -bits below 1024 and -reps below 1, before any
// key is generated.
//
// After the experiments it prints the run's telemetry — crypto op counts
// and latency histograms accumulated by the instrumented packages — as a
// table. With -json the human tables move to stderr and stdout carries one
// JSON document: the result of every experiment that ran, under its name,
// plus the telemetry as its "metrics" section (see EXPERIMENTS.md "Raw
// outputs"). drabench writes nothing to the working directory;
// performance is defended by benchmarks/system, not by diffing these
// rows.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"dra4wfms/internal/bench"
	"dra4wfms/internal/telemetry"
)

// params is what every experiment sees: the key size, the repetition
// count, and the -json document it files its rows under.
type params struct {
	bits, reps int
	doc        map[string]any
}

// experiments run in this order under -experiment all.
var experiments = []struct {
	name string
	fn   func(w io.Writer, p params) error
}{
	{"table1", func(w io.Writer, p params) error {
		fmt.Fprintf(w, "Table 1 — basic operational model, Figure 9A (RSA-%d, %d reps)\n", p.bits, p.reps)
		rows, err := bench.RunTable1(p.bits, p.reps)
		if err != nil {
			return err
		}
		p.doc["table1"] = rows
		fmt.Fprint(w, bench.FormatTable1(rows))
		fmt.Fprintln(w, "expected shape: alpha grows ~linearly with #sigs; beta ~constant; Sigma linear.")
		return nil
	}},

	{"table2", func(w io.Writer, p params) error {
		fmt.Fprintf(w, "Table 2 — advanced operational model via TFC, Figure 9B (RSA-%d, %d reps)\n", p.bits, p.reps)
		rows, err := bench.RunTable2(p.bits, p.reps)
		if err != nil {
			return err
		}
		p.doc["table2"] = rows
		fmt.Fprint(w, bench.FormatTable2(rows))
		fmt.Fprintln(w, "expected shape: alpha grows with #CERs on both AEA and TFC sides; beta, gamma ~constant;")
		fmt.Fprintln(w, "documents larger than Table 1 (intermediate CERs + timestamps).")
		return nil
	}},

	{"engine", func(w io.Writer, p params) error {
		fmt.Fprintln(w, "Comparison — wall-clock cost and tamper detectability, engine vs DRA4WfMS")
		res, err := bench.RunEngineVsDRA(p.bits, 5)
		if err != nil {
			return err
		}
		p.doc["engine"] = res
		fmt.Fprintf(w, "engine (plaintext store): %v/instance — superuser tamper detected: %v\n",
			res.EngineMeanPerInst.Round(time.Microsecond), res.EngineTamperCaught)
		fmt.Fprintf(w, "DRA4WfMS (basic model):   %v/instance — tamper detected: %v\n",
			res.DRAMeanPerInst.Round(time.Microsecond), res.DRATamperCaught)
		fmt.Fprintln(w, "DRA4WfMS pays crypto per step and buys verifiable nonrepudiation.")
		return nil
	}},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is drabench's main with its streams and exit status made explicit:
// 0 on success, 1 when an experiment fails, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	valid := "all, " + strings.Join(names, ", ")

	fs := flag.NewFlagSet("drabench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	experiment := fs.String("experiment", "all", "which experiment to run: "+valid)
	bits := fs.Int("bits", 2048, "RSA modulus size")
	reps := fs.Int("reps", 5, "repetitions to average over (tables)")
	jsonOut := fs.Bool("json", false, "emit the run's table rows and closing telemetry snapshot as one JSON document on stdout (tables move to stderr)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "drabench: unexpected arguments: %v\n", fs.Args())
		return 2
	}
	if *experiment != "all" && !slices.Contains(names, *experiment) {
		fmt.Fprintf(stderr, "drabench: unknown experiment %q (valid: %s)\n", *experiment, valid)
		return 2
	}
	// testenv turns a size of 0 or less into 1024 bits, so the tables
	// would name a size they did not run. 1024 is also the smallest size
	// the tests use: at 512 bits RSA-OAEP with SHA-256 cannot wrap a
	// 32-byte content key, which fails only after key generation.
	if *bits < 1024 {
		fmt.Fprintf(stderr, "drabench: -bits %d is below 1024\n", *bits)
		return 2
	}
	if *reps < 1 {
		fmt.Fprintf(stderr, "drabench: -reps %d is below 1\n", *reps)
		return 2
	}

	// With -json, stdout must stay machine-readable: the human tables go
	// to stderr and stdout carries only the closing JSON document.
	w := stdout
	if *jsonOut {
		w = stderr
	}
	// doc is the -json document: the run's parameters, the rows of every
	// table that ran under the experiment's name, and the telemetry.
	// Durations serialize as integer nanoseconds.
	p := params{bits: *bits, reps: *reps,
		doc: map[string]any{"bits": *bits, "reps": *reps, "experiment": *experiment}}
	for _, e := range experiments {
		if *experiment != "all" && *experiment != e.name {
			continue
		}
		fmt.Fprintf(w, "\n================ %s ================\n", e.name)
		if err := e.fn(w, p); err != nil {
			fmt.Fprintf(stderr, "drabench: %s: %v\n", e.name, err)
			return 1
		}
	}

	// The process-wide registry accumulated while the experiments ran:
	// every dsig/xmlenc/aea/tfc/pool operation the harness performed
	// in-process is in here, so the numbers contextualize the tables above
	// (e.g. how many signature verifications Table 1 cost).
	snap := telemetry.Default().Snapshot()
	if !*jsonOut {
		printTelemetry(w, snap)
		return 0
	}
	p.doc["timestamp"] = time.Now().UTC().Format(time.RFC3339)
	p.doc["metrics"] = snap
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(p.doc); err != nil {
		fmt.Fprintf(stderr, "drabench: %v\n", err)
		return 1
	}
	return 0
}

// printTelemetry renders the run's telemetry snapshot as tables.
func printTelemetry(w io.Writer, snap telemetry.Snapshot) {
	fmt.Fprintf(w, "\n================ telemetry ================\n")
	if len(snap.Counters) > 0 {
		fmt.Fprintf(w, "%-44s %12s\n", "counter", "value")
		for _, c := range snap.Counters {
			fmt.Fprintf(w, "%-44s %12d\n", c.Name+labelSuffix(c.Labels), c.Value)
		}
	}
	if len(snap.Histograms) > 0 {
		fmt.Fprintf(w, "\n%-44s %10s %12s %12s %12s\n", "histogram", "count", "p50", "p95", "p99")
		for _, h := range snap.Histograms {
			if h.Count == 0 {
				continue
			}
			fmt.Fprintf(w, "%-44s %10d %12s %12s %12s\n",
				h.Name+labelSuffix(h.Labels), h.Count, fmtQ(h.P50), fmtQ(h.P95), fmtQ(h.P99))
		}
	}
}

// labelSuffix renders a flat [k, v, ...] label list as {k="v",...}.
func labelSuffix(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", labels[i], labels[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// fmtQ renders a histogram quantile: latency histograms hold seconds,
// size histograms hold bytes; sub-second values read best as durations.
func fmtQ(v float64) string {
	if v > 0 && v < 1000 {
		return time.Duration(v * float64(time.Second)).Round(time.Microsecond).String()
	}
	return fmt.Sprintf("%.0f", v)
}
