// drabench regenerates the paper's evaluation: Table 1 (basic operational
// model) and Table 2 (advanced operational model) on the Figure 9
// workflows, plus the ablation and comparison experiments indexed in
// DESIGN.md. It prints the same rows/series the paper reports; absolute
// times differ from the 2012 testbed (JDK 6, Core 2 Quad), the shape is
// what reproduces.
//
// Usage:
//
//	drabench [-experiment all|table1|table2|cascade|verifycache|elementwise|
//	          multirecipient|tfc|scalability|dos|crypto|engine|poolscale]
//	         [-bits 2048] [-reps 5] [-json]
//
// An unknown experiment name is refused with exit status 2 and the list
// of valid names.
//
// After the experiments it prints the run's telemetry — crypto op counts
// and latency histograms accumulated by the instrumented packages — as a
// table. With -json the human tables move to stderr and stdout carries one
// JSON document: the rows of every table that ran plus the telemetry as
// its "metrics" section (see EXPERIMENTS.md "Raw outputs"). drabench
// writes nothing to the working directory; performance is defended by
// benchmarks/system, not by diffing these rows.
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

	{"cascade", func(w io.Writer, p params) error {
		fmt.Fprintln(w, "Ablation — signature-cascade depth (VerifyAll and Algorithm 1 vs chain length;")
		fmt.Fprintf(w, "median of %d reps after warm-up; 'verify' is the serial cache-less baseline,\n", p.reps)
		fmt.Fprintln(w, "'verify(warm)' re-verifies through a warm verified-prefix cache)")
		rows, err := bench.RunCascadeDepth(p.bits, []int{1, 2, 4, 8, 16, 32}, p.reps)
		if err != nil {
			return err
		}
		p.doc["cascade"] = rows
		fmt.Fprintf(w, "%6s %14s %14s %10s %14s %8s\n", "CERs", "verify", "verify(warm)", "bytes", "scope(Alg.1)", "|scope|")
		for _, r := range rows {
			fmt.Fprintf(w, "%6d %14v %14v %10d %14v %8d\n", r.CERs, r.VerifyTime.Round(time.Microsecond),
				r.WarmVerifyTime.Round(time.Microsecond),
				r.DocBytes, r.ScopeTime.Round(time.Microsecond), r.ScopeSize)
		}
		return nil
	}},

	{"verifycache", func(w io.Writer, p params) error {
		fmt.Fprintln(w, "Ablation — verified-prefix cache (per-hop α before/after the fast path;")
		fmt.Fprintf(w, "median of %d reps after warm-up)\n", p.reps)
		rows, err := bench.RunVerifyCache(p.bits, []int{1, 2, 4, 8, 16, 32}, p.reps)
		if err != nil {
			return err
		}
		p.doc["verifycache"] = rows
		fmt.Fprintf(w, "%6s %6s %14s %14s %14s\n", "CERs", "sigs", "cold-serial", "cold-fast", "warm-hop")
		for _, r := range rows {
			fmt.Fprintf(w, "%6d %6d %14v %14v %14v\n", r.CERs, r.Sigs,
				r.ColdSerial.Round(time.Microsecond), r.ColdFast.Round(time.Microsecond),
				r.WarmHop.Round(time.Microsecond))
		}
		fmt.Fprintln(w, "expected shape: cold-serial grows ~linearly in CERs (the paper's Fig. 9 alpha")
		fmt.Fprintln(w, "curve); warm-hop stays ~flat — the cache turns per-hop alpha into O(new sigs).")
		return nil
	}},

	{"elementwise", func(w io.Writer, p params) error {
		fmt.Fprintln(w, "Ablation — element-wise vs whole-document encryption (2 readers)")
		rows, err := bench.RunElementwiseVsWhole(p.bits, []int{1, 2, 4, 8, 16})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%7s %12s %12s %14s %12s %10s %10s\n",
			"fields", "ew-enc", "whole-enc", "ew-dec-one", "whole-dec", "ew-bytes", "wh-bytes")
		for _, r := range rows {
			fmt.Fprintf(w, "%7d %12v %12v %14v %12v %10d %10d\n",
				r.Fields, r.ElementwiseEncrypt.Round(time.Microsecond), r.WholeEncrypt.Round(time.Microsecond),
				r.ElementwiseDecryptOne.Round(time.Microsecond), r.WholeDecrypt.Round(time.Microsecond),
				r.ElementwiseBytes, r.WholeBytes)
		}
		fmt.Fprintln(w, "element-wise pays more bytes/encrypt time but supports per-field readers and")
		fmt.Fprintln(w, "single-field decryption — the design choice of Section 2 of the paper.")
		return nil
	}},

	{"multirecipient", func(w io.Writer, p params) error {
		fmt.Fprintln(w, "Ablation — one element encrypted to k readers (k RSA-OAEP key wraps)")
		rows, err := bench.RunMultiRecipient(p.bits, []int{1, 2, 4, 8, 16, 32})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%10s %14s %10s\n", "recipients", "encrypt", "bytes")
		for _, r := range rows {
			fmt.Fprintf(w, "%10d %14v %10d\n", r.Recipients, r.EncryptTime.Round(time.Microsecond), r.Bytes)
		}
		return nil
	}},

	{"tfc", func(w io.Writer, p params) error {
		fmt.Fprintln(w, "Claim — the TFC server is not the bottleneck (Section 4.1)")
		res, err := bench.RunTFCThroughput(p.bits, 50)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "AEA path (Open+CompleteToTFC): %v/doc\n", res.AEAMeanPerDoc.Round(time.Microsecond))
		fmt.Fprintf(w, "TFC path (Process):            %v/doc  (%.0f docs/s single-threaded)\n",
			res.TFCMeanPerDoc.Round(time.Microsecond), res.TFCDocsPerSecond)
		fmt.Fprintln(w, "the TFC holds no interactive session, so its capacity scales with servers.")
		return nil
	}},

	{"scalability", func(w io.Writer, p params) error {
		fmt.Fprintln(w, "Comparison — centralized engine vs engine-less DRA4WfMS (discrete-event sim,")
		fmt.Fprintln(w, "service times calibrated from measured per-document costs)")
		// Calibrate the shared tiers from the measured TFC path: per
		// activity step both deployments handle one document at the shared
		// tier (the engine additionally owns the participant's interactive
		// session and the instance store; treating it as equal is
		// charitable to the baseline). The heavy AEA crypto runs on the
		// participants' own machines under DRA4WfMS — in parallel across
		// instances — and is the per-step latency offset.
		cal, err := bench.RunTFCThroughput(p.bits, 20)
		if err != nil {
			return err
		}
		engineSvc := cal.TFCMeanPerDoc
		tfcSvc := cal.TFCMeanPerDoc
		aeaSvc := cal.AEAMeanPerDoc
		fmt.Fprintf(w, "calibrated: shared-tier step %v (engine and TFC), AEA edge step %v\n\n",
			engineSvc.Round(time.Microsecond), aeaSvc.Round(time.Microsecond))
		loads := []int{10, 50, 100, 500, 1000}
		rows := bench.RunScalability(loads, engineSvc, aeaSvc, tfcSvc, 2)
		rows = append(rows, bench.RunScalabilityDistributed(loads, engineSvc, 5*time.Millisecond)...)
		fmt.Fprint(w, bench.FormatScalability(rows))
		fmt.Fprintln(w, "\nexpected shape: centralized latency grows ~linearly with load (every step")
		fmt.Fprintln(w, "serializes through the one engine); DRA4WfMS degrades ~half as fast with two")
		fmt.Fprintln(w, "TFC servers, and the TFC tier is stateless so capacity scales with servers.")
		return nil
	}},

	{"dos", func(w io.Writer, p params) error {
		fmt.Fprintln(w, "Comparison — denial-of-service on the fixed address (Section 1, difficulty 2)")
		rows := bench.RunDoS([]int{0, 100, 500, 1000, 5000}, 2*time.Millisecond, 4)
		fmt.Fprintf(w, "%-22s %10s %14s %14s\n", "deployment", "atk/s", "legit mean", "legit p99")
		for _, r := range rows {
			fmt.Fprintf(w, "%-22s %10d %14v %14v\n", r.Label, r.AttackRate,
				r.LegitMean.Round(time.Microsecond), r.LegitP99.Round(time.Microsecond))
		}
		return nil
	}},

	{"crypto", func(w io.Writer, p params) error {
		fmt.Fprintln(w, "Ablation — signature-suite crypto throughput on the Figure 9A hop")
		fmt.Fprintf(w, "(median of %d reps; hop = verify full cascade (alpha) + sign next CER (beta);\n", p.reps)
		fmt.Fprintln(w, "seed = serial verify, no prefix cache, cache-less CA-re-verifying resolver)")
		rows, err := bench.RunCrypto(p.bits, p.reps)
		if err != nil {
			return err
		}
		p.doc["crypto"] = rows
		fmt.Fprintf(w, "%-12s %6s %6s %12s %12s %12s %10s\n",
			"suite", "mode", "sigs", "verify", "sign", "hop", "docs/s")
		var seedHop time.Duration
		for _, r := range rows {
			if r.Mode == "seed" {
				seedHop = r.Hop
			}
			speedup := ""
			if seedHop > 0 && r.Mode != "seed" {
				speedup = fmt.Sprintf("  (%.1fx vs seed)", float64(seedHop)/float64(r.Hop))
			}
			fmt.Fprintf(w, "%-12s %6s %6d %12v %12v %12v %10.0f%s\n",
				r.Suite, r.Mode, r.Sigs,
				r.Verify.Round(time.Microsecond), r.Sign.Round(time.Microsecond),
				r.Hop.Round(time.Microsecond), r.DocsPerSecond(), speedup)
		}
		fmt.Fprintln(w, "expected shape: warm verify ~flat (prefix cache); ed25519 sign ~50x cheaper")
		fmt.Fprintln(w, "than RSA-2048, so ed25519 hops are sign-bound no longer.")
		return nil
	}},

	{"engine", func(w io.Writer, p params) error {
		fmt.Fprintln(w, "Comparison — wall-clock cost and tamper detectability, engine vs DRA4WfMS")
		res, err := bench.RunEngineVsDRA(p.bits, 5)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "engine (plaintext store): %v/instance — superuser tamper detected: %v\n",
			res.EngineMeanPerInst.Round(time.Microsecond), res.EngineTamperCaught)
		fmt.Fprintf(w, "DRA4WfMS (basic model):   %v/instance — tamper detected: %v\n",
			res.DRAMeanPerInst.Round(time.Microsecond), res.DRATamperCaught)
		fmt.Fprintln(w, "DRA4WfMS pays crypto per step and buys verifiable nonrepudiation.")
		return nil
	}},

	{"poolscale", func(w io.Writer, p params) error {
		fmt.Fprintln(w, "Paper's stated future work — pool scale-out: querying, storing, monitoring")
		fmt.Fprintln(w, "and statistical analyses as the pool grows (one process; the multi-node")
		fmt.Fprintln(w, "question is benchmarks/system's basic-cluster and monitor-mixed workloads)")
		rows, err := bench.RunPoolScale(p.bits, []int{1000, 10000})
		if err != nil {
			return err
		}
		p.doc["poolscale"] = rows
		fmt.Fprintf(w, "%10s %8s %12s %12s %12s %12s\n",
			"docs", "regions", "store/doc", "query/doc", "monitor", "stats(MR)")
		for _, r := range rows {
			fmt.Fprintf(w, "%10d %8d %10.1fus %10.1fus %10.1fus %10.2fms\n",
				r.Documents, r.Regions, r.StoreMicrosPerDoc, r.QueryMicrosPerDoc,
				r.MonitorMicros, r.StatsMillis)
		}
		fmt.Fprintln(w, "expected shape: store/query ~flat with pool size (region routing);")
		fmt.Fprintln(w, "statistics linear in documents but parallelized by the MR layer.")
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
