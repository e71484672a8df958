// Command system is the repository's system benchmark: it builds the real
// daemons, boots them on loopback ports, plays the workflow participants
// against them from this one process, checks every stored outcome, and
// prints end-to-end metrics (or, with -trace 1, the per-layer ledger).
// See README.md beside this file for the catalogue.
//
//	bash benchmarks/run.sh                      # all four workloads
//	bash benchmarks/run.sh -workload deep-cascade -seed 7 -seconds 18 -trace 0
//	bash benchmarks/run.sh -repeat 2            # two sets, compared by bound
//	bash benchmarks/run.sh -quick               # 2 s per workload smoke
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	workload := flag.String("workload", "", "run only this workload and end with the one-line JSON result; empty runs all four")
	seed := flag.Int64("seed", 1, "seed of the operation lists")
	seconds := flag.Int("seconds", defaultSeconds, "measured seconds per run, split over the run's rounds")
	trace := flag.Int("trace", 0, "1: traced run, reports the per-layer ledger instead of the end-to-end metrics")
	repeat := flag.Int("repeat", 1, "run the whole set this many times and compare the sets by each metric's bound")
	quick := flag.Bool("quick", false, "smoke run: one 2-second round per workload")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: system [-workload NAME] [-seed N] [-seconds N] [-trace 0|1] [-repeat N] [-quick]")
		os.Exit(2)
	}
	cfg := runConfig{Seed: *seed, Seconds: *seconds, Rounds: defaultRounds}
	if *quick {
		cfg = runConfig{Seed: *seed, Seconds: 2, Rounds: 1, Quick: true}
	}
	os.Exit(run(*workload, cfg, *trace == 1, *repeat))
}

// run is main without os.Exit, so deferred teardown runs on every path: a
// panic and SIGINT/SIGTERM both stop and reap every daemon first.
func run(only string, cfg runConfig, traced bool, repeat int) (code int) {
	defer func() {
		if p := recover(); p != nil {
			stopAllFleets()
			panic(p)
		}
	}()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		cancel()
		stopAllFleets()
		os.Exit(130)
	}()

	selected := workloads
	if only != "" {
		w, ok := workloadByName(only)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", only)
			return 2
		}
		selected = []workloadDef{w}
	}
	if runtime.NumCPU() < 2 {
		fmt.Fprintln(os.Stderr, "warning: fewer than 2 CPUs; the two client goroutines and the daemons will time-share one core")
	}
	s, err := findSite()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	env := environment{
		Commit: commitOf(s.Root), GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), RSABits: rsaBits,
	}
	build, err := s.buildDaemons()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	env.BuildS = build.Seconds()
	t, keygen, err := s.loadOrCreateTrust()
	if err != nil {
		fmt.Fprintln(os.Stderr, "trust bundle:", err)
		return 1
	}
	env.KeygenS = keygen.Seconds()
	fmt.Fprintf(os.Stderr, "build_s %.3f  keygen_s %.3f  nproc %d  GOMAXPROCS %d  %s  commit %s\n",
		env.BuildS, env.KeygenS, env.NProc, env.GOMAXPROCS, env.GoVersion, env.Commit)

	var sets []*resultSet
	for i := 0; i < repeat; i++ {
		set := &resultSet{Environment: env, Config: cfg, Timestamp: time.Now().UTC().Format("20060102T150405.000Z"),
			EndToEnd: endToEnd, PerLayer: perLayer, Predictions: predictions}
		for _, w := range selected {
			// A single-workload traced run reports the ledger only; the
			// full set measures end to end first and then adds the ledger.
			if !traced || only == "" {
				res := runUntraced(ctx, s, t, w, cfg)
				res.print(os.Stderr)
				set.Runs = append(set.Runs, res)
			}
			if traced {
				res := runTraced(ctx, s, t, w, cfg)
				res.print(os.Stderr)
				set.Runs = append(set.Runs, res)
			}
		}
		if err := set.write(filepath.Join(s.Root, "benchmarks", "system", "results")); err != nil {
			fmt.Fprintln(os.Stderr, "writing results:", err)
			code = 1
		}
		sets = append(sets, set)
	}
	for _, set := range sets {
		for _, r := range set.Runs {
			if !r.Correct || r.Failed > 0 {
				code = 1
			}
		}
	}
	if repeat > 1 && !compareSets(os.Stderr, sets) {
		code = 1
	}
	last := sets[len(sets)-1]
	if only != "" {
		fmt.Println(last.Runs[len(last.Runs)-1].contractLine())
	} else {
		fmt.Println(last.summaryLine())
	}
	return code
}

// commitOf names the commit being measured, when the tree is a git checkout.
func commitOf(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short=12", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// environment is what a reader needs to judge whether two result files are
// comparable.
type environment struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	RSABits    int     `json:"rsa_bits"`
	BuildS     float64 `json:"build_s"`
	KeygenS    float64 `json:"keygen_s"`
}

// resultSet is one pass over the selected workloads: the content of one
// results/<timestamp>.json.
type resultSet struct {
	Timestamp   string       `json:"timestamp"`
	Environment environment  `json:"environment"`
	Config      runConfig    `json:"config"`
	EndToEnd    []metricDef  `json:"end_to_end"`
	PerLayer    []layerDef   `json:"per_layer"`
	Predictions []prediction `json:"predictions"`
	Runs        []*runResult `json:"runs"`
	// Claim is always null: this benchmark defines the instrument and
	// claims no gain.
	Claim *string `json:"claim"`
}

// write stores the set as <dir>/<timestamp>.json and the traced runs' spans
// as <dir>/<timestamp>.trace.jsonl.
func (set *resultSet) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		return err
	}
	base := filepath.Join(dir, set.Timestamp)
	if err := os.WriteFile(base+".json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	var spans []byte
	for _, r := range set.Runs {
		for _, sp := range r.spans {
			line, err := json.Marshal(struct {
				Workload string `json:"workload"`
				span
			}{r.Workload.Name, sp})
			if err != nil {
				return err
			}
			spans = append(append(spans, line...), '\n')
		}
	}
	if spans == nil {
		return nil
	}
	return os.WriteFile(base+".trace.jsonl", spans, 0o644)
}

// summaryLine is the last line of a full-set run.
func (set *resultSet) summaryLine() string {
	type row struct {
		Workload string                 `json:"workload"`
		Traced   bool                   `json:"traced"`
		Correct  bool                   `json:"correct"`
		Failed   int                    `json:"failed"`
		Metrics  map[string]metricValue `json:"metrics"`
	}
	out := struct {
		Timestamp string  `json:"timestamp"`
		Runs      []row   `json:"runs"`
		Claim     *string `json:"claim"`
	}{Timestamp: set.Timestamp}
	for _, r := range set.Runs {
		out.Runs = append(out.Runs, row{r.Workload.Name, r.Traced, r.Correct, r.Failed, r.Metrics})
	}
	data, _ := json.Marshal(out)
	return string(data)
}
