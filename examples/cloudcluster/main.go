// Cloud cluster: many concurrent process instances against the DRA4WfMS
// cloud system — the Figure 7 deployment at scale — plus the comparison
// the paper's introduction motivates: the engine-based baseline's
// superuser can silently rewrite history, while any alteration of a
// DRA4WfMS document is cryptographically detected.
//
// The example:
//
//  1. runs N instances of the Figure 9A workflow through two portals
//     sharing one document pool (small region-split threshold so splits
//     actually happen);
//  2. prints pool statistics computed by map-reduce over the pool;
//  3. replays one instance on the engine-based baseline and demonstrates
//     the undetectable superuser tamper vs. DRA4WfMS detection.
//
// Run: go run ./examples/cloudcluster
package main

import (
	"fmt"
	"log"
	"time"

	"dra4wfms/internal/aea"
	"dra4wfms/internal/core"
	"dra4wfms/internal/document"
	"dra4wfms/internal/engine"
	"dra4wfms/internal/wfdef"
)

const instances = 8

func main() {
	sys, err := core.NewSystem(core.Config{
		Portals:            2,
		PoolSplitThreshold: 64 << 10, // 64 KiB: force region splits
	})
	if err != nil {
		log.Fatal(err)
	}
	designer, err := sys.Enroll("designer@acme")
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range wfdef.Fig9Participants {
		if _, err := sys.Enroll(p); err != nil {
			log.Fatal(err)
		}
	}

	def := wfdef.Fig9A()
	fmt.Printf("=== running %d instances of %s through the cloud system ===\n", instances, def.Name)
	start := time.Now()
	var pids []string
	for i := 0; i < instances; i++ {
		doc, _, err := sys.StartProcess(def, designer)
		if err != nil {
			log.Fatal(err)
		}
		runner := sys.NewRunner()
		accept := "true"
		if i%3 == 0 {
			accept = "false" // every third instance loops once
		}
		first := true
		runner.RespondValues("A", aea.Inputs{"request": fmt.Sprintf("order %d", i)}).
			RespondValues("B1", aea.Inputs{"techReview": "ok"}).
			RespondValues("B2", aea.Inputs{"budgetReview": "ok"}).
			RespondValues("C", aea.Inputs{"summary": "fine"}).
			Respond("D", func(s *aea.Session) (aea.Inputs, error) {
				if first && accept == "false" {
					first = false
					return aea.Inputs{"accept": "false"}, nil
				}
				return aea.Inputs{"accept": "true"}, nil
			})
		if _, err := runner.Run(doc.ProcessID()); err != nil {
			log.Fatal(err)
		}
		pids = append(pids, doc.ProcessID())
	}
	fmt.Printf("completed %d instances in %v\n", instances, time.Since(start).Round(time.Millisecond))

	// --- pool state --------------------------------------------------------
	fmt.Println("\n=== document pool ===")
	fmt.Printf("region splits on the documents table: %d\n", sys.Cluster.Splits("dra4wfms_documents"))

	stats, err := sys.Monitor.Statistics()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("map-reduce statistics: byState=%v byDefinition=%v totalExecutions=%d meanDocBytes=%d\n",
		stats.InstancesByState, stats.InstancesByDefinition, stats.TotalFinalCERs, stats.MeanDocumentBytes)

	// --- the baseline comparison -------------------------------------------
	fmt.Println("\n=== engine-based baseline: the superuser problem ===")
	eng := engine.New("engine-1", nil)
	if err := eng.Deploy(def); err != nil {
		log.Fatal(err)
	}
	iid, _ := eng.CreateInstance(def.Name)
	steps := []struct {
		act string
		in  map[string]string
	}{
		{"A", map[string]string{"request": "order 0"}},
		{"B1", map[string]string{"techReview": "ok"}},
		{"B2", map[string]string{"budgetReview": "ok"}},
		{"C", map[string]string{"summary": "fine"}},
		{"D", map[string]string{"accept": "true"}},
	}
	for _, s := range steps {
		if _, err := eng.Execute(iid, s.act, wfdef.Fig9Participants[s.act], s.in); err != nil {
			log.Fatal(err)
		}
	}
	// The DB admin rewrites alice's request and erases a review step.
	su := eng.Superuser()
	su.TamperResult(iid, "A", 0, "request", "order 500 gold-plated servers")
	su.EraseStep(iid, "B1", 0)
	if err := eng.VerifyInstance(iid); err == nil {
		fmt.Println("engine store rewritten by superuser; engine integrity check: PASSES (nothing to detect with)")
	}
	in, _ := eng.Instance(iid)
	fmt.Printf("engine now claims alice requested: %q, history has %d steps (was 5)\n",
		in.History[0].Values["request"], len(in.History))

	fmt.Println("\n=== DRA4WfMS: the same attack is detected ===")
	raw, _ := sys.Table.Get(pids[0], "doc", "content")
	doc, err := document.Parse(raw)
	if err != nil {
		log.Fatal(err)
	}
	doc.Root.FindByID("res-A-0").SetText("order 500 gold-plated servers")
	if _, err := doc.VerifyAll(sys.Registry); err != nil {
		fmt.Printf("alteration detected by signature verification: %v\n", err)
	} else {
		log.Fatal("BUG: tamper went undetected")
	}
}
