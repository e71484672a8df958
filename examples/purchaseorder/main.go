// Purchase order: the paper's Figure 9A workflow (sequence, AND-split,
// AND-join, conditional loop) run as a cross-enterprise process in the
// DRA4WfMS cloud deployment of Figure 7 — portal servers in front of an
// HBase-like document pool, with worklists, notifications, and workflow
// monitoring.
//
// The first pass through the process is rejected ("attachment is
// insufficient"), looping back to the requester; the second pass accepts.
//
// Run: go run ./examples/purchaseorder
package main

import (
	"fmt"
	"log"

	"dra4wfms/internal/aea"
	"dra4wfms/internal/document"
	"dra4wfms/internal/driver"
	"dra4wfms/internal/testenv"
	"dra4wfms/internal/wfdef"
)

func main() {
	// Register the designer and the five participants from two
	// enterprises (acme and bolt).
	sys := driver.New(testenv.Fig9(2048))

	def := wfdef.Fig9A()
	fmt.Println("=== cross-enterprise workflow (paper, Figure 9A) ===")
	fmt.Print(def)

	doc, notes, err := sys.Start(def)
	if err != nil {
		log.Fatal(err)
	}
	pid := doc.ProcessID()
	fmt.Printf("\nprocess %s started; notifications: %v\n", pid, notes)

	// Worklist check: alice sees the first activity on her TO-DO list.
	items, err := sys.Portals[0].Worklist(wfdef.Fig9Participants["A"])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("alice's worklist: %v\n", items)

	// Scripted participants: first decision rejects, second accepts.
	pass := 0
	respond := func(s *aea.Session) (aea.Inputs, error) {
		switch s.Activity().ID {
		case "A":
			pass++
			attachment := ""
			if pass > 1 {
				// Second pass: attach the supplier quote as a real binary
				// attachment travelling inside the encrypted field.
				attachment = document.EncodeAttachment("quote.pdf", "application/pdf",
					[]byte("%PDF-1.4 supplier quote for 10 build servers"))
			}
			fmt.Printf("  [A ] alice prepares request (pass %d)\n", pass)
			return aea.Inputs{"request": "10 build servers", "attachment": attachment}, nil
		case "B1":
			fmt.Printf("  [B1] bob reviews tech: sees %v\n", s.Requests())
			return aea.Inputs{"techReview": "adequate"}, nil
		case "B2":
			fmt.Printf("  [B2] betty reviews budget (enterprise bolt)\n")
			return aea.Inputs{"budgetReview": "within Q3 budget"}, nil
		case "C":
			fmt.Printf("  [C ] carol consolidates both reviews\n")
			return aea.Inputs{"summary": "both reviews positive"}, nil
		}
		attachment := s.Requests()["attachment"]
		if name, mediaType, data, ok := document.DecodeAttachment(attachment); ok {
			fmt.Printf("  [D ] dave accepts (attachment %s, %s, %d bytes)\n", name, mediaType, len(data))
			return aea.Inputs{"accept": "true"}, nil
		}
		fmt.Printf("  [D ] dave rejects: attachment is insufficient -> loop back to A\n")
		return aea.Inputs{"accept": "false"}, nil
	}

	fmt.Println("\n=== execution ===")
	final, err := sys.Run(pid, driver.Walk{Respond: respond})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\n=== result ===")
	fmt.Println(final.Summary())

	n, err := final.VerifyAll(sys.Env.Registry)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nall %d signatures verify; document is %d bytes after %d activity executions\n",
		n, final.Size(), len(final.FinalCERs()))

	// Monitoring over the pool.
	st, err := sys.Monitor.InstanceStatus(pid)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n=== monitoring ===\nstate=%s steps=%d\n", st.State, len(st.Steps))
	for _, step := range st.Steps {
		fmt.Printf("  %s#%d by %-12s -> %v\n", step.Activity, step.Iteration, step.Participant, step.Next)
	}
	stats, err := sys.Monitor.Statistics()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pool statistics: %v instances, %d activity executions recorded, mean doc %d bytes\n",
		stats.InstancesByState, stats.TotalFinalCERs, stats.MeanDocumentBytes)
}
