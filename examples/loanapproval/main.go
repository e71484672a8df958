// Loan approval: the paper's Figure 4 scenario — flow-information
// concealment forces the ADVANCED operational model with a TFC server.
//
// Peter enters the loan amount X, which only the reviewer Amy (and the
// TFC) may read. Tony attaches the customer dossier Y, confidential to the
// eventual handler. After Amy's review, a conditional branch on X routes
// to John (large loans) or Mary (small loans) — but Tony and Amy cannot
// evaluate that branch or know the next reader, so their AEAs hand the
// encrypted results to the TFC server, which decrypts, applies the
// per-variable policy encryption, stamps the finish time, signs (keeping
// the cascade intact) and forwards.
//
// The example then demonstrates the failure the paper describes: under the
// basic model Tony simply cannot proceed.
//
// Run: go run ./examples/loanapproval
package main

import (
	"errors"
	"fmt"
	"log"
	"time"

	"dra4wfms/internal/aea"
	"dra4wfms/internal/driver"
	"dra4wfms/internal/testenv"
	"dra4wfms/internal/wfdef"
	"dra4wfms/internal/xmlenc"
)

func main() {
	env := testenv.Fig4(2048)
	sys := driver.New(env)
	p := wfdef.Fig4Participants

	def := wfdef.Fig4()
	fmt.Println("=== concealed-flow workflow (paper, Figure 4) ===")
	fmt.Print(def)
	fmt.Println("\npolicy: X readable by Amy+TFC only; Y by John/Mary/TFC; flow concealed")

	// --- the basic model fails, as the paper argues ----------------------
	doc, _, err := sys.Start(def)
	if err != nil {
		log.Fatal(err)
	}
	peterAEA := aea.New(env.KeyOf(p.Peter), env.Registry)
	session, err := peterAEA.Open(doc, "A1")
	if err != nil {
		log.Fatal(err)
	}
	if _, err := session.Complete(aea.Inputs{"X": "1500"}, time.Now()); errors.Is(err, aea.ErrAdvancedRequired) {
		fmt.Printf("\nbasic model refused (as expected): %v\n", err)
	} else {
		log.Fatalf("BUG: basic completion did not fail correctly: %v", err)
	}

	// --- the advanced model succeeds --------------------------------------
	run := func(amount string) {
		doc, _, err := sys.Start(def)
		if err != nil {
			log.Fatal(err)
		}
		inputs := map[string]aea.Inputs{
			"A1": {"X": amount},
			"A2": {"Y": "dossier: salary slips, contracts"},
			"A3": {"reviewed": "true"},
			"A4": {"highResult": "senior banker approved"},
			"A5": {"lowResult": "teller approved"},
		}
		final, err := sys.Run(doc.ProcessID(), driver.Walk{Respond: func(s *aea.Session) (aea.Inputs, error) {
			return inputs[s.Activity().ID], nil
		}})
		if err != nil {
			log.Fatal(err)
		}
		handler := "A4 (John, large loans)"
		if _, ok := final.FindCER("final", "A5", 0); ok {
			handler = "A5 (Mary, small loans)"
		}
		fmt.Printf("\nX=%s: routed by the TFC to %s\n", amount, handler)

		// Who can read what in the final document?
		for _, id := range []string{p.Tony, p.Amy, p.John, p.Mary} {
			view := final.Clone()
			if _, err := xmlenc.DecryptVisible(view.Root, env.KeyOf(id)); err != nil {
				log.Fatal(err)
			}
			vals := view.Values()
			_, seesX := vals["X"]
			_, seesY := vals["Y"]
			fmt.Printf("  %-10s sees X:%-5v Y:%-5v\n", id, seesX, seesY)
		}

		// Every final CER carries the TFC's timestamp (the notary role).
		recs, err := sys.TFC("tfc@cloud").RecordsFor(final.ProcessID())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  TFC forwarded %d documents for this instance\n", len(recs))
	}
	run("1500") // Func(X)=True  -> John
	run("800")  // Func(X)=False -> Mary
}
