// Expense flow: a cross-enterprise expense-approval workflow showing the
// operational features around the core protocol —
//
//   - the designer publishes a SIGNED WORKFLOW TEMPLATE to the portal
//     catalog; any participant can fetch and verify it before trusting
//     the process shape;
//   - the approval activity is ROLE-BASED: any certified "approver" may
//     claim it from the role worklist (two managers hold the role);
//   - the receipt travels as a BINARY ATTACHMENT inside an encrypted
//     field;
//   - when the finance department later disputes the payout, an OFFLINE
//     AUDIT over the final document settles it: the approver cannot deny
//     the approval, and the amount cannot have been altered.
//
// Run: go run ./examples/expenseflow
package main

import (
	"fmt"
	"log"

	"dra4wfms/internal/aea"
	"dra4wfms/internal/audit"
	"dra4wfms/internal/document"
	"dra4wfms/internal/driver"
	"dra4wfms/internal/testenv"
	"dra4wfms/internal/wfdef"
)

func main() {
	env := testenv.New(2048)
	env.MustRegister("designer@corp", "emma@eng", "finance@corp")
	// Two approvers hold the role; finance just reads.
	for _, mgr := range []string{"mgr-north@corp", "mgr-south@corp"} {
		if err := env.RegisterRoles(mgr, "approver"); err != nil {
			log.Fatal(err)
		}
	}
	sys := driver.New(env)

	// The shared fixture keeps this example and `dractl lint
	// expense-approval` on one definition.
	def := wfdef.ExpenseApproval()

	// --- 1. the designer publishes the signed template --------------------
	tpl, err := document.SignTemplate(def, env.KeyOf(def.Designer))
	if err != nil {
		log.Fatal(err)
	}
	name, err := sys.Portals[0].StoreTemplate(tpl)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("template %q published: catalog = %v\n", name, sys.Portals[0].Templates())

	// A participant fetches and verifies it before agreeing to take part.
	fetched, _, err := sys.Portals[1].Template("emma@eng", name)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("emma verified the template: %s\n", fetched.Summary())

	// --- 2. run an instance ------------------------------------------------
	doc, _, err := sys.Start(def)
	if err != nil {
		log.Fatal(err)
	}
	receipt := document.EncodeAttachment("dinner.jpg", "image/jpeg", []byte{0xFF, 0xD8, 0xFF, 0xE0, 'j', 'p', 'g'})
	respond := func(s *aea.Session) (aea.Inputs, error) {
		switch s.Activity().ID {
		case "file":
			return aea.Inputs{"amount": "86.50", "receipt": receipt}, nil
		case "approve":
			reqs := s.Requests()
			fname, mediaType, data, _ := document.DecodeAttachment(reqs["receipt"])
			fmt.Printf("approver %s sees amount=%s receipt=%s (%s, %d bytes)\n",
				s.Activity().Role, reqs["amount"], fname, mediaType, len(data))
			return aea.Inputs{"approved": "true"}, nil
		}
		return aea.Inputs{"paid": "true"}, nil
	}
	// The role worklist offers the item to both managers; the south
	// manager claims it.
	final, err := sys.Run(doc.ProcessID(), driver.Walk{
		Respond: respond,
		Actors:  map[string]string{"approver": "mgr-south@corp"},
	})
	if err != nil {
		log.Fatal(err)
	}
	cer, _ := final.FindCER("final", "approve", 0)
	fmt.Printf("approval executed and signed by %s (role-based claim)\n", cer.Signer())

	// --- 3. the dispute ----------------------------------------------------
	fmt.Println("\nfinance disputes the payout: 'nobody approved 86.50!'")
	report, err := audit.Audit(final, env.Registry)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(report.Render())
	if report.Verified {
		scope, _ := final.NonrepudiationScope("cer-approve-0")
		fmt.Printf("\nthe audit binds %s to the approval; its nonrepudiation scope %v\n", cer.Signer(), scope)
		fmt.Println("includes emma's filed amount — neither party can repudiate.")
	}

	// And if finance had doctored the amount in its copy:
	forged := final.Clone()
	forged.Root.FindByID("res-file-0").SetText("forged amount")
	//lint:ignore cryptoerr the forged document is SUPPOSED to fail; the report carries the verdict
	badReport, _ := audit.Audit(forged, env.Registry)
	fmt.Printf("\nforged copy audit verdict: verified=%v (finding: %s)\n",
		badReport.Verified, badReport.Findings[0].Message)
}
