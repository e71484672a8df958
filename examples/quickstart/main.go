// Quickstart: a three-activity leave-request workflow executed under the
// basic operational model of DRA4WfMS — no workflow engine anywhere, the
// document is routed directly from participant to participant.
//
// It demonstrates the essentials in ~five minutes of reading:
//
//  1. the designer builds and signs a workflow definition;
//  2. each participant's AEA verifies the received document, appends an
//     element-wise encrypted result and a cascade signature, and forwards;
//  3. any alteration of any past result is detected by signature
//     verification;
//  4. Algorithm 1 derives a CER's nonrepudiation scope.
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"dra4wfms/internal/aea"
	"dra4wfms/internal/document"
	"dra4wfms/internal/pki"
	"dra4wfms/internal/wfdef"
)

func main() {
	// --- trust fabric: one CA, four principals --------------------------
	ca, err := pki.NewCA("ca@demo", 2048)
	if err != nil {
		log.Fatal(err)
	}
	registry := pki.NewRegistry(ca)
	now := time.Now()

	principals := []string{"designer@hr", "emma@eng", "manager@eng", "hr@corp"}
	keys := map[string]*pki.KeyPair{}
	for _, id := range principals {
		kp, err := pki.GenerateKeyPair(id, 2048)
		if err != nil {
			log.Fatal(err)
		}
		cert, err := ca.Issue(pki.Identity{ID: id, DisplayName: id}, kp.Public(), now, 24*time.Hour)
		if err != nil {
			log.Fatal(err)
		}
		if err := registry.Register(cert, now); err != nil {
			log.Fatal(err)
		}
		keys[id] = kp
	}

	// --- the workflow definition ----------------------------------------
	// The shared fixture keeps this example, `dractl lint leave-request`,
	// and the information-flow lint tests on one definition. The reason
	// field is personal: a ReadRule conceals it from everyone but the
	// manager.
	def := wfdef.LeaveRequest()
	fmt.Println("=== workflow ===")
	fmt.Print(def)

	// --- the secured initial document (CER(A0)) --------------------------
	doc, err := document.New(def, keys["designer@hr"], "leave-2026-0042", now)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ninitial document: %d bytes, signed by %s\n", doc.Size(), def.Designer)

	// --- route it through the three participants -------------------------
	agents := map[string]*aea.AEA{}
	for _, id := range principals[1:] {
		agents[id] = aea.New(keys[id], registry)
	}

	out1, err := agents["emma@eng"].Execute(doc, "request",
		aea.Inputs{"days": "3", "reason": "family matter"}, now)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after 'request':  %d bytes, next: %v\n", out1.Doc.Size(), out1.Next)

	// The manager's AEA decrypts the fields the manager may read.
	session, err := agents["manager@eng"].Open(out1.Doc, "approve")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("manager sees: %v (signatures verified: %d)\n", session.Requests(), session.VerifiedSignatures)
	out2, err := session.Complete(aea.Inputs{"approved": "true"}, now)
	if err != nil {
		log.Fatal(err)
	}

	// HR cannot see the reason — the element stays encrypted for them.
	session3, err := agents["hr@corp"].Open(out2.Doc, "record")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hr sees:      %v (no 'reason': it is encrypted for the manager only)\n", session3.Requests())
	out3, err := session3.Complete(aea.Inputs{"recorded": "true"}, now)
	if err != nil {
		log.Fatal(err)
	}
	final := out3.Doc
	fmt.Printf("process completed: %v, final document %d bytes\n", out3.Completed, final.Size())

	// --- integrity: any tamper is detected -------------------------------
	n, err := final.VerifyAll(registry)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n=== verification ===\nall %d signatures valid\n", n)

	forged := final.Clone()
	forged.Root.FindByID("res-request-0").SetText("30 days, because I said so")
	if _, err := forged.VerifyAll(registry); err != nil {
		fmt.Printf("tampering with emma's stored result is detected: %v\n", err)
	} else {
		log.Fatal("BUG: tamper went undetected")
	}

	// --- nonrepudiation scope (Algorithm 1) ------------------------------
	scope, err := final.NonrepudiationScope("cer-record-0")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n=== nonrepudiation ===\nscope of HR's CER: %v\n", scope)
	fmt.Println("HR cannot deny having received a document containing every CER above;")
	fmt.Println("recursively, neither emma nor the manager can repudiate their steps.")

	fmt.Printf("\n%s\n", final.Summary())
}
