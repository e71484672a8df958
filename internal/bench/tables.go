// Package bench implements the experiment harness that regenerates the
// paper's evaluation: Table 1 (basic operational model) and Table 2
// (advanced operational model) on the Figure 9 workflows, plus the
// ablation and scalability experiments DESIGN.md calls out. The cmd/drabench
// binary prints the rows; the repository-root benchmarks wrap the same
// runners in testing.B.
package bench

import (
	"fmt"
	"time"

	"dra4wfms/internal/aea"
	"dra4wfms/internal/document"
	"dra4wfms/internal/testenv"
	"dra4wfms/internal/tfc"
	"dra4wfms/internal/wfdef"
)

// step describes one activity execution of the Figure 9 run: two passes
// through A, B1∥B2, C, D with the first decision rejecting.
type step struct {
	act    string
	iter   int
	inputs aea.Inputs
}

func fig9Steps() []step {
	pass := func(iter int, accept string) []step {
		return []step{
			{"A", iter, aea.Inputs{"request": "purchase 10 servers", "attachment": "quote.pdf"}},
			{"B1", iter, aea.Inputs{"techReview": "technically adequate"}},
			{"B2", iter, aea.Inputs{"budgetReview": "within budget"}},
			{"C", iter, aea.Inputs{"summary": "both reviews positive"}},
			{"D", iter, aea.Inputs{"accept": accept}},
		}
	}
	return append(pass(0, "false"), pass(1, "true")...)
}

// docName renders the paper's document naming, e.g. "X_B1(0)".
func docName(act string, iter int) string { return fmt.Sprintf("X_%s(%d)", act, iter) }

// Table1Row is one row of the reproduced Table 1.
type Table1Row struct {
	// Doc is the produced document, in the paper's naming.
	Doc string
	// SigsVerified is the number of embedded signatures the executing AEA
	// verified on receipt ("Number of signatures to verify").
	SigsVerified int
	// CERs is the number of characteristic execution results in the
	// produced document ("Number of CERs"; the designer's CER(A0) is not
	// counted).
	CERs int
	// Alpha is the time to decrypt cipher data and verify signatures on
	// receipt (the paper's α, seconds).
	Alpha time.Duration
	// Beta is the time to encrypt the result and embed the signature
	// after the participant finished (the paper's β, seconds).
	Beta time.Duration
	// Sigma is the produced document's size in bytes (the paper's Σ).
	Sigma int
}

// RunTable1 executes the Figure 9A workflow under the basic operational
// model reps times with RSA keys of the given size, and returns the
// averaged per-document measurements. The first row is the secured initial
// document (α, β not applicable).
func RunTable1(bits, reps int) ([]Table1Row, error) {
	if reps <= 0 {
		reps = 1
	}
	env := testenv.Fig9(bits)
	def := wfdef.Fig9A()
	steps := fig9Steps()

	rows := make([]Table1Row, len(steps)+1)
	rows[0] = Table1Row{Doc: "Initial"}
	for i, s := range steps {
		rows[i+1] = Table1Row{Doc: docName(s.act, s.iter)}
	}

	for rep := 0; rep < reps; rep++ {
		agents := map[string]*aea.AEA{}
		for act, p := range wfdef.Fig9Participants {
			agents[act] = aea.New(env.KeyOf(p), env.Registry)
		}
		initial, err := document.New(def, env.KeyOf("designer@acme"), testenv.ProcessID(), time.Now())
		if err != nil {
			return nil, err
		}
		rows[0].Sigma += initial.Size()

		// Documents currently addressed to each activity.
		inbox := map[string]*document.Document{"A": initial}
		for i, s := range steps {
			doc := inbox[s.act]
			if doc == nil {
				return nil, fmt.Errorf("bench: no document for %s#%d", s.act, s.iter)
			}
			t0 := time.Now()
			session, err := agents[s.act].Open(doc, s.act)
			if err != nil {
				return nil, fmt.Errorf("bench: open %s#%d: %w", s.act, s.iter, err)
			}
			alpha := time.Since(t0)

			t1 := time.Now()
			out, err := session.Complete(s.inputs, time.Now())
			if err != nil {
				return nil, fmt.Errorf("bench: complete %s#%d: %w", s.act, s.iter, err)
			}
			beta := time.Since(t1)

			row := &rows[i+1]
			row.Alpha += alpha
			row.Beta += beta
			row.Sigma += out.Doc.Size()
			row.SigsVerified = session.VerifiedSignatures
			row.CERs = len(out.Doc.FinalCERs())

			if err := deliver(inbox, s.act, out.Next, out.Doc); err != nil {
				return nil, err
			}
		}
	}
	for i := range rows {
		rows[i].Alpha /= time.Duration(reps)
		rows[i].Beta /= time.Duration(reps)
		rows[i].Sigma /= reps
	}
	return rows, nil
}

// deliver hands doc, just produced by activity from, to each activity in
// next (wfdef.EndID aside): an activity already holding a document with
// CERs doc lacks gets the two merged (the AND-join), any other gets doc.
// The targets share doc, since every AEA session forks what it opens.
func deliver(inbox map[string]*document.Document, from string, next []string, doc *document.Document) error {
	delete(inbox, from)
	for _, to := range next {
		if to == wfdef.EndID {
			continue
		}
		if existing := inbox[to]; existing != nil && hasNewCERs(existing, doc) {
			merged, err := document.Merge(existing, doc)
			if err != nil {
				return err
			}
			inbox[to] = merged
		} else {
			inbox[to] = doc
		}
	}
	return nil
}

// hasNewCERs reports whether d carries CERs absent from existing (a real
// parallel branch rather than a stale copy).
func hasNewCERs(existing, d *document.Document) bool {
	seen := map[string]bool{}
	for _, c := range existing.CERs() {
		seen[c.ID()] = true
	}
	for _, c := range d.CERs() {
		if !seen[c.ID()] {
			return true
		}
	}
	return false
}

// Table2Row is one row of the reproduced Table 2. Under the advanced
// model each activity produces two documents: the intermediate X̄ (built
// by the AEA, result encrypted to the TFC) and the final X” (built by
// the TFC after policy encryption and timestamping).
type Table2Row struct {
	// Doc is the produced document, "X̄_A(0)" for intermediate or
	// "X_A(0)" for TFC-final.
	Doc string
	// Stage is "AEA" (intermediate) or "TFC" (final).
	Stage string
	// SigsVerified is the number of signatures verified on receipt by the
	// stage's actor.
	SigsVerified int
	// CERs counts the characteristic execution results (both kinds) in
	// the produced document.
	CERs int
	// Alpha is the receive-side decrypt+verify time of this stage (the
	// paper's α covers AEA and TFC).
	Alpha time.Duration
	// Beta is the AEA's encrypt+embed time (empty for TFC rows).
	Beta time.Duration
	// Gamma is the TFC's encrypt+stamp+sign time (empty for AEA rows).
	Gamma time.Duration
	// Sigma is the produced document's size in bytes.
	Sigma int
}

// RunTable2 executes the Figure 9B workflow under the advanced operational
// model reps times and returns the averaged measurements.
func RunTable2(bits, reps int) ([]Table2Row, error) {
	if reps <= 0 {
		reps = 1
	}
	env := testenv.Fig9(bits)
	def := wfdef.Fig9B()
	steps := fig9Steps()

	rows := make([]Table2Row, 2*len(steps)+1)
	rows[0] = Table2Row{Doc: "Initial", Stage: "designer"}
	for i, s := range steps {
		rows[1+2*i] = Table2Row{Doc: "X̄_" + s.act + fmt.Sprintf("(%d)", s.iter), Stage: "AEA"}
		rows[2+2*i] = Table2Row{Doc: docName(s.act, s.iter), Stage: "TFC"}
	}

	for rep := 0; rep < reps; rep++ {
		agents := map[string]*aea.AEA{}
		for act, p := range wfdef.Fig9Participants {
			agents[act] = aea.New(env.KeyOf(p), env.Registry)
		}
		server := tfc.New(env.KeyOf("tfc@cloud"), env.Registry, time.Now)
		initial, err := document.New(def, env.KeyOf("designer@acme"), testenv.ProcessID(), time.Now())
		if err != nil {
			return nil, err
		}
		rows[0].Sigma += initial.Size()

		inbox := map[string]*document.Document{"A": initial}
		for i, s := range steps {
			doc := inbox[s.act]
			if doc == nil {
				return nil, fmt.Errorf("bench: no document for %s#%d", s.act, s.iter)
			}
			// AEA stage.
			t0 := time.Now()
			session, err := agents[s.act].Open(doc, s.act)
			if err != nil {
				return nil, fmt.Errorf("bench: open %s#%d: %w", s.act, s.iter, err)
			}
			aeaAlpha := time.Since(t0)
			t1 := time.Now()
			interm, err := session.CompleteToTFC(s.inputs)
			if err != nil {
				return nil, fmt.Errorf("bench: to-tfc %s#%d: %w", s.act, s.iter, err)
			}
			aeaBeta := time.Since(t1)

			aeaRow := &rows[1+2*i]
			aeaRow.Alpha += aeaAlpha
			aeaRow.Beta += aeaBeta
			aeaRow.Sigma += interm.Size()
			aeaRow.SigsVerified = session.VerifiedSignatures
			aeaRow.CERs = len(interm.CERs())

			// TFC stage.
			out, err := server.Process(interm)
			if err != nil {
				return nil, fmt.Errorf("bench: tfc %s#%d: %w", s.act, s.iter, err)
			}
			tfcRow := &rows[2+2*i]
			tfcRow.Alpha += out.VerifyDuration
			tfcRow.Gamma += out.EncryptSignDuration
			tfcRow.Sigma += out.Doc.Size()
			tfcRow.SigsVerified = out.VerifiedSignatures
			tfcRow.CERs = len(out.Doc.CERs())

			if err := deliver(inbox, s.act, out.Next, out.Doc); err != nil {
				return nil, err
			}
		}
	}
	for i := range rows {
		rows[i].Alpha /= time.Duration(reps)
		rows[i].Beta /= time.Duration(reps)
		rows[i].Gamma /= time.Duration(reps)
		rows[i].Sigma /= reps
	}
	return rows, nil
}

// FormatTable1 renders the rows in the paper's column layout.
func FormatTable1(rows []Table1Row) string {
	out := fmt.Sprintf("%-10s %6s %6s %12s %12s %10s\n", "Document", "#sigs", "#CERs", "alpha", "beta", "Sigma(B)")
	for _, r := range rows {
		out += fmt.Sprintf("%-10s %6d %6d %12s %12s %10d\n",
			r.Doc, r.SigsVerified, r.CERs, fmtDur(r.Alpha), fmtDur(r.Beta), r.Sigma)
	}
	return out
}

// FormatTable2 renders the rows in the paper's column layout.
func FormatTable2(rows []Table2Row) string {
	out := fmt.Sprintf("%-10s %-5s %6s %6s %12s %12s %12s %10s\n",
		"Document", "stage", "#sigs", "#CERs", "alpha", "beta", "gamma", "Sigma(B)")
	for _, r := range rows {
		out += fmt.Sprintf("%-10s %-5s %6d %6d %12s %12s %12s %10d\n",
			r.Doc, r.Stage, r.SigsVerified, r.CERs, fmtDur(r.Alpha), fmtDur(r.Beta), fmtDur(r.Gamma), r.Sigma)
	}
	return out
}

func fmtDur(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	return fmt.Sprintf("%.4fms", float64(d.Microseconds())/1000)
}
