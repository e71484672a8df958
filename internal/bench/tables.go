// Package bench implements the harness behind cmd/drabench: Table 1
// (basic operational model) and Table 2 (advanced operational model) of
// the paper's evaluation on the Figure 9 workflows, and the superuser
// tamper against the engine-based baseline the paper's Section 1 argues
// against. The repository-root benchmarks wrap the same runners in
// testing.B; single-layer costs (cascade depth, verification cache,
// encryption, the TFC hop) are timed by the benchmarks of the root
// package and of the owning packages, not here.
package bench

import (
	"fmt"
	"slices"
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
	// receipt (the paper's α), the median over the repetitions;
	// AlphaIQR is their inter-quartile range.
	Alpha, AlphaIQR time.Duration
	// Beta is the time to encrypt the result and embed the signature
	// after the participant finished (the paper's β), median and IQR.
	Beta, BetaIQR time.Duration
	// Sigma is the produced document's size in bytes (the paper's Σ),
	// the mean over the repetitions.
	Sigma int
}

// RunTable1 executes the Figure 9A workflow under the basic operational
// model reps times with RSA keys of the given size, and returns the
// per-document measurements: the median and inter-quartile range of each
// time, the mean size. The first row is the secured initial document (α,
// β not applicable).
func RunTable1(bits, reps int) ([]Table1Row, error) {
	if reps <= 0 {
		reps = 1
	}
	env := testenv.Fig9(bits)
	def := wfdef.Fig9A()
	steps := fig9Steps()

	rows := make([]Table1Row, len(steps)+1)
	alphas, betas := make([][]time.Duration, len(rows)), make([][]time.Duration, len(rows))
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
			alphas[i+1] = append(alphas[i+1], alpha)
			betas[i+1] = append(betas[i+1], beta)
			row.Sigma += out.Doc.Size()
			row.SigsVerified = session.VerifiedSignatures
			row.CERs = len(out.Doc.FinalCERs())

			if err := deliver(inbox, s.act, out.Next, out.Doc); err != nil {
				return nil, err
			}
		}
	}
	for i := range rows {
		rows[i].Alpha, rows[i].AlphaIQR = spread(alphas[i])
		rows[i].Beta, rows[i].BetaIQR = spread(betas[i])
		rows[i].Sigma /= reps
	}
	return rows, nil
}

// spread returns the median and the inter-quartile range of samples
// (quartiles interpolated linearly between order statistics), zero for no
// samples.
func spread(samples []time.Duration) (median, iqr time.Duration) {
	if len(samples) == 0 {
		return 0, 0
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	q := func(p float64) time.Duration {
		pos := float64(len(s)-1) * p
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + time.Duration((pos-float64(lo))*float64(s[lo+1]-s[lo]))
	}
	return q(0.5), q(0.75) - q(0.25)
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
	// paper's α covers AEA and TFC). Each time is the median over the
	// repetitions, beside its inter-quartile range.
	Alpha, AlphaIQR time.Duration
	// Beta is the AEA's encrypt+embed time (empty for TFC rows).
	Beta, BetaIQR time.Duration
	// Gamma is the TFC's encrypt+stamp+sign time (empty for AEA rows).
	Gamma, GammaIQR time.Duration
	// Sigma is the produced document's size in bytes, the mean over the
	// repetitions.
	Sigma int
}

// RunTable2 executes the Figure 9B workflow under the advanced operational
// model reps times and returns the measurements as RunTable1 does.
func RunTable2(bits, reps int) ([]Table2Row, error) {
	if reps <= 0 {
		reps = 1
	}
	env := testenv.Fig9(bits)
	def := wfdef.Fig9B()
	steps := fig9Steps()

	rows := make([]Table2Row, 2*len(steps)+1)
	alphas, betas, gammas := make([][]time.Duration, len(rows)), make([][]time.Duration, len(rows)), make([][]time.Duration, len(rows))
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
			alphas[1+2*i] = append(alphas[1+2*i], aeaAlpha)
			betas[1+2*i] = append(betas[1+2*i], aeaBeta)
			aeaRow.Sigma += interm.Size()
			aeaRow.SigsVerified = session.VerifiedSignatures
			aeaRow.CERs = len(interm.CERs())

			// TFC stage.
			out, err := server.Process(interm)
			if err != nil {
				return nil, fmt.Errorf("bench: tfc %s#%d: %w", s.act, s.iter, err)
			}
			tfcRow := &rows[2+2*i]
			alphas[2+2*i] = append(alphas[2+2*i], out.VerifyDuration)
			gammas[2+2*i] = append(gammas[2+2*i], out.EncryptSignDuration)
			tfcRow.Sigma += out.Doc.Size()
			tfcRow.SigsVerified = out.VerifiedSignatures
			tfcRow.CERs = len(out.Doc.CERs())

			if err := deliver(inbox, s.act, out.Next, out.Doc); err != nil {
				return nil, err
			}
		}
	}
	for i := range rows {
		rows[i].Alpha, rows[i].AlphaIQR = spread(alphas[i])
		rows[i].Beta, rows[i].BetaIQR = spread(betas[i])
		rows[i].Gamma, rows[i].GammaIQR = spread(gammas[i])
		rows[i].Sigma /= reps
	}
	return rows, nil
}

// FormatTable1 renders the rows in the paper's column layout, each time
// as its median with the inter-quartile range in parentheses.
func FormatTable1(rows []Table1Row) string {
	out := fmt.Sprintf("%-10s %6s %6s %21s %21s %10s\n", "Document", "#sigs", "#CERs", "alpha (IQR)", "beta (IQR)", "Sigma(B)")
	for _, r := range rows {
		out += fmt.Sprintf("%-10s %6d %6d %21s %21s %10d\n",
			r.Doc, r.SigsVerified, r.CERs, fmtSpread(r.Alpha, r.AlphaIQR), fmtSpread(r.Beta, r.BetaIQR), r.Sigma)
	}
	return out
}

// FormatTable2 renders the rows in the paper's column layout, like
// FormatTable1.
func FormatTable2(rows []Table2Row) string {
	out := fmt.Sprintf("%-10s %-5s %6s %6s %21s %21s %21s %10s\n",
		"Document", "stage", "#sigs", "#CERs", "alpha (IQR)", "beta (IQR)", "gamma (IQR)", "Sigma(B)")
	for _, r := range rows {
		out += fmt.Sprintf("%-10s %-5s %6d %6d %21s %21s %21s %10d\n",
			r.Doc, r.Stage, r.SigsVerified, r.CERs, fmtSpread(r.Alpha, r.AlphaIQR), fmtSpread(r.Beta, r.BetaIQR),
			fmtSpread(r.Gamma, r.GammaIQR), r.Sigma)
	}
	return out
}

// fmtSpread renders a median and its IQR in milliseconds, "-" for a
// time the row does not have.
func fmtSpread(median, iqr time.Duration) string {
	if median == 0 {
		return "-"
	}
	return fmt.Sprintf("%.4fms (%.4f)", ms(median), ms(iqr))
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
