package bench

import (
	"strings"
	"testing"
)

// Runner tests use 1024-bit keys: the structural assertions (row counts,
// monotonic growth, who-wins ordering) are key-size independent.
const bits = 1024

func TestRunTable1Shape(t *testing.T) {
	rows, err := RunTable1(bits, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11 { // Initial + 10 executions
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Doc != "Initial" || rows[0].Sigma == 0 {
		t.Fatalf("initial row = %+v", rows[0])
	}
	// Document size and signature count grow monotonically along the run.
	for i := 2; i < len(rows); i++ {
		if rows[i].Sigma <= rows[0].Sigma {
			t.Fatalf("row %d size %d not above initial", i, rows[i].Sigma)
		}
	}
	if rows[1].SigsVerified != 1 { // A(0) verified only the designer's signature
		t.Fatalf("X_A(0) sigs = %d", rows[1].SigsVerified)
	}
	// C joins two branches: it verifies designer + A + B1 + B2 = 4.
	if rows[4].Doc != "X_C(0)" || rows[4].SigsVerified != 4 {
		t.Fatalf("X_C(0) row = %+v", rows[4])
	}
	// Final document of the second pass holds 10 CERs.
	last := rows[len(rows)-1]
	if last.Doc != "X_D(1)" || last.CERs != 10 {
		t.Fatalf("last row = %+v", last)
	}
	// α of the last step (verify 10+ signatures) exceeds α of the first
	// (verify 1) — the paper's linear-growth observation.
	if last.Alpha <= rows[1].Alpha {
		t.Fatalf("alpha not growing: first %v last %v", rows[1].Alpha, last.Alpha)
	}
	// Every executed row has positive β.
	for _, r := range rows[1:] {
		if r.Beta <= 0 {
			t.Fatalf("row %s has no beta", r.Doc)
		}
	}
	out := FormatTable1(rows)
	for _, want := range []string{"Document", "X_A(0)", "X_D(1)", "Sigma"} {
		if !strings.Contains(out, want) {
			t.Fatalf("FormatTable1 missing %q:\n%s", want, out)
		}
	}
}

func TestRunTable2Shape(t *testing.T) {
	rows, err := RunTable2(bits, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 21 { // Initial + (AEA + TFC) × 10
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[1].Stage != "AEA" || rows[2].Stage != "TFC" {
		t.Fatalf("stage order: %+v %+v", rows[1], rows[2])
	}
	// AEA rows have β, TFC rows have γ and a larger document.
	for i := 1; i < len(rows); i += 2 {
		aeaRow, tfcRow := rows[i], rows[i+1]
		if aeaRow.Beta <= 0 {
			t.Fatalf("AEA row %s has no beta", aeaRow.Doc)
		}
		if aeaRow.Gamma != 0 {
			t.Fatalf("AEA row %s has gamma", aeaRow.Doc)
		}
		if tfcRow.Gamma <= 0 || tfcRow.Beta != 0 {
			t.Fatalf("TFC row %s beta/gamma wrong: %+v", tfcRow.Doc, tfcRow)
		}
		if tfcRow.Sigma <= aeaRow.Sigma {
			t.Fatalf("TFC doc %s not larger than intermediate", tfcRow.Doc)
		}
		if tfcRow.CERs != aeaRow.CERs+1 {
			t.Fatalf("TFC row %s CERs %d vs AEA %d", tfcRow.Doc, tfcRow.CERs, aeaRow.CERs)
		}
	}
	// Advanced-model documents are larger than basic-model ones (extra
	// intermediate CERs + timestamps) — the Table 1 vs Table 2 comparison.
	t1, err := RunTable1(bits, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rows[len(rows)-1].Sigma <= t1[len(t1)-1].Sigma {
		t.Fatalf("advanced final doc (%d B) not larger than basic (%d B)",
			rows[len(rows)-1].Sigma, t1[len(t1)-1].Sigma)
	}
	out := FormatTable2(rows)
	if !strings.Contains(out, "gamma") || !strings.Contains(out, "TFC") {
		t.Fatalf("FormatTable2 output:\n%s", out)
	}
}

func TestRunEngineVsDRA(t *testing.T) {
	res, err := RunEngineVsDRA(bits, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.EngineTamperCaught {
		t.Fatal("baseline unexpectedly detected tampering")
	}
	if !res.DRATamperCaught {
		t.Fatal("DRA4WfMS failed to detect tampering")
	}
	// The crypto costs real time: DRA per-instance must exceed plaintext
	// engine per-instance (an honest trade-off the paper accepts).
	if res.DRAMeanPerInst <= res.EngineMeanPerInst {
		t.Fatalf("DRA (%v) unexpectedly cheaper than engine (%v)", res.DRAMeanPerInst, res.EngineMeanPerInst)
	}
}
