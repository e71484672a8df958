package bench

import (
	"strings"
	"testing"
	"time"
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

func TestRunCascadeDepth(t *testing.T) {
	// Wall-clock assertions are noisy when the whole suite shares the CPU
	// (e.g. during -bench runs): take the best of three runs per depth and
	// compare depths far apart.
	var rows []CascadeRow
	for attempt := 0; attempt < 3; attempt++ {
		got, err := RunCascadeDepth(bits, []int{2, 32}, 3)
		if err != nil {
			t.Fatal(err)
		}
		if rows == nil {
			rows = got
			continue
		}
		for i := range got {
			if got[i].VerifyTime < rows[i].VerifyTime {
				rows[i].VerifyTime = got[i].VerifyTime
			}
			if got[i].WarmVerifyTime < rows[i].WarmVerifyTime {
				rows[i].WarmVerifyTime = got[i].WarmVerifyTime
			}
		}
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[1].VerifyTime <= rows[0].VerifyTime {
		t.Fatalf("verify time not growing with depth: %v then %v", rows[0].VerifyTime, rows[1].VerifyTime)
	}
	if rows[1].DocBytes <= rows[0].DocBytes {
		t.Fatal("doc size not growing with depth")
	}
	if rows[0].ScopeSize != 3 || rows[1].ScopeSize != 33 { // chain + CER(A0)
		t.Fatalf("scope sizes = %d, %d", rows[0].ScopeSize, rows[1].ScopeSize)
	}
	// The warm column exists and carries a measurement; at depth 32 the
	// warm re-verify skips 33 RSA operations, so even under heavy noise it
	// must not exceed the serial baseline (best of three on both sides).
	if rows[1].WarmVerifyTime <= 0 {
		t.Fatal("warm verify time not measured")
	}
	if rows[1].WarmVerifyTime > rows[1].VerifyTime {
		t.Fatalf("warm re-verify slower than serial baseline at depth 32: %v > %v",
			rows[1].WarmVerifyTime, rows[1].VerifyTime)
	}
}

func TestRunVerifyCache(t *testing.T) {
	// The timed comparison is wall-clock: a garbage collection landing in
	// the warm samples (frequent under -race with a small heap) can invert
	// it, so it gets three attempts, like TestRunCascadeDepth.
	for attempt := 1; ; attempt++ {
		rows, err := RunVerifyCache(bits, []int{1, 8}, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 2 {
			t.Fatalf("rows = %d", len(rows))
		}
		for _, r := range rows {
			if r.Sigs != r.CERs+1 { // chain CERs + the designer signature
				t.Fatalf("depth %d: Sigs = %d, want %d", r.CERs, r.Sigs, r.CERs+1)
			}
			if r.ColdSerial <= 0 || r.ColdFast <= 0 || r.WarmHop <= 0 {
				t.Fatalf("depth %d: missing measurement: %+v", r.CERs, r)
			}
		}
		// At depth 8 the warm hop pays one RSA verify instead of nine; the
		// sub-linear re-verify is the acceptance criterion of the fast path.
		if rows[1].WarmHop <= rows[1].ColdSerial {
			return
		}
		if attempt == 3 {
			t.Fatalf("warm hop slower than cold serial at depth 8: %v > %v",
				rows[1].WarmHop, rows[1].ColdSerial)
		}
	}
}

func TestRunElementwiseVsWhole(t *testing.T) {
	rows, err := RunElementwiseVsWhole(bits, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.ElementwiseEncrypt <= 0 || r.WholeEncrypt <= 0 {
		t.Fatalf("row = %+v", r)
	}
	// Element-wise costs more space and encrypt time (k key wraps) but
	// allows decrypting a single field.
	if r.ElementwiseBytes <= r.WholeBytes {
		t.Fatalf("elementwise %dB vs whole %dB", r.ElementwiseBytes, r.WholeBytes)
	}
	if r.ElementwiseDecryptOne <= 0 || r.WholeDecrypt <= 0 {
		t.Fatalf("decrypt times: %+v", r)
	}
}

func TestRunMultiRecipient(t *testing.T) {
	rows, err := RunMultiRecipient(bits, []int{1, 8})
	if err != nil {
		t.Fatal(err)
	}
	if rows[1].Bytes <= rows[0].Bytes {
		t.Fatal("ciphertext not growing with recipients")
	}
}

func TestRunTFCThroughput(t *testing.T) {
	res, err := RunTFCThroughput(bits, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Documents != 5 || res.TFCMeanPerDoc <= 0 || res.AEAMeanPerDoc <= 0 {
		t.Fatalf("res = %+v", res)
	}
	if res.TFCDocsPerSecond <= 0 {
		t.Fatal("no throughput computed")
	}
	// The paper's observation: AEA and TFC have "very similar total
	// processing times" (the TFC additionally unwraps the CEK and signs —
	// two RSA private operations vs the AEA's one — but holds no
	// interactive session). Same order of magnitude is the claim.
	if res.TFCMeanPerDoc > res.AEAMeanPerDoc*5 {
		t.Fatalf("TFC (%v) is not in the same order as AEA (%v)", res.TFCMeanPerDoc, res.AEAMeanPerDoc)
	}
}

func TestRunScalabilityShape(t *testing.T) {
	rows := RunScalability([]int{10, 100}, 5*time.Millisecond, 5*time.Millisecond, time.Millisecond, 2)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// At load 100 the centralized engine's latency must exceed DRA's (the
	// who-wins shape), and the gap must grow with load.
	var eng10, dra10, eng100, dra100 time.Duration
	for _, r := range rows {
		switch {
		case r.Instances == 10 && strings.HasPrefix(r.Label, "engine"):
			eng10 = r.MeanLatency
		case r.Instances == 10:
			dra10 = r.MeanLatency
		case r.Instances == 100 && strings.HasPrefix(r.Label, "engine"):
			eng100 = r.MeanLatency
		case r.Instances == 100:
			dra100 = r.MeanLatency
		}
	}
	if eng100 <= dra100 {
		t.Fatalf("engine (%v) not slower than DRA (%v) at load 100", eng100, dra100)
	}
	if float64(eng100)/float64(dra100) <= float64(eng10)/float64(dra10) {
		t.Fatalf("gap not growing with load: %v/%v then %v/%v", eng10, dra10, eng100, dra100)
	}
}

func TestRunDoSShape(t *testing.T) {
	rows := RunDoS([]int{0, 1000}, 2*time.Millisecond, 4)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	var engAttacked, draAttacked time.Duration
	for _, r := range rows {
		if r.AttackRate == 1000 {
			if strings.HasPrefix(r.Label, "engine") {
				engAttacked = r.LegitMean
			} else {
				draAttacked = r.LegitMean
			}
		}
		if r.LegitServed != 100 {
			t.Fatalf("legit served = %d", r.LegitServed)
		}
	}
	// Under attack, legit latency through the engine collapses while the
	// multi-portal deployment degrades far less (3/4 of clients unaffected).
	if engAttacked <= draAttacked*2 {
		t.Fatalf("DoS shape wrong: engine %v vs dra %v", engAttacked, draAttacked)
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

func TestRunScalabilityDistributedShape(t *testing.T) {
	loads := []int{100}
	central := RunScalability(loads, 5*time.Millisecond, 5*time.Millisecond, time.Millisecond, 2)
	distributed := RunScalabilityDistributed(loads, 5*time.Millisecond, 5*time.Millisecond)
	if len(distributed) != 1 {
		t.Fatalf("rows = %d", len(distributed))
	}
	var centralRow ScalabilityRow
	for _, r := range central {
		if strings.HasPrefix(r.Label, "engine-centralized") {
			centralRow = r
		}
	}
	d := distributed[0]
	// Three engines beat one engine on queueing (load spreads)...
	if d.MeanLatency >= centralRow.MeanLatency {
		t.Fatalf("distributed (%v) not faster than centralized (%v)", d.MeanLatency, centralRow.MeanLatency)
	}
	// ...but pay for instance migrations: per-instance latency must exceed
	// the zero-queue service floor (5 steps * 5ms) by at least the two
	// migration latencies.
	floor := 5*5*time.Millisecond + 2*5*time.Millisecond
	if d.MeanLatency < floor {
		t.Fatalf("distributed latency %v below migration-inclusive floor %v", d.MeanLatency, floor)
	}
	if d.Label != "engine-distributed" || d.Instances != 100 {
		t.Fatalf("row = %+v", d)
	}
}

func TestRunPoolScale(t *testing.T) {
	rows, err := RunPoolScale(bits, []int{200, 1000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.StoreMicrosPerDoc <= 0 || r.QueryMicrosPerDoc <= 0 || r.MonitorMicros <= 0 || r.StatsMillis <= 0 {
			t.Fatalf("row = %+v", r)
		}
		if r.Regions < 1 {
			t.Fatalf("regions = %d", r.Regions)
		}
	}
	// Random query cost stays roughly flat as the pool grows (region
	// routing + binary search, not linear scan): allow generous slack.
	var q200, q1000 float64
	for _, r := range rows {
		if r.Documents == 200 {
			q200 = r.QueryMicrosPerDoc
		}
		if r.Documents == 1000 {
			q1000 = r.QueryMicrosPerDoc
		}
	}
	if q1000 > q200*20 {
		t.Fatalf("query cost exploded with pool size: %v -> %v", q200, q1000)
	}
}
