// Root benchmarks: Tables 1 and 2 and the engine baseline through the
// runners of internal/bench (`cmd/drabench` prints the same results as
// paper-style tables), and one benchmark per single-layer cost the
// evaluation decomposes into: cascade depth, Algorithm 1, element-wise
// encryption, key wrapping per reader, the TFC hop, AEA Open, the pool
// and a portal lifecycle. `make benchsmoke` runs each once.
//
// Run: go test -run=NONE -bench=. -benchmem .
package dra4wfms

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"dra4wfms/internal/aea"
	"dra4wfms/internal/bench"
	"dra4wfms/internal/document"
	"dra4wfms/internal/pool"
	"dra4wfms/internal/portal"
	"dra4wfms/internal/testenv"
	"dra4wfms/internal/tfc"
	"dra4wfms/internal/wfdef"
	"dra4wfms/internal/xmlenc"
)

// benchBits is the RSA modulus size for benchmarks: 2048 mirrors a real
// deployment (and the 2012 prototype's key class). Keys are cached
// process-wide, so only the first benchmark pays generation cost.
const benchBits = 2048

// BenchmarkTable1 regenerates Table 1: one op = one complete run of the
// Figure 9A workflow (two passes, 10 activity executions) under the basic
// operational model, measuring the AEA α (verify+decrypt) and β
// (encrypt+sign) phases per document. Custom metrics report the final
// document size (the paper's Σ for X_D(1)) and the terminal α.
func BenchmarkTable1(b *testing.B) {
	var rows []bench.Table1Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.RunTable1(benchBits, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := rows[len(rows)-1]
	b.ReportMetric(float64(last.Sigma), "finalDocBytes")
	b.ReportMetric(float64(last.Alpha.Microseconds()), "alphaLast_us")
	b.ReportMetric(float64(last.Beta.Microseconds()), "betaLast_us")
}

// BenchmarkTable2 regenerates Table 2: one op = one complete run of the
// Figure 9B workflow under the advanced operational model (every hop via
// the TFC server), reporting the terminal sizes and the TFC γ phase.
func BenchmarkTable2(b *testing.B) {
	var rows []bench.Table2Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.RunTable2(benchBits, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := rows[len(rows)-1]
	b.ReportMetric(float64(last.Sigma), "finalDocBytes")
	b.ReportMetric(float64(last.Alpha.Microseconds()), "alphaLast_us")
	b.ReportMetric(float64(last.Gamma.Microseconds()), "gammaLast_us")
}

// BenchmarkSignatureCascadeDepth isolates the linear α term of Tables 1
// and 2: full-document verification against the number of cascaded CERs.
func BenchmarkSignatureCascadeDepth(b *testing.B) {
	env := testenv.Fig9(benchBits)
	for _, depth := range []int{1, 4, 16, 64} {
		depth := depth
		b.Run(fmt.Sprintf("cers-%d", depth), func(b *testing.B) {
			doc := buildChain(b, env, depth)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := doc.VerifyAll(env.Registry); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(doc.Size()), "docBytes")
		})
	}
}

// buildChain produces a document with a linear cascade of n CERs by
// executing a generated n-activity sequence.
func buildChain(b *testing.B, env *testenv.Env, n int) *document.Document {
	b.Helper()
	builder := wfdef.NewBuilder("chain", "designer@acme")
	prev := ""
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("S%03d", i)
		builder = builder.Activity(id, "", "alice@acme").Response("v", "string", false).Done()
		if prev == "" {
			builder = builder.Start(id)
		} else {
			builder = builder.Edge(prev, id)
		}
		prev = id
	}
	def, err := builder.End(prev).DefaultReaders("alice@acme").Build()
	if err != nil {
		b.Fatal(err)
	}
	env.MustRegister("alice@acme")
	doc, err := document.New(def, env.KeyOf("designer@acme"), testenv.ProcessID(), time.Now())
	if err != nil {
		b.Fatal(err)
	}
	agent := aea.New(env.KeyOf("alice@acme"), env.Registry)
	cur := doc
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("S%03d", i)
		out, err := agent.Execute(cur, id, aea.Inputs{"v": "x"}, time.Now())
		if err != nil {
			b.Fatal(err)
		}
		cur = out.Doc
	}
	return cur
}

// BenchmarkNonrepScope measures Algorithm 1 (nonrepudiation-scope
// derivation) against document size; it is pure graph closure, no crypto.
func BenchmarkNonrepScope(b *testing.B) {
	env := testenv.Fig9(benchBits)
	for _, depth := range []int{4, 16, 64} {
		depth := depth
		b.Run(fmt.Sprintf("cers-%d", depth), func(b *testing.B) {
			doc := buildChain(b, env, depth)
			last := fmt.Sprintf("cer-S%03d-0", depth-1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := doc.NonrepudiationScope(last); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkElementwiseVsWholeDoc compares the paper's element-wise
// encryption against whole-result encryption (Section 2 design choice).
func BenchmarkElementwiseVsWholeDoc(b *testing.B) {
	env := testenv.Fig9(benchBits)
	env.MustRegister("amy@x", "bob@x")
	recips := []xmlenc.Recipient{
		{ID: "amy@x", Key: env.KeyOf("amy@x").Public()},
		{ID: "bob@x", Key: env.KeyOf("bob@x").Public()},
	}
	const fields = 8
	mk := func() []*documentField {
		out := make([]*documentField, fields)
		for i := range out {
			out[i] = &documentField{name: fmt.Sprintf("v%d", i), value: "the execution result payload"}
		}
		return out
	}
	b.Run("elementwise", func(b *testing.B) {
		fs := mk()
		for i := 0; i < b.N; i++ {
			for _, f := range fs {
				if _, err := xmlenc.Encrypt(document.Field(f.name, f.value), "e", recips...); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("wholedoc", func(b *testing.B) {
		fs := mk()
		for i := 0; i < b.N; i++ {
			whole := document.Field("all", "")
			for _, f := range fs {
				whole.AppendChild(document.Field(f.name, f.value))
			}
			if _, err := xmlenc.Encrypt(whole, "e", recips...); err != nil {
				b.Fatal(err)
			}
		}
	})
}

type documentField struct{ name, value string }

// BenchmarkMultiRecipient measures granting k readers access to one
// element (k RSA-OAEP wraps of the shared CEK).
func BenchmarkMultiRecipient(b *testing.B) {
	env := testenv.New(benchBits)
	for _, k := range []int{1, 4, 16} {
		k := k
		b.Run(fmt.Sprintf("readers-%d", k), func(b *testing.B) {
			recips := make([]xmlenc.Recipient, k)
			for i := range recips {
				id := fmt.Sprintf("reader%03d@x", i)
				recips[i] = xmlenc.Recipient{ID: id, Key: env.KeyOf(id).Public()}
			}
			field := document.Field("v", "confidential")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := xmlenc.Encrypt(field, "e", recips...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTFCThroughput measures the TFC server's per-document processing
// (verify + unwrap + policy-encrypt + stamp + sign + route) — the Section
// 4.1 "TFC is not the bottleneck" claim.
func BenchmarkTFCThroughput(b *testing.B) {
	env := testenv.Fig9(benchBits)
	def := wfdef.Fig9B()
	server := tfc.New(env.KeyOf("tfc@cloud"), env.Registry, time.Now)
	// Pre-build b.N intermediate documents outside the timed region.
	docs := make([]*document.Document, b.N)
	for i := range docs {
		agent := aea.New(env.KeyOf(wfdef.Fig9Participants["A"]), env.Registry)
		doc, err := document.New(def, env.KeyOf("designer@acme"), testenv.ProcessID(), time.Now())
		if err != nil {
			b.Fatal(err)
		}
		docs[i], err = agent.ExecuteToTFC(doc, "A", aea.Inputs{"request": "r"})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := server.Process(docs[i]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAEAOpen measures the receive-side α phase alone on a mid-run
// Figure 9A document.
func BenchmarkAEAOpen(b *testing.B) {
	env := testenv.Fig9(benchBits)
	def := wfdef.Fig9A()
	doc, err := document.New(def, env.KeyOf("designer@acme"), testenv.ProcessID(), time.Now())
	if err != nil {
		b.Fatal(err)
	}
	aAgent := aea.New(env.KeyOf(wfdef.Fig9Participants["A"]), env.Registry)
	out, err := aAgent.Execute(doc, "A", aea.Inputs{"request": "r"}, time.Now())
	if err != nil {
		b.Fatal(err)
	}
	received := out.Doc
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh agent per op: Open marks no replay state, but agents are
		// cheap and this keeps iterations independent.
		agent := aea.New(env.KeyOf(wfdef.Fig9Participants["B1"]), env.Registry)
		if _, err := agent.Open(received, "B1"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineVsDRA compares one plaintext engine-based instance against
// one full-crypto DRA4WfMS instance (single accepting pass of Figure 9A).
func BenchmarkEngineVsDRA(b *testing.B) {
	b.Run("engine-baseline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bench.RunEngineVsDRA(benchBits, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPoolPutGetScan measures document-pool primitives: puts, gets,
// full and prefix scans over 10k rows, and a parallel mix of the three.
func BenchmarkPoolPutGetScan(b *testing.B) {
	b.Run("put4k", func(b *testing.B) {
		tbl := newBenchTable(b)
		val := make([]byte, 4096)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := tbl.Put(fmt.Sprintf("proc-%09d", i), "doc", "content", val); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("get4k", func(b *testing.B) {
		tbl := newBenchTable(b)
		val := make([]byte, 4096)
		const rows = 10000
		for i := 0; i < rows; i++ {
			tbl.Put(fmt.Sprintf("proc-%09d", i), "doc", "content", val)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := tbl.Get(fmt.Sprintf("proc-%09d", i%rows), "doc", "content"); !ok {
				b.Fatal("row lost")
			}
		}
	})
	b.Run("scan10k", func(b *testing.B) {
		tbl := newBenchTable(b)
		for i := 0; i < 10000; i++ {
			tbl.Put(fmt.Sprintf("proc-%09d", i), "meta", "state", []byte("running"))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if got := len(tbl.Scan(pool.ScanOptions{Family: "meta"})); got != 10000 {
				b.Fatalf("scan = %d", got)
			}
		}
	})
	b.Run("prefixscan100", func(b *testing.B) {
		tbl := newBenchTable(b)
		for i := 0; i < 10000; i++ {
			tbl.Put(fmt.Sprintf("proc-%09d", i), "meta", "state", []byte("running"))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if got := len(tbl.Scan(pool.ScanOptions{Prefix: fmt.Sprintf("proc-%07d", i%100)})); got != 100 {
				b.Fatalf("prefix scan = %d", got)
			}
		}
	})
	// mix: 5 % prefix scans, 35 % two-cell Mutates (half of them creating
	// rows), 60 % Gets, from GOMAXPROCS goroutines.
	b.Run("parallelmix", func(b *testing.B) {
		tbl := newBenchTable(b)
		val := make([]byte, 4096)
		const rows = 10000
		for i := 0; i < rows; i++ {
			tbl.Put(fmt.Sprintf("proc-%09d", i), "doc", "content", val)
		}
		var seed atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			r := rand.New(rand.NewSource(seed.Add(1)))
			for pb.Next() {
				switch op := r.Intn(100); {
				case op < 5:
					tbl.Scan(pool.ScanOptions{Prefix: fmt.Sprintf("proc-%07d", r.Intn(rows/100))})
				case op < 40:
					if err := tbl.Mutate(context.Background(), fmt.Sprintf("proc-%09d", r.Intn(2*rows)), []pool.CellMutation{
						{Family: "doc", Qualifier: "content", Value: val},
						{Family: "meta", Qualifier: "state", Value: []byte("running")},
					}); err != nil {
						b.Fatal(err)
					}
				default:
					tbl.Get(fmt.Sprintf("proc-%09d", r.Intn(rows)), "doc", "content")
				}
			}
		})
	})
}

func newBenchTable(b *testing.B) *pool.Table {
	b.Helper()
	tbl, err := pool.NewTable("bench", pool.FamilySpec{Name: "doc"}, pool.FamilySpec{Name: "meta"})
	if err != nil {
		b.Fatal(err)
	}
	return tbl
}

// BenchmarkPortalLifecycle measures one full cloud-tier instance per op:
// StoreInitial, then five retrieve→execute→store cycles through the
// portal (the user-visible end-to-end cost of Figure 7's deployment).
func BenchmarkPortalLifecycle(b *testing.B) {
	env := testenv.Fig9(benchBits)
	table, err := pool.NewTable(portal.TableName, portal.Families...)
	if err != nil {
		b.Fatal(err)
	}
	p := portal.New("bench-portal", env.Registry, table, time.Now)
	def := wfdef.Fig9A()
	steps := []struct {
		act    string
		inputs aea.Inputs
	}{
		{"A", aea.Inputs{"request": "r"}},
		{"B1", aea.Inputs{"techReview": "ok"}},
		{"B2", aea.Inputs{"budgetReview": "ok"}},
		{"C", aea.Inputs{"summary": "s"}},
		{"D", aea.Inputs{"accept": "true"}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc, err := document.New(def, env.KeyOf("designer@acme"), testenv.ProcessID(), time.Now())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.StoreInitial(doc); err != nil {
			b.Fatal(err)
		}
		for _, s := range steps {
			participant := wfdef.Fig9Participants[s.act]
			cur, err := p.Retrieve(participant, doc.ProcessID())
			if err != nil {
				b.Fatal(err)
			}
			agent := aea.New(env.KeyOf(participant), env.Registry)
			out, err := agent.Execute(cur, s.act, s.inputs, time.Now())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := p.Store(out.Doc); err != nil {
				b.Fatal(err)
			}
		}
	}
}
