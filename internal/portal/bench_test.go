package portal

import (
	"context"
	"fmt"
	"testing"

	"dra4wfms/internal/aea"
	"dra4wfms/internal/document"
	"dra4wfms/internal/telemetry"
	"dra4wfms/internal/wfdef"
)

// BenchmarkStoreDeepCascade runs one whole 7-reject Figure 9A instance
// per op, 40 hops, through a portal over a pool.Table. Each hop is what
// the daemons do with it: the participant retrieves the stored bytes,
// parses them, executes and serializes; the portal parses what it
// receives and stores it. B1 and B2 both execute on the post-A document,
// so B2's store merges. Sub-benchmark delta ships what the hop adds, as
// the client stores (StoreDeltaCtx: the portal verifies only the new CER
// against the tree it kept of its row); full ships the whole document
// (StoreCtx: diffed against the row). Keys are 2048-bit, as the
// daemons' are. Each reports the time and the canonical-memo misses per
// hop.
func BenchmarkStoreDeepCascade(b *testing.B) {
	for _, path := range storePaths {
		b.Run(path, func(b *testing.B) { benchStoreDeepCascade(b, path) })
	}
}

func benchStoreDeepCascade(b *testing.B, path string) {
	c := newCloudBits(b, 2048)
	ctx := context.Background()
	misses := telemetry.Default().Counter("xmltree_canon_memo_misses_total")
	retrieve := func(pid, activity string) []byte {
		raw, err := c.portal.RetrieveRawCtx(ctx, wfdef.Fig9Participants[activity], pid)
		if err != nil {
			b.Fatal(err)
		}
		return raw
	}
	hops := 0
	hop := func(raw []byte, activity string, inputs aea.Inputs) {
		doc, err := document.Parse(raw)
		if err != nil {
			b.Fatal(err)
		}
		doc.MarkRetrieved()
		out, err := c.agents[activity].ExecuteCtx(ctx, doc, activity, inputs, now)
		if err != nil {
			b.Fatal(err)
		}
		if path == "full" {
			sent, err := document.Parse(out.Doc.Bytes())
			if err == nil {
				_, err = c.portal.StoreCtx(ctx, sent)
			}
			if err != nil {
				b.Fatal(err)
			}
		} else {
			d, _ := out.Doc.Delta()
			sent, err := document.ParseDelta(d.Bytes())
			if err == nil {
				_, err = c.portal.StoreDeltaCtx(ctx, out.Doc.ProcessID(), sent)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		hops++
	}
	b.ReportAllocs()
	before := misses.Value()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc := c.initial(b)
		pid := doc.ProcessID()
		if _, err := c.portal.StoreInitialCtx(ctx, doc); err != nil {
			b.Fatal(err)
		}
		for iter := 0; iter <= 7; iter++ {
			hop(retrieve(pid, "A"), "A", aea.Inputs{"request": "buy 10 servers", "attachment": "specs.pdf"})
			postA := retrieve(pid, "B1")
			hop(postA, "B1", aea.Inputs{"techReview": "sound"})
			hop(postA, "B2", aea.Inputs{"budgetReview": "within budget"})
			hop(retrieve(pid, "C"), "C", aea.Inputs{"summary": "all reviews positive"})
			hop(retrieve(pid, "D"), "D", aea.Inputs{"accept": fmt.Sprint(iter == 7)})
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(hops), "ms/hop")
	b.ReportMetric(float64(misses.Value()-before)/float64(hops), "memo_misses/hop")
}
