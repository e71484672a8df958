package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"dra4wfms/internal/audit"
)

// roundOptions selects what one round measures.
type roundOptions struct {
	Seed   int64
	Round  int
	Window time.Duration
	// Tracing records client-boundary spans, keeps every hop's documents,
	// and reads the daemons' /v1/metrics before and after the window.
	Tracing bool
	// SingleClient runs the workload's instance model as a closed loop of
	// one client with no polling: the service-time reference the layer
	// ledger's remainder is taken against.
	SingleClient bool
}

// roundResult is what one round observed on one freshly booted fleet.
type roundResult struct {
	Rec      *recorder
	SetupS   float64
	WindowS  float64
	Argv     [][]string
	Counters map[string]float64 // daemon counter deltas over the window
	Checked  int                // instances whose stored state was verified
	Err      error              // harness trouble (daemon died, teardown failed)
}

// runRound boots the workload's fleet, preloads and warms it, offers the
// plan's load for the window, checks every stored outcome, and tears the
// fleet down. Set-up time runs from the first spawn to the end of warm-up.
func runRound(ctx context.Context, s *site, t *trust, w workloadDef, o roundOptions) *roundResult {
	res := &roundResult{Rec: newRecorder(o.Tracing)}
	if o.SingleClient {
		w.Loop, w.Clients, w.Rate, w.StatsEvery = closedLoop, 1, 0, 0
		w.Preload = 0
	}
	pl := makePlan(w, o.Seed, o.Round, o.Window)
	httpc := newHTTPClient()
	defer httpc.CloseIdleConnections()

	setupStart := time.Now()
	f, err := bootFleet(ctx, s, t, w.Fleet, httpc)
	if err != nil {
		res.Err = err
		return res
	}
	defer func() {
		if err := f.stop(); err != nil {
			res.Err = errors.Join(res.Err, err)
		}
	}()
	res.Argv = f.argvs()
	d := newDriver(w, t, f, httpc, res.Rec)
	preloaded := d.prepare(ctx, w, pl)
	res.SetupS = time.Since(setupStart).Seconds()
	if res.Rec.failed > 0 {
		return res // a fleet that failed its own preload measures nothing
	}

	var before map[string]float64
	if o.Tracing {
		before = f.scrape(httpc)
	}
	windowStart := time.Now()
	touched := d.runWindow(ctx, w, pl, preloaded, o.Window)
	res.WindowS = time.Since(windowStart).Seconds()
	if o.Tracing {
		res.Counters = map[string]float64{}
		for k, v := range f.scrape(httpc) {
			res.Counters[k] = v - before[k]
		}
	}
	res.Checked = d.check(ctx, touched, rand.New(rand.NewSource(o.Seed+int64(o.Round))))
	return res
}

// auditShare is the share of completed instances put through the offline
// auditor as well.
const auditShare = 0.10

// check re-reads what the portal acknowledged. Every instance touched must
// hold exactly the CERs whose stores were acked; every completed one must
// also verify with the expected signature count, report state "completed"
// with the expected steps, and (a seeded tenth of them) pass audit.Audit.
// Each miss is one failed operation.
func (d *driver) check(ctx context.Context, touched []*instance, rng *rand.Rand) int {
	checked := 0
	for _, in := range touched {
		if in.started.IsZero() {
			continue
		}
		checked++
		d.rec.attempt()
		if err := d.checkInstance(ctx, in, rng.Float64() < auditShare); err != nil {
			_ = d.rec.fail(in.spec.PID, "output check", err)
		}
	}
	return checked
}

func (d *driver) checkInstance(ctx context.Context, in *instance, withAudit bool) error {
	doc, err := d.designer.RetrieveCtx(ctx, in.spec.PID)
	if err != nil {
		return err
	}
	if got := len(doc.FinalCERs()); got != in.acked {
		return fmt.Errorf("stored document holds %d final CERs, %d stores were acknowledged", got, in.acked)
	}
	if !in.completed {
		return nil
	}
	want := d.expectedSignatures(in.spec.hopsTotal())
	if n, err := doc.VerifyAll(d.trust.Registry); err != nil {
		return fmt.Errorf("VerifyAll: %w", err)
	} else if n != want {
		return fmt.Errorf("VerifyAll counted %d signatures, want %d", n, want)
	}
	if doc.Size() != in.finalSize {
		return fmt.Errorf("stored document is %d bytes, the acknowledged one was %d", doc.Size(), in.finalSize)
	}
	st, err := d.designer.Status(in.spec.PID)
	if err != nil {
		return err
	}
	if st.State != "completed" || len(st.Steps) != in.spec.hopsTotal() {
		return fmt.Errorf("status %q with %d steps, want completed with %d", st.State, len(st.Steps), in.spec.hopsTotal())
	}
	if withAudit {
		rep, err := audit.Audit(doc, d.trust.Registry)
		if err != nil {
			return fmt.Errorf("audit: %w", err)
		}
		if !rep.Verified || !rep.Completed || len(rep.Steps) != in.spec.hopsTotal() {
			return fmt.Errorf("audit: verified=%v completed=%v steps=%d findings=%v", rep.Verified, rep.Completed, len(rep.Steps), rep.Findings)
		}
	}
	return nil
}

// expectedSignatures is the designer's signature plus one per CER: one CER
// per hop in the basic model, an intermediate and a final one with a TFC.
func (d *driver) expectedSignatures(hops int) int {
	if d.def.Policy.TFC != "" {
		return 1 + 2*hops
	}
	return 1 + hops
}

// scrape sums the daemons' Prometheus counters by metric name.
func (f *fleet) scrape(httpc *http.Client) map[string]float64 {
	sum := map[string]float64{}
	for _, p := range f.procs {
		for name, v := range scrapeOne(httpc, p.URL) {
			sum[name] += v
		}
	}
	return sum
}
