package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"dra4wfms/internal/aea"
	"dra4wfms/internal/document"
	"dra4wfms/internal/httpapi"
	"dra4wfms/internal/pki"
	"dra4wfms/internal/portal"
	"dra4wfms/internal/wfdef"
	"dra4wfms/internal/xmlenc"
)

// newHTTPClient is the one connection pool all load shares: this box has
// two cores, so two client goroutines and at most two connections per host.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     2,
		MaxIdleConnsPerHost: 2,
		IdleConnTimeout:     30 * time.Second,
	}}
}

// participant is one principal as the load generator plays it: its signed
// HTTP clients and its activity execution agent.
type participant struct {
	portal *httpapi.Client
	tfc    *httpapi.Client // nil in the basic model
	agent  *aea.AEA
}

// driver plays the designer and every participant of the Figure 9
// workflows against one fleet. It is dractl remote's loop, recording
// instead of printing.
type driver struct {
	def      *wfdef.Definition
	trust    *trust
	designer *httpapi.Client
	parts    map[string]*participant // by activity
	rec      *recorder
}

func newDriver(w workloadDef, t *trust, f *fleet, httpc *http.Client, rec *recorder) *driver {
	d := &driver{def: wfdef.Fig9A(), trust: t, parts: map[string]*participant{}, rec: rec}
	if w.Model == "fig9b" {
		d.def = wfdef.Fig9B()
	}
	client := func(url string, keys *pki.KeyPair) *httpapi.Client {
		c := httpapi.NewClient(url, keys)
		c.HTTP = httpc
		return c
	}
	d.designer = client(f.PortalURL, t.Keys[d.def.Designer])
	for _, act := range fig9Order {
		keys := t.Keys[participantOf(act)]
		p := &participant{portal: client(f.PortalURL, keys), agent: aea.New(keys, t.Registry)}
		if d.def.Policy.TFC != "" {
			p.tfc = client(f.TFCURL, keys)
		}
		d.parts[act] = p
	}
	return d
}

// instance is the driver's view of one process instance in flight.
type instance struct {
	spec instanceSpec
	// turn holds one token: a hop takes it for its whole length, network
	// calls included, so two hops of one instance never overlap.
	turn chan struct{}
	next int // index of the next hop
	// acked counts stores the portal answered 2xx: the number of final
	// CERs the stored document must hold from then on.
	acked     int
	started   time.Time
	completed bool
	finalSize int
}

func newInstance(s instanceSpec) *instance {
	in := &instance{spec: s, turn: make(chan struct{}, 1)}
	in.turn <- struct{}{}
	return in
}

// start has the designer create and store the initial document.
func (d *driver) start(ctx context.Context, in *instance) error {
	d.rec.attempt()
	now := time.Now()
	var doc *document.Document
	var err error
	designer := d.trust.Keys[d.def.Designer]
	if d.def.Policy.ConcealFlow {
		tfcPub, kerr := d.trust.Registry.PublicKey(d.def.Policy.TFC)
		if kerr != nil {
			return d.rec.fail(in.spec.PID, "start", kerr)
		}
		doc, err = document.NewConcealed(d.def, designer, in.spec.PID, now, xmlenc.Recipient{ID: d.def.Policy.TFC, Key: tfcPub})
	} else {
		doc, err = document.New(d.def, designer, in.spec.PID, now)
	}
	if err != nil {
		return d.rec.fail(in.spec.PID, "start", err)
	}
	if _, err := d.designer.StoreInitialCtx(ctx, doc); err != nil {
		return d.rec.fail(in.spec.PID, "start", err)
	}
	in.started = now
	return nil
}

// hop runs the instance's next participant step: worklist, retrieve, AEA
// (and TFC in the advanced model), store. due is when the step could
// first have begun; the hop's latency runs from due to the store's 2xx.
func (d *driver) hop(ctx context.Context, in *instance, due time.Time) error {
	<-in.turn
	defer func() { in.turn <- struct{}{} }()
	d.rec.attempt()
	k := in.next
	act, iter := in.spec.step(k)
	p := d.parts[act]
	pid := in.spec.PID
	hopSpan := d.rec.begin(pid, "hop", 0, due)
	fail := func(stage string, err error) error {
		d.rec.end(hopSpan, time.Now())
		return d.rec.fail(pid, fmt.Sprintf("hop %d (%s#%d) %s", k, act, iter, stage), err)
	}

	t0 := time.Now()
	sp := d.rec.begin(pid, spanWorklist, hopSpan, t0)
	items, err := p.portal.Worklist()
	t1 := time.Now()
	d.rec.end(sp, t1)
	if err != nil {
		return fail("worklist", err)
	}
	d.rec.read(opWorklist, t0, t1)
	if !onWorklist(items, pid, act) {
		return fail("worklist", errors.New("the enabled activity is not on the participant's worklist"))
	}

	sp = d.rec.begin(pid, spanRetrieve, hopSpan, t1)
	cur, err := p.portal.RetrieveCtx(ctx, pid)
	t2 := time.Now()
	d.rec.end(sp, t2)
	if err != nil {
		return fail("retrieve", err)
	}
	d.rec.read(opRetrieve, t1, t2)

	var out, interm *document.Document
	sp = d.rec.begin(pid, spanExecute, hopSpan, t2)
	if p.tfc != nil {
		interm, err = p.agent.ExecuteToTFCCtx(ctx, cur, act, in.spec.inputs(act, iter))
	} else {
		var oc *aea.Outcome
		if oc, err = p.agent.ExecuteCtx(ctx, cur, act, in.spec.inputs(act, iter), time.Now()); err == nil {
			out = oc.Doc
		}
	}
	t3 := time.Now()
	d.rec.end(sp, t3)
	if err != nil {
		return fail("aea", err)
	}
	if p.tfc != nil {
		sp = d.rec.begin(pid, spanTFC, hopSpan, t3)
		_, out, err = p.tfc.ProcessViaTFCCtx(ctx, interm)
		t3 = time.Now()
		d.rec.end(sp, t3)
		if err != nil {
			return fail("tfc", err)
		}
	}

	sp = d.rec.begin(pid, spanStore, hopSpan, t3)
	_, err = p.portal.StoreCtx(ctx, out)
	t4 := time.Now()
	d.rec.end(sp, t4)
	if err != nil {
		return fail("store", err)
	}
	d.rec.end(hopSpan, t4)

	in.next++
	in.acked++
	d.rec.hopDone(due, t4, k)
	d.rec.capture(cur, interm, out)
	if in.next == in.spec.hopsTotal() {
		in.completed = true
		in.finalSize = out.Size()
		d.rec.instanceDone(in.started, t4, in.finalSize)
	}
	return nil
}

func onWorklist(items []portal.WorkItem, pid, act string) bool {
	for _, it := range items {
		if it.ProcessID == pid && it.Activity == act {
			return true
		}
	}
	return false
}

// poller is one client's dashboard habit: a Statistics call whenever the
// workload's interval has passed since its last one.
type poller struct {
	every time.Duration
	last  time.Time
}

func (d *driver) poll(p *poller) {
	if p.every <= 0 || time.Since(p.last) < p.every {
		return
	}
	p.last = time.Now()
	d.stats(p.last)
}

// stats calls Statistics, timed from due.
func (d *driver) stats(due time.Time) {
	d.rec.attempt()
	st, err := d.designer.Statistics()
	if err == nil && len(st.InstancesByState) == 0 {
		err = errors.New("statistics report no instances")
	}
	if err != nil {
		_ = d.rec.fail("-", "statistics", err)
		return
	}
	d.rec.stat(due, time.Now())
}

// runInstance starts an instance and runs its hops until it completes, the
// stop time passes, or limit hops have run (limit < 0: no limit). The first
// hop is due when the instance arrived; every later hop when its
// predecessor's store was acknowledged and the client was free again.
func (d *driver) runInstance(ctx context.Context, in *instance, arrived time.Time, stop time.Time, limit int, pl *poller) {
	if err := d.start(ctx, in); err != nil {
		return
	}
	due := arrived
	for n := 0; !in.completed && (limit < 0 || n < limit); n++ {
		if !stop.IsZero() && time.Now().After(stop) {
			return
		}
		if err := d.hop(ctx, in, due); err != nil {
			return
		}
		if pl != nil {
			d.poll(pl)
		}
		due = time.Now()
	}
}

// runWindow offers the plan's load for the length of the window with the
// workload's client goroutines and returns every instance it touched.
func (d *driver) runWindow(ctx context.Context, w workloadDef, pl plan, preloaded []*instance, window time.Duration) []*instance {
	instances := make([]*instance, len(pl.Instances))
	for i, s := range pl.Instances {
		instances[i] = newInstance(s)
	}
	start := time.Now()
	stop := start.Add(window)
	d.rec.open(start, stop)
	pollers := make([]*poller, w.Clients)
	for c := range pollers {
		pollers[c] = &poller{every: w.StatsEvery, last: start}
	}
	switch {
	case len(pl.Ops) > 0:
		dues := make([]time.Duration, len(pl.Ops))
		for i, o := range pl.Ops {
			dues[i] = o.Due
		}
		runSchedule(w.Clients, start, dues, func(_, i int, due, woke time.Time) {
			d.rec.late(woke, due)
			d.runOp(ctx, pl.Ops[i], due, preloaded)
		})
	case w.Loop == openLoop:
		runSchedule(w.Clients, start, pl.Arrivals, func(c, i int, due, woke time.Time) {
			d.rec.late(woke, due)
			d.runInstance(ctx, instances[i], due, stop, -1, pollers[c])
		})
	default:
		inOrder(w.Clients, len(instances), func(c, i int) bool {
			if !time.Now().Before(stop) {
				return false
			}
			d.runInstance(ctx, instances[i], time.Now(), stop, -1, pollers[c])
			return true
		})
	}
	d.rec.close()
	// Instances the window never reached were not started; check skips them.
	return append(instances, preloaded...)
}

// inOrder has `clients` goroutines take the jobs 0..n-1 in order, each
// running do for its job, until none are left or do returns false.
func inOrder(clients, n int, do func(client, i int) bool) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || !do(c, i) {
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

// runSchedule is the open-loop generator: `clients` goroutines take the
// operations in order, each sleeping until its operation is due (start +
// dues[i]) and then calling do with the due time and the time it actually
// woke. A client still busy with an earlier operation starts late; do times
// from due, so the wait a stall imposes on later operations is counted.
func runSchedule(clients int, start time.Time, dues []time.Duration, do func(client, i int, due, woke time.Time)) {
	inOrder(clients, len(dues), func(c, i int) bool {
		due := start.Add(dues[i])
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		do(c, i, due, time.Now())
		return true
	})
}

// runOp executes one scheduled operation of monitor-mixed.
func (d *driver) runOp(ctx context.Context, o op, due time.Time, preloaded []*instance) {
	if o.Kind == opHop {
		_ = d.hop(ctx, preloaded[o.Target], due)
		return
	}
	if o.Kind == opStats {
		d.stats(due)
		return
	}
	d.rec.attempt()
	var err error
	switch o.Kind {
	case opWorklist:
		_, err = d.parts[fig9Order[o.Target]].portal.Worklist()
	case opStatus:
		in := preloaded[o.Target]
		st, serr := d.designer.Status(in.spec.PID)
		if err = serr; err == nil && len(st.Steps) == 0 {
			err = errors.New("status shows no steps for a preloaded instance")
		}
	case opRetrieve:
		in := preloaded[o.Target]
		doc, rerr := d.designer.RetrieveCtx(ctx, in.spec.PID)
		if err = rerr; err == nil && doc.ProcessID() != in.spec.PID {
			err = fmt.Errorf("retrieved %q", doc.ProcessID())
		}
	case opProcesses:
		ids, perr := d.designer.Processes(processStates[o.Target])
		if err = perr; err == nil && processStates[o.Target] == "" && len(ids) < len(preloaded) {
			err = fmt.Errorf("%d process ids, preloaded %d", len(ids), len(preloaded))
		}
	}
	if err != nil {
		_ = d.rec.fail("-", string(o.Kind), err)
		return
	}
	d.rec.read(o.Kind, due, time.Now())
}

// prepare stores the preloaded instances and runs the warm-up instances
// with the workload's client count, outside any measured window.
func (d *driver) prepare(ctx context.Context, w workloadDef, pl plan) []*instance {
	preloaded := make([]*instance, len(pl.Preload))
	for i, s := range pl.Preload {
		preloaded[i] = newInstance(s)
	}
	jobs := append([]*instance(nil), preloaded...)
	for _, s := range pl.Warm {
		jobs = append(jobs, newInstance(s))
	}
	inOrder(w.Clients, len(jobs), func(_, i int) bool {
		d.runInstance(ctx, jobs[i], time.Now(), time.Time{}, jobs[i].spec.StopAfter, nil)
		return true
	})
	// One Statistics call so the first measured one does not pay for
	// lazily built state.
	d.stats(time.Now())
	return preloaded
}
