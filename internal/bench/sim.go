package bench

import (
	"container/heap"
	"fmt"
	"sort"
	"strings"
	"time"
)

// A discrete-event simulator for the scalability and DoS comparisons:
// single-server FIFO stations in virtual time, so the paper's Section 1
// arguments run in microseconds of wall-clock time with deterministic
// results. Service times come from the real crypto code (RunTFCThroughput).

// event is one scheduled callback.
type event struct {
	at  time.Duration
	seq int64 // tie-break: FIFO among simultaneous events
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// simulation is a discrete-event clock and event queue. All model code runs
// inside event callbacks on one goroutine, as is conventional for DES.
type simulation struct {
	now    time.Duration
	seq    int64
	events eventHeap
}

// schedule runs fn after delay of virtual time (negative delays clamp to
// "now"). Events scheduled for the same instant run in scheduling order.
func (s *simulation) schedule(delay time.Duration, fn func()) {
	if delay < 0 {
		delay = 0
	}
	s.seq++
	heap.Push(&s.events, &event{at: s.now + delay, seq: s.seq, fn: fn})
}

// run processes events until the queue drains and returns the final time.
func (s *simulation) run() time.Duration {
	for s.events.Len() > 0 {
		e := heap.Pop(&s.events).(*event)
		s.now = e.at
		e.fn()
	}
	return s.now
}

// station is a single-server FIFO processing queue (one CPU of a workflow
// engine, TFC server, portal, or participant machine). Jobs submitted
// while the server is busy wait in order.
type station struct {
	sim       *simulation
	busyUntil time.Duration
	completed int
	totalWait time.Duration
}

func newStation(s *simulation) *station { return &station{sim: s} }

// submit enqueues a job requiring the given service time; done (optional)
// runs at completion with the finish instant.
func (st *station) submit(service time.Duration, done func(finish time.Duration)) {
	if service < 0 {
		service = 0
	}
	now := st.sim.now
	start := max(now, st.busyUntil)
	finish := start + service
	st.busyUntil = finish
	st.totalWait += start - now
	st.completed++
	if done != nil {
		st.sim.schedule(finish-now, func() { done(finish) })
	}
}

// meanWait returns the average queueing delay across accepted jobs.
func (st *station) meanWait() time.Duration {
	if st.completed == 0 {
		return 0
	}
	return st.totalWait / time.Duration(st.completed)
}

// percentile returns the p-th percentile (0..100) of the samples without
// reordering them.
func percentile(samples []time.Duration, p float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	return sorted[int(p/100*float64(len(sorted)-1))]
}

// mean returns the arithmetic mean of the samples.
func mean(samples []time.Duration) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range samples {
		sum += s
	}
	return sum / time.Duration(len(samples))
}

// FormatScalability renders scalability rows, one load point per line.
func FormatScalability(rows []ScalabilityRow) string {
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s load=%5d  mean=%12v  p99=%12v  makespan=%12v\n",
			r.Label, r.Instances, r.MeanLatency.Round(time.Microsecond),
			r.P99Latency.Round(time.Microsecond), r.Makespan.Round(time.Microsecond))
	}
	return b.String()
}
