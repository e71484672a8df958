// Package relay is the durable delivery subsystem behind the daemons'
// asynchronous hops: the portal's webhook notifications and the
// clustered pool's replication intents. The paper's engine-less
// architecture (Sections 2.1–2.2, Fig. 7) makes the routed document the
// only carrier of process state, so those side channels must not be lost
// silently either. The relay closes that gap with three cooperating
// pieces:
//
//   - an append-only outbox WAL (outbox.go): every delivery is persisted
//     before the first attempt and replayed after a crash;
//   - a bounded worker pool (this file) draining the outbox with
//     exponential backoff + full jitter, per-destination circuit breakers
//     (breaker.go), and a dead-letter queue for deliveries that exhaust
//     their attempt budget;
//   - idempotency keys (IdempotencyKey), which the outbox refuses to
//     enqueue twice and which travel with every attempt, so a receiver
//     can drop a redelivery whose acknowledgement was lost.
package relay

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dra4wfms/internal/trace"
)

// ErrClosed is returned by Enqueue after Close.
var ErrClosed = errors.New("relay: closed")

// Transport performs one delivery attempt. Implementations must be safe
// for concurrent use; the relay calls Deliver from several workers.
type Transport interface {
	Deliver(ctx context.Context, e Entry) error
}

// TransportFunc adapts a function to the Transport interface.
type TransportFunc func(ctx context.Context, e Entry) error

// Deliver calls f.
func (f TransportFunc) Deliver(ctx context.Context, e Entry) error { return f(ctx, e) }

// permanentError marks a delivery failure as non-retryable.
type permanentError struct{ err error }

func (p *permanentError) Error() string { return p.err.Error() }
func (p *permanentError) Unwrap() error { return p.err }

// Permanent wraps err so the relay dead-letters the delivery immediately
// instead of retrying — for failures retrying cannot fix (a 4xx from the
// peer, a signature the receiver rejects).
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// IsPermanent reports whether err was wrapped by Permanent.
func IsPermanent(err error) bool {
	var p *permanentError
	return errors.As(err, &p)
}

// Config tunes a Relay. The zero value is usable: 4 workers, 8 attempts,
// 30s per attempt, default backoff and breaker policies, seeded jitter.
type Config struct {
	// Workers bounds concurrent delivery attempts (default 4).
	Workers int
	// MaxAttempts is the retry budget before dead-lettering (default 8).
	MaxAttempts int
	// AttemptTimeout bounds one Deliver call (default 30s).
	AttemptTimeout time.Duration
	// Backoff shapes the retry delay curve.
	Backoff BackoffPolicy
	// Breaker shapes per-destination circuit breaking.
	Breaker BreakerPolicy
	// Budget bounds per-destination retry amplification (budget.go).
	Budget BudgetPolicy
	// Rand supplies jitter draws in [0,1); nil seeds a private PRNG.
	// Tests pass a deterministic source.
	Rand func() float64
	// Clock overrides time.Now for breaker and scheduling decisions.
	Clock func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 8
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = 30 * time.Second
	}
	return c
}

// item is one scheduled delivery; the dispatcher orders them by readiness.
type item struct {
	e       Entry
	readyAt time.Time
}

type itemHeap []item

func (h itemHeap) Len() int { return len(h) }
func (h itemHeap) Less(i, j int) bool {
	if !h[i].readyAt.Equal(h[j].readyAt) {
		return h[i].readyAt.Before(h[j].readyAt)
	}
	return h[i].e.Seq < h[j].e.Seq
}
func (h itemHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *itemHeap) Push(x any)   { *h = append(*h, x.(item)) }
func (h *itemHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Stats is a point-in-time view of one relay's lifetime counters and
// current queue sizes.
type Stats struct {
	// Delivered counts acknowledged deliveries.
	Delivered int64
	// DeadLettered counts deliveries moved to the DLQ.
	DeadLettered int64
	// Retries counts attempts past the first per delivery.
	Retries int64
	// Attempts counts all delivery attempts.
	Attempts int64
	// Deduped counts enqueues refused as duplicates of a live or
	// recently acknowledged idempotency key.
	Deduped int64
	// BudgetDenied counts retries deferred by an exhausted retry budget.
	BudgetDenied int64
	// Pending and Dead are the current outbox queue sizes.
	Pending, Dead int
}

// Relay drains an outbox through a transport with a bounded worker pool.
// Create with New; a Relay owns its outbox and closes it on Close.
type Relay struct {
	cfg Config
	ob  *Outbox
	tr  Transport
	br  *breakerSet
	bud *budgetSet

	rngMu sync.Mutex
	rng   func() float64

	mu       sync.Mutex
	drained  *sync.Cond // broadcast when queue+inflight may have hit zero
	q        itemHeap
	inflight int
	stopped  bool

	wake   chan struct{}
	stopCh chan struct{}
	workCh chan Entry
	wg     sync.WaitGroup

	delivered, deadLettered, retries, attempts, deduped, budgetDenied atomic.Int64
}

// New starts a relay draining ob through tr. Deliveries already pending
// in the outbox (crash recovery) are scheduled immediately.
func New(ob *Outbox, tr Transport, cfg Config) *Relay {
	cfg = cfg.withDefaults()
	r := &Relay{
		cfg:    cfg,
		ob:     ob,
		tr:     tr,
		bud:    newBudgetSet(cfg.Budget),
		wake:   make(chan struct{}, 1),
		stopCh: make(chan struct{}),
		workCh: make(chan Entry),
	}
	r.drained = sync.NewCond(&r.mu)
	if cfg.Rand != nil {
		r.rng = cfg.Rand
	} else {
		r.rng = rand.New(rand.NewSource(time.Now().UnixNano())).Float64
	}
	// The breaker set shares the relay's jitter source, so r.rng must be
	// wired before it is built.
	r.br = newBreakerSet(cfg.Breaker, r.jitter)
	now := r.now()
	for _, e := range ob.Pending() {
		heap.Push(&r.q, item{e: e, readyAt: now})
	}
	p, d := ob.Counts()
	mQueueDepth.Add(float64(p))
	mDLQSize.Add(float64(d))
	r.wg.Add(1 + cfg.Workers)
	go r.dispatch()
	for i := 0; i < cfg.Workers; i++ {
		go r.worker()
	}
	return r
}

func (r *Relay) now() time.Time {
	if r.cfg.Clock != nil {
		return r.cfg.Clock()
	}
	return time.Now()
}

// jitter draws from the configured randomness source.
func (r *Relay) jitter() float64 {
	r.rngMu.Lock()
	defer r.rngMu.Unlock()
	return r.rng()
}

// poke nudges the dispatcher without blocking.
func (r *Relay) poke() {
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// Enqueue accepts a delivery: persisted to the outbox first, then
// scheduled. A non-empty key already pending, dead-lettered, or recently
// acknowledged makes the enqueue a duplicate — nothing is written and
// dup is true.
func (r *Relay) Enqueue(dest, kind, key string, payload []byte) (Entry, bool, error) {
	return r.EnqueueTraced(dest, kind, key, "", payload)
}

// EnqueueTraced is Enqueue with the enqueuing hop's traceparent attached.
// The trace string is persisted in the outbox WAL alongside the payload,
// so every delivery attempt — including retries after a crash — is
// recorded as a span of the originating trace.
func (r *Relay) EnqueueTraced(dest, kind, key, trace string, payload []byte) (Entry, bool, error) {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return Entry{}, false, ErrClosed
	}
	r.mu.Unlock()
	e, dup, err := r.ob.Append(dest, kind, key, trace, payload)
	if err != nil {
		return Entry{}, false, err
	}
	if dup {
		r.deduped.Add(1)
		mDedup.Inc()
		return e, true, nil
	}
	mQueueDepth.Add(1)
	r.mu.Lock()
	heap.Push(&r.q, item{e: e, readyAt: r.now()})
	r.mu.Unlock()
	r.poke()
	return e, false, nil
}

// dispatch is the single scheduler goroutine: it sleeps until the
// earliest-ready item is due and hands it to a worker.
func (r *Relay) dispatch() {
	defer r.wg.Done()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		r.mu.Lock()
		if r.stopped {
			r.mu.Unlock()
			break
		}
		if len(r.q) == 0 {
			r.mu.Unlock()
			select {
			case <-r.wake:
			case <-r.stopCh:
			}
			continue
		}
		if d := r.q[0].readyAt.Sub(r.now()); d > 0 {
			r.mu.Unlock()
			timer.Reset(d)
			select {
			case <-r.wake:
			case <-timer.C:
			case <-r.stopCh:
			}
			continue
		}
		it := heap.Pop(&r.q).(item)
		r.inflight++
		r.mu.Unlock()
		select {
		case r.workCh <- it.e:
		case <-r.stopCh:
			r.mu.Lock()
			heap.Push(&r.q, it)
			r.inflight--
			r.mu.Unlock()
		}
	}
	close(r.workCh)
}

func (r *Relay) worker() {
	defer r.wg.Done()
	for e := range r.workCh {
		r.process(e)
	}
}

// attempt runs one timed delivery attempt. When the entry carries a
// traceparent the attempt is recorded as a span of that trace, so an
// async hop — even one replayed from the WAL after a crash — shows up
// under the request that caused it.
func (r *Relay) attempt(e Entry) error {
	ctx := context.Background()
	if sc, ok := trace.ParseTraceparent(e.Trace); ok {
		ctx = trace.ContextWith(ctx, sc)
	}
	ctx, span := tel.StartSpan(ctx, "relay_delivery_seconds")
	defer span.End()
	span.SetAttr("kind", e.Kind)
	span.SetAttr("dest", e.Dest)
	span.SetAttr("attempt", strconv.Itoa(e.Attempts+1))
	ctx, cancel := context.WithTimeout(ctx, r.cfg.AttemptTimeout)
	defer cancel()
	err := r.tr.Deliver(ctx, e)
	if err != nil {
		span.SetStatus("error")
	}
	return err
}

// process drives one popped entry to ack, retry, or the DLQ.
func (r *Relay) process(e Entry) {
	if ok, retryAt := r.br.allow(e.Dest, r.now()); !ok {
		// Parked by an open breaker: no attempt consumed.
		r.reschedule(e, retryAt)
		return
	}
	r.attempts.Add(1)
	mAttempts.Inc()
	err := r.attempt(e)
	if err == nil {
		r.br.success(e.Dest)
		r.bud.success(e.Dest)
		// An ack that fails to journal leaves the entry pending in the
		// WAL; the redelivery after restart carries the same key, for
		// the receiver to drop.
		if aerr := r.ob.Ack(e.Seq); aerr == nil {
			mQueueDepth.Add(-1)
		}
		r.delivered.Add(1)
		mDelivered.Inc()
		r.finish()
		return
	}
	r.br.failure(e.Dest, r.now())
	attempts, ferr := r.ob.Fail(e.Seq)
	if ferr != nil {
		attempts = e.Attempts + 1
	}
	e.Attempts = attempts
	if IsPermanent(err) || attempts >= r.cfg.MaxAttempts {
		reason := fmt.Sprintf("after %d attempts: %v", attempts, err)
		if derr := r.ob.DeadLetter(e.Seq, reason); derr == nil {
			mQueueDepth.Add(-1)
			mDLQSize.Add(1)
		}
		r.deadLettered.Add(1)
		mDeadletters.Inc()
		r.finish()
		return
	}
	if ok, retryAt := r.bud.allowRetry(e.Dest, r.now()); !ok {
		// Retry budget exhausted: park until the next trickle probe.
		// Like a breaker park, no retry is counted — the delivery is
		// deferred, not attempted.
		r.budgetDenied.Add(1)
		mBudgetDenied.Inc()
		r.reschedule(e, retryAt)
		return
	}
	r.retries.Add(1)
	mRetries.Inc()
	r.reschedule(e, r.now().Add(r.cfg.Backoff.Delay(attempts, r.jitter)))
}

// reschedule returns an in-flight entry to the queue for a later attempt.
func (r *Relay) reschedule(e Entry, at time.Time) {
	r.mu.Lock()
	r.inflight--
	heap.Push(&r.q, item{e: e, readyAt: at})
	r.mu.Unlock()
	r.poke()
}

// finish retires an in-flight entry (acked or dead-lettered).
func (r *Relay) finish() {
	r.mu.Lock()
	r.inflight--
	r.drained.Broadcast()
	r.mu.Unlock()
}

// Flush blocks until every accepted delivery has been acknowledged or
// dead-lettered (or the relay is closed). With a down destination this
// waits out the full retry budget — bound it with test-sized policies.
func (r *Relay) Flush() {
	r.mu.Lock()
	for !r.stopped && (len(r.q) > 0 || r.inflight > 0) {
		r.drained.Wait()
	}
	r.mu.Unlock()
}

// DeadLetters returns the DLQ in sequence order.
func (r *Relay) DeadLetters() []Entry { return r.ob.DeadLetters() }

// Requeue moves a dead-lettered delivery back into the queue with a
// fresh attempt budget.
func (r *Relay) Requeue(seq uint64) error {
	if err := r.ob.Requeue(seq); err != nil {
		return err
	}
	mDLQSize.Add(-1)
	mQueueDepth.Add(1)
	for _, e := range r.ob.Pending() {
		if e.Seq == seq {
			r.mu.Lock()
			heap.Push(&r.q, item{e: e, readyAt: r.now()})
			r.mu.Unlock()
			r.poke()
			break
		}
	}
	return nil
}

// RequeueAll requeues every dead letter and returns how many.
func (r *Relay) RequeueAll() int {
	n := 0
	for _, e := range r.ob.DeadLetters() {
		if r.Requeue(e.Seq) == nil {
			n++
		}
	}
	return n
}

// Drop discards a dead-lettered delivery permanently.
func (r *Relay) Drop(seq uint64) error {
	if err := r.ob.Drop(seq); err != nil {
		return err
	}
	mDLQSize.Add(-1)
	return nil
}

// BreakerState returns dest's circuit state (BreakerClosed/HalfOpen/Open).
func (r *Relay) BreakerState(dest string) float64 { return r.br.stateOf(dest) }

// Stats snapshots the relay's counters and queue sizes.
func (r *Relay) Stats() Stats {
	p, d := r.ob.Counts()
	return Stats{
		Delivered:    r.delivered.Load(),
		DeadLettered: r.deadLettered.Load(),
		Retries:      r.retries.Load(),
		Attempts:     r.attempts.Load(),
		Deduped:      r.deduped.Load(),
		BudgetDenied: r.budgetDenied.Load(),
		Pending:      p,
		Dead:         d,
	}
}

// Close stops accepting work, waits for in-flight attempts to settle,
// and closes the outbox. Deliveries still pending remain in the WAL and
// are rescheduled when the outbox is next opened.
func (r *Relay) Close() error {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return nil
	}
	r.stopped = true
	r.drained.Broadcast()
	r.mu.Unlock()
	close(r.stopCh)
	r.wg.Wait()
	return r.ob.Close()
}
