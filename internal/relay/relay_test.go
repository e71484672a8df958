package relay

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// testConfig returns a config with millisecond-scale retries so failure
// paths settle quickly in tests.
func testConfig() Config {
	return Config{
		Workers:        2,
		MaxAttempts:    3,
		AttemptTimeout: time.Second,
		Backoff:        BackoffPolicy{Base: time.Millisecond, Cap: 5 * time.Millisecond},
		Breaker:        BreakerPolicy{Threshold: -1},
		Rand:           func() float64 { return 0.5 },
	}
}

func TestBackoffDelayGrowsAndCaps(t *testing.T) {
	p := BackoffPolicy{Base: 100 * time.Millisecond, Cap: time.Second, Factor: 2}
	var prev time.Duration
	for attempt := 1; attempt <= 10; attempt++ {
		d := p.Delay(attempt, nil)
		if d > time.Second {
			t.Fatalf("attempt %d: delay %v exceeds cap", attempt, d)
		}
		if d < prev {
			t.Fatalf("attempt %d: delay %v shrank from %v", attempt, d, prev)
		}
		prev = d
	}
	if got := p.Delay(1, nil); got != 100*time.Millisecond {
		t.Fatalf("first retry delay = %v, want 100ms", got)
	}
	if got := p.Delay(4, nil); got != 800*time.Millisecond {
		t.Fatalf("fourth retry delay = %v, want 800ms", got)
	}
	// Full jitter scales the delay by the draw.
	if got := p.Delay(1, func() float64 { return 0.25 }); got != 25*time.Millisecond {
		t.Fatalf("jittered delay = %v, want 25ms", got)
	}
}

func TestBreakerLifecycle(t *testing.T) {
	s := newBreakerSet(BreakerPolicy{Threshold: 2, Cooldown: time.Hour}, nil)
	now := time.Unix(1000, 0)
	dest := "http://peer"

	if ok, _ := s.allow(dest, now); !ok {
		t.Fatal("fresh breaker should allow")
	}
	s.failure(dest, now)
	if ok, _ := s.allow(dest, now); !ok {
		t.Fatal("one failure under threshold should still allow")
	}
	s.failure(dest, now)
	if got := s.stateOf(dest); got != BreakerOpen {
		t.Fatalf("state after threshold failures = %v, want open", got)
	}
	if ok, retryAt := s.allow(dest, now.Add(time.Minute)); ok {
		t.Fatal("open breaker should reject within cooldown")
	} else if want := now.Add(time.Hour); !retryAt.Equal(want) {
		t.Fatalf("retryAt = %v, want %v", retryAt, want)
	}
	// After the cooldown, exactly one probe gets through.
	later := now.Add(2 * time.Hour)
	if ok, _ := s.allow(dest, later); !ok {
		t.Fatal("half-open breaker should admit a probe")
	}
	if ok, _ := s.allow(dest, later); ok {
		t.Fatal("second concurrent probe should be rejected")
	}
	s.success(dest)
	if got := s.stateOf(dest); got != BreakerClosed {
		t.Fatalf("state after successful probe = %v, want closed", got)
	}
	// A failed probe re-opens immediately.
	s.failure(dest, later)
	s.failure(dest, later)
	probeAt := later.Add(2 * time.Hour)
	if ok, _ := s.allow(dest, probeAt); !ok {
		t.Fatal("expected probe admission")
	}
	s.failure(dest, probeAt)
	if got := s.stateOf(dest); got != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", got)
	}
}

func TestOutboxLifecycle(t *testing.T) {
	o, err := OpenOutbox("")
	if err != nil {
		t.Fatal(err)
	}
	e, dup, err := o.Append("d1", "store", "k1", "", []byte("p1"))
	if err != nil || dup {
		t.Fatalf("Append = %v dup=%v", err, dup)
	}
	if _, dup, _ := o.Append("d1", "store", "k1", "", []byte("p1")); !dup {
		t.Fatal("second append of live key should be a duplicate")
	}
	if n, _ := o.Fail(e.Seq); n != 1 {
		t.Fatalf("attempts after one Fail = %d, want 1", n)
	}
	if err := o.Ack(e.Seq); err != nil {
		t.Fatal(err)
	}
	if _, dup, _ := o.Append("d1", "store", "k1", "", []byte("p1")); !dup {
		t.Fatal("append of an acked key should be a duplicate")
	}
	e2, _, _ := o.Append("d2", "store", "k2", "", []byte("p2"))
	if err := o.DeadLetter(e2.Seq, "boom"); err != nil {
		t.Fatal(err)
	}
	if p, d := o.Counts(); p != 0 || d != 1 {
		t.Fatalf("Counts = (%d,%d), want (0,1)", p, d)
	}
	if _, dup, _ := o.Append("d2", "store", "k2", "", nil); !dup {
		t.Fatal("append of a dead-lettered key should be a duplicate")
	}
	if err := o.Requeue(e2.Seq); err != nil {
		t.Fatal(err)
	}
	got := o.Pending()
	if len(got) != 1 || got[0].Seq != e2.Seq || got[0].Attempts != 0 || got[0].Reason != "" {
		t.Fatalf("requeued entry = %+v", got)
	}
	if err := o.DeadLetter(e2.Seq, "again"); err != nil {
		t.Fatal(err)
	}
	if err := o.Drop(e2.Seq); err != nil {
		t.Fatal(err)
	}
	if p, d := o.Counts(); p != 0 || d != 0 {
		t.Fatalf("Counts after drop = (%d,%d), want (0,0)", p, d)
	}
}

func TestRelayDeliversAndRetries(t *testing.T) {
	ob, _ := OpenOutbox("")
	var calls atomic.Int64
	tr := TransportFunc(func(ctx context.Context, e Entry) error {
		if calls.Add(1) < 3 {
			return errors.New("flaky")
		}
		return nil
	})
	r := New(ob, tr, testConfig())
	defer r.Close()
	if _, dup, err := r.Enqueue("d", "store", "k", []byte("p")); err != nil || dup {
		t.Fatalf("Enqueue = dup=%v err=%v", dup, err)
	}
	r.Flush()
	st := r.Stats()
	if st.Delivered != 1 || st.Attempts != 3 || st.Retries != 2 || st.Pending != 0 || st.Dead != 0 {
		t.Fatalf("Stats = %+v", st)
	}
}

func TestRelayDeadLettersAndRequeues(t *testing.T) {
	ob, _ := OpenOutbox("")
	var fail atomic.Bool
	fail.Store(true)
	tr := TransportFunc(func(ctx context.Context, e Entry) error {
		if fail.Load() {
			return errors.New("down")
		}
		return nil
	})
	r := New(ob, tr, testConfig())
	defer r.Close()
	r.Enqueue("d", "store", "k", []byte("p"))
	r.Flush()
	dead := r.DeadLetters()
	if len(dead) != 1 || dead[0].Attempts != 3 {
		t.Fatalf("DeadLetters = %+v", dead)
	}
	if st := r.Stats(); st.DeadLettered != 1 || st.Dead != 1 {
		t.Fatalf("Stats = %+v", st)
	}
	// An operator requeue after the peer recovers drains the DLQ.
	fail.Store(false)
	if n := r.RequeueAll(); n != 1 {
		t.Fatalf("RequeueAll = %d, want 1", n)
	}
	r.Flush()
	if st := r.Stats(); st.Delivered != 1 || st.Dead != 0 || st.Pending != 0 {
		t.Fatalf("Stats after requeue = %+v", st)
	}
}

func TestRelayPermanentErrorSkipsRetries(t *testing.T) {
	ob, _ := OpenOutbox("")
	var calls atomic.Int64
	tr := TransportFunc(func(ctx context.Context, e Entry) error {
		calls.Add(1)
		return Permanent(errors.New("rejected"))
	})
	r := New(ob, tr, testConfig())
	defer r.Close()
	r.Enqueue("d", "store", "k", []byte("p"))
	r.Flush()
	if got := calls.Load(); got != 1 {
		t.Fatalf("attempts = %d, want 1 (permanent)", got)
	}
	if len(r.DeadLetters()) != 1 {
		t.Fatal("permanent failure should dead-letter")
	}
}

func TestRelayEnqueueDedup(t *testing.T) {
	ob, _ := OpenOutbox("")
	var calls atomic.Int64
	var mu sync.Mutex
	block := true
	cond := sync.NewCond(&mu)
	tr := TransportFunc(func(ctx context.Context, e Entry) error {
		mu.Lock()
		for block {
			cond.Wait()
		}
		mu.Unlock()
		calls.Add(1)
		return nil
	})
	r := New(ob, tr, testConfig())
	defer r.Close()
	key := IdempotencyKey("store", "d", []byte("p"))
	r.Enqueue("d", "store", key, []byte("p"))
	if _, dup, _ := r.Enqueue("d", "store", key, []byte("p")); !dup {
		t.Fatal("second enqueue of same key should dedup")
	}
	mu.Lock()
	block = false
	cond.Broadcast()
	mu.Unlock()
	r.Flush()
	if got := calls.Load(); got != 1 {
		t.Fatalf("deliveries = %d, want 1", got)
	}
	// After the ack the key stays deduplicated.
	if _, dup, _ := r.Enqueue("d", "store", key, []byte("p")); !dup {
		t.Fatal("enqueue after ack should dedup")
	}
	if st := r.Stats(); st.Deduped != 2 {
		t.Fatalf("Deduped = %d, want 2", st.Deduped)
	}
}

func TestRelayBreakerParksDeliveries(t *testing.T) {
	ob, _ := OpenOutbox("")
	var calls atomic.Int64
	tr := TransportFunc(func(ctx context.Context, e Entry) error {
		calls.Add(1)
		return errors.New("down")
	})
	cfg := testConfig()
	cfg.Workers = 1
	cfg.MaxAttempts = 100
	cfg.Breaker = BreakerPolicy{Threshold: 2, Cooldown: 50 * time.Millisecond}
	r := New(ob, tr, cfg)
	defer r.Close()
	for i := 0; i < 4; i++ {
		r.Enqueue("d", "store", fmt.Sprintf("k%d", i), nil)
	}
	deadline := time.Now().Add(2 * time.Second)
	for r.BreakerState("d") != BreakerOpen {
		if time.Now().After(deadline) {
			t.Fatal("breaker never opened")
		}
		time.Sleep(time.Millisecond)
	}
	opened := calls.Load()
	if opened < 2 {
		t.Fatalf("breaker opened after %d attempts, want >= 2", opened)
	}
	// While open, parked deliveries consume no attempts.
	time.Sleep(20 * time.Millisecond)
	if got := calls.Load(); got > opened+1 {
		t.Fatalf("open breaker admitted %d attempts", got-opened)
	}
	// After the cooldown it half-opens and probes again.
	time.Sleep(100 * time.Millisecond)
	if got := calls.Load(); got <= opened {
		t.Fatal("half-open breaker never probed")
	}
}

func TestIdempotencyKeyDistinguishesHops(t *testing.T) {
	base := IdempotencyKey("store", "d1", []byte("p"))
	if IdempotencyKey("store", "d1", []byte("p")) != base {
		t.Fatal("key must be deterministic")
	}
	for _, other := range []string{
		IdempotencyKey("webhook", "d1", []byte("p")),
		IdempotencyKey("store", "d2", []byte("p")),
		IdempotencyKey("store", "d1", []byte("q")),
	} {
		if other == base {
			t.Fatal("distinct hops must get distinct keys")
		}
	}
}

func TestOutboxCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "outbox.wal")
	o, err := OpenOutbox(path)
	if err != nil {
		t.Fatal(err)
	}
	var keepSeq uint64
	for i := 0; i < 50; i++ {
		e, _, err := o.Append("d", "store", fmt.Sprintf("k%d", i), "", []byte("payload"))
		if err != nil {
			t.Fatal(err)
		}
		if i == 49 {
			keepSeq = e.Seq
			break
		}
		if err := o.Ack(e.Seq); err != nil {
			t.Fatal(err)
		}
	}
	if err := o.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	// The compacted journal replays to the same state.
	o2, err := OpenOutbox(path)
	if err != nil {
		t.Fatal(err)
	}
	defer o2.Close()
	got := o2.Pending()
	if len(got) != 1 || got[0].Seq != keepSeq {
		t.Fatalf("pending after compaction = %+v, want seq %d", got, keepSeq)
	}
	// Sequence numbers keep advancing past compaction.
	e, _, err := o2.Append("d", "store", "fresh", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if e.Seq <= keepSeq {
		t.Fatalf("new seq %d should exceed %d", e.Seq, keepSeq)
	}
}
