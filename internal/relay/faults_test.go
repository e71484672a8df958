package relay_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"dra4wfms/internal/chaos"
	"dra4wfms/internal/relay"
)

// chaosTransport judges every in-process delivery against a chaos
// network: the relay's only fault injector is the cluster's.
func chaosTransport(net *chaos.Network, inner relay.Transport) relay.Transport {
	return relay.TransportFunc(func(ctx context.Context, e relay.Entry) error {
		v := net.Judge("sender", e.Dest)
		if v.Drop {
			return errors.New("chaos: dropped")
		}
		if err := inner.Deliver(ctx, e); err != nil {
			return err
		}
		if v.Dup {
			_ = inner.Deliver(ctx, e)
		}
		if v.AckLoss {
			return errors.New("chaos: ack lost")
		}
		return nil
	})
}

// TestFaultInjectionInProcess pushes 200 deliveries through a link that
// drops 20%, duplicates 20% and loses the ack of 10% of them, and proves
// the relay's contract: every hop applied exactly once after receiver
// dedup, nothing stuck, nothing dead-lettered.
func TestFaultInjectionInProcess(t *testing.T) {
	net := chaos.NewNetwork(7)
	net.SetDefault(chaos.LinkFaults{Drop: 0.2, Dup: 0.2, AckLoss: 0.1})

	var (
		mu       sync.Mutex
		applied  = map[string]int{}
		received int
	)
	peer := relay.TransportFunc(func(ctx context.Context, e relay.Entry) error {
		mu.Lock()
		defer mu.Unlock()
		received++
		if applied[e.Key] == 0 {
			applied[e.Key]++
		}
		return nil
	})

	ob, err := relay.OpenOutbox("")
	if err != nil {
		t.Fatal(err)
	}
	r := relay.New(ob, chaosTransport(net, peer), relay.Config{
		Workers:        4,
		MaxAttempts:    50,
		AttemptTimeout: time.Second,
		Backoff:        relay.BackoffPolicy{Base: time.Millisecond, Cap: 5 * time.Millisecond},
		Breaker:        relay.BreakerPolicy{Threshold: -1},
		Budget:         relay.BudgetPolicy{Ratio: -1}, // a 30% failure rate outruns the default retry budget
		Rand:           func() float64 { return 0.5 },
	})
	defer r.Close()
	const hops = 200
	for i := 0; i < hops; i++ {
		if _, _, err := r.Enqueue("peer", "store", fmt.Sprintf("hop-%03d", i), []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	r.Flush()

	st := r.Stats()
	if st.Pending != 0 || st.Dead != 0 || st.Delivered != hops {
		t.Fatalf("stats under faults = %+v, want %d delivered and nothing left", st, hops)
	}
	if st.Attempts <= hops || received <= hops {
		t.Fatalf("%d attempts, %d arrivals for %d hops: no fault fired; the run proved nothing", st.Attempts, received, hops)
	}
	for i := 0; i < hops; i++ {
		if got := applied[fmt.Sprintf("hop-%03d", i)]; got != 1 {
			t.Fatalf("hop-%03d applied %d times, want exactly 1", i, got)
		}
	}
}
