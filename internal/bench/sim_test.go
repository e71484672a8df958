package bench

import (
	"strings"
	"testing"
	"time"
)

func TestEventOrdering(t *testing.T) {
	s := &simulation{}
	var order []int
	s.schedule(3*time.Second, func() { order = append(order, 3) })
	s.schedule(1*time.Second, func() { order = append(order, 1) })
	s.schedule(2*time.Second, func() {
		order = append(order, 2)
		// Nested scheduling.
		s.schedule(500*time.Millisecond, func() { order = append(order, 25) })
	})
	end := s.run()
	want := []int{1, 2, 25, 3}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if end != 3*time.Second {
		t.Fatalf("end = %v", end)
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := &simulation{}
	var order []int
	for i := 0; i < 10; i++ {
		s.schedule(time.Second, func() { order = append(order, i) })
	}
	s.run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("simultaneous events out of order: %v", order)
		}
	}
}

func TestNegativeDelayClamps(t *testing.T) {
	s := &simulation{}
	ran := false
	s.schedule(-5*time.Second, func() { ran = true })
	if end := s.run(); end != 0 || !ran {
		t.Fatalf("end = %v ran = %v", end, ran)
	}
}

func TestStationFIFOQueueing(t *testing.T) {
	// Three jobs arriving at t=0 with 2s service: waits 0, 2, 4; finishes
	// at 2, 4, 6.
	s := &simulation{}
	st := newStation(s)
	var finishes []time.Duration
	for i := 0; i < 3; i++ {
		st.submit(2*time.Second, func(f time.Duration) { finishes = append(finishes, f) })
	}
	s.run()
	want := []time.Duration{2 * time.Second, 4 * time.Second, 6 * time.Second}
	for i := range want {
		if finishes[i] != want[i] {
			t.Fatalf("finishes = %v", finishes)
		}
	}
	if st.meanWait() != 2*time.Second { // (0+2+4)/3
		t.Fatalf("mean wait = %v", st.meanWait())
	}
}

func TestStationIdleGaps(t *testing.T) {
	// Job at t=0 (1s) and job at t=5 (1s): no queueing for the second.
	s := &simulation{}
	st := newStation(s)
	st.submit(time.Second, nil)
	s.schedule(5*time.Second, func() {
		st.submit(time.Second, func(f time.Duration) {
			if f != 6*time.Second {
				t.Errorf("finish = %v, want 6s", f)
			}
		})
	})
	s.run()
	if st.meanWait() != 0 {
		t.Fatalf("mean wait = %v", st.meanWait())
	}
}

func TestStationSaturationGrowsLinearly(t *testing.T) {
	// The bottleneck behaviour the DoS/scalability benches rely on: with
	// arrivals faster than service, the k-th job's wait grows linearly.
	s := &simulation{}
	st := newStation(s)
	var waits []time.Duration
	for i := 0; i < 100; i++ {
		s.schedule(time.Duration(i)*time.Millisecond, func() {
			submitted := s.now
			st.submit(10*time.Millisecond, func(f time.Duration) {
				waits = append(waits, f-submitted-10*time.Millisecond)
			})
		})
	}
	s.run()
	if len(waits) != 100 {
		t.Fatalf("waits = %d", len(waits))
	}
	// Wait of job k ≈ k * 9ms.
	if waits[0] != 0 {
		t.Fatalf("first wait = %v", waits[0])
	}
	if waits[99] != 99*9*time.Millisecond {
		t.Fatalf("last wait = %v, want %v", waits[99], 99*9*time.Millisecond)
	}
}

func TestPercentileAndMean(t *testing.T) {
	samples := []time.Duration{5, 1, 3, 2, 4} // ns
	if got := percentile(samples, 0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
	if got := percentile(samples, 100); got != 5 {
		t.Fatalf("p100 = %v", got)
	}
	if got := percentile(samples, 50); got != 3 {
		t.Fatalf("p50 = %v", got)
	}
	if got := mean(samples); got != 3 {
		t.Fatalf("mean = %v", got)
	}
	if percentile(nil, 50) != 0 || mean(nil) != 0 {
		t.Fatal("empty samples not handled")
	}
	// percentile must not mutate its input.
	if samples[0] != 5 {
		t.Fatal("percentile sorted the caller's slice")
	}
}

func TestFormatScalability(t *testing.T) {
	out := FormatScalability([]ScalabilityRow{{
		Label: "engine-centralized", Instances: 100,
		MeanLatency: time.Millisecond, P99Latency: 2 * time.Millisecond, Makespan: time.Second,
	}})
	for _, want := range []string{"engine-centralized", "load=  100", "mean=", "p99=", "makespan="} {
		if !strings.Contains(out, want) {
			t.Fatalf("line %q missing %q", out, want)
		}
	}
}
