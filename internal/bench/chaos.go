package bench

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"dra4wfms/internal/chaos"
	"dra4wfms/internal/httpapi"
	"dra4wfms/internal/pool"
	"dra4wfms/internal/poolcluster"
	"dra4wfms/internal/relay"
)

// The chaos experiment drives the cluster through the failure modes the
// robustness work exists for — partition, slow node, flapping membership,
// and 2× overload — with every fault injected through the deterministic
// chaos.Network, so a scenario replays byte-identically from its seed.
// Zero acknowledged-write loss is enforced here (the run errors
// otherwise); the latency/recovery numbers are reported, not gated.

// ChaosRow is one chaos scenario's measured outcome. Durations serialize
// as integer nanoseconds in `drabench -json`.
type ChaosRow struct {
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`
	// AckedWrites/LostWrites carry the zero-loss guarantee: RunChaos
	// errors when LostWrites is nonzero, so recorded rows always show 0.
	AckedWrites int `json:"ackedWrites,omitempty"`
	LostWrites  int `json:"lostWrites"`
	// FailoverLatency is the one write that pays for failure detection
	// and promotion inline (partition and flapping scenarios).
	FailoverLatency time.Duration `json:"failoverLatency,omitempty"`
	// Recovery is how long after healing the fault the cluster took to
	// re-converge (auto-rejoin + replica catch-up).
	Recovery  time.Duration `json:"recovery,omitempty"`
	MeanWrite time.Duration `json:"meanWrite,omitempty"`
	MaxStall  time.Duration `json:"maxStall,omitempty"`
	// Served/Shed/GoodputRatio belong to the overload scenario: how many
	// requests got 2xx vs 429 at 2× offered load, and goodput under
	// overload relative to the unloaded run (want >= 0.8).
	Served       int64   `json:"served,omitempty"`
	Shed         int64   `json:"shed,omitempty"`
	GoodputRatio float64 `json:"goodputRatio,omitempty"`
}

// chaosCluster builds a 3-node clustered pool whose every coordinator →
// node hop runs through the chaos network under the source name "coord".
func chaosCluster(net *chaos.Network, writes int) (*poolcluster.Cluster, []string, func(int) string, error) {
	const nodeCount = 3
	ids := make([]string, 0, nodeCount)
	refs := make([]poolcluster.NodeRef, 0, nodeCount)
	for i := 0; i < nodeCount; i++ {
		id := fmt.Sprintf("pool-%d", i+1)
		cl, err := pool.NewCluster([]string{id}, 0)
		if err != nil {
			return nil, nil, nil, err
		}
		tbl, err := cl.CreateTable("dra4wfms_documents",
			pool.FamilySpec{Name: "doc", MaxVersions: 3},
			pool.FamilySpec{Name: "meta", MaxVersions: 1})
		if err != nil {
			return nil, nil, nil, err
		}
		ids = append(ids, id)
		refs = append(refs, net.NodeRef("coord", poolcluster.NewNode(id, tbl)))
	}
	rowOf := func(i int) string { return fmt.Sprintf("proc-%08d", i) }
	var bounds []string
	for k := 1; k <= 4; k++ {
		bounds = append(bounds, rowOf(writes*k/5))
	}
	c, err := poolcluster.New(refs, poolcluster.Config{
		Replicas:   2,
		Boundaries: bounds,
		// Snappy repair so recovery measures convergence, not the
		// production pacemaker interval.
		RepairInterval: 10 * time.Millisecond,
		Relay: relay.Config{
			Backoff: relay.BackoffPolicy{Base: 2 * time.Millisecond, Cap: 20 * time.Millisecond},
			Breaker: relay.BreakerPolicy{Threshold: 1000, Cooldown: 10 * time.Millisecond, Jitter: 0.2},
			Budget:  relay.BudgetPolicy{Burst: 50, ProbeInterval: 20 * time.Millisecond},
		},
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return c, ids, rowOf, nil
}

// driveWrites writes rows [0, writes) through s, calling hook before each
// write. Every Put must be acknowledged; read-your-writes is spot-checked
// on each row.
func driveWrites(s *poolcluster.Session, rowOf func(int) string, writes int, payload []byte, hook func(i int)) (mean, maxStall time.Duration, latencies []time.Duration, err error) {
	var total time.Duration
	latencies = make([]time.Duration, 0, writes)
	for i := 0; i < writes; i++ {
		if hook != nil {
			hook(i)
		}
		row := rowOf(i)
		t0 := time.Now()
		if perr := s.Put(row, "doc", "content", payload); perr != nil {
			return 0, 0, nil, fmt.Errorf("write %s not acknowledged: %w", row, perr)
		}
		d := time.Since(t0)
		total += d
		latencies = append(latencies, d)
		if d > maxStall {
			maxStall = d
		}
		if got, ok := s.Get(row, "doc", "content"); !ok || !bytes.Equal(got, payload) {
			return 0, 0, nil, fmt.Errorf("read-your-writes violated at %s (ok=%v)", row, ok)
		}
	}
	return total / time.Duration(writes), maxStall, latencies, nil
}

// settleAndAudit heals nothing itself: it quiesces the cluster and then
// reads every row back, returning the count that failed — the
// acknowledged-write-loss audit every cluster scenario ends with.
func settleAndAudit(c *poolcluster.Cluster, s *poolcluster.Session, rowOf func(int) string, writes int) (recovery time.Duration, lost int, err error) {
	t0 := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if qerr := c.Quiesce(ctx); qerr != nil {
		return 0, 0, fmt.Errorf("cluster did not re-converge: %w", qerr)
	}
	recovery = time.Since(t0)
	for i := 0; i < writes; i++ {
		if _, ok := s.Get(rowOf(i), "doc", "content"); !ok {
			lost++
		}
	}
	return recovery, lost, nil
}

// runPartitionPrimary partitions the primary of the mid-run region at the
// halfway write, keeps writing through the inline failover, heals the
// partition, and verifies the node auto-rejoins with zero acked loss.
func runPartitionPrimary(seed int64, writes int) (*ChaosRow, error) {
	net := chaos.NewNetwork(seed)
	c, _, rowOf, err := chaosCluster(net, writes)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	s := c.NewSession()
	payload := bytes.Repeat([]byte("dra4wfms chaos payload block... "), 32)

	cut := writes / 2
	_, victim := c.PrimaryFor(rowOf(cut))
	if victim == "" {
		return nil, fmt.Errorf("chaos: no primary for row %s", rowOf(cut))
	}
	var failover time.Duration
	mean, maxStall, lats, err := driveWrites(s, rowOf, writes, payload, func(i int) {
		if i == cut {
			// Asymmetric total isolation: the node is healthy but no
			// packet reaches it — the partition case, not the crash case.
			net.Isolate(victim)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("partition_primary: %w", err)
	}
	failover = lats[cut]

	// Heal; the repair loop must readmit the victim on its own.
	net.HealNode(victim)
	recovery, lost, err := settleAndAudit(c, s, rowOf, writes)
	if err != nil {
		return nil, fmt.Errorf("partition_primary: %w", err)
	}
	if lost > 0 {
		return nil, fmt.Errorf("partition_primary: %d acknowledged writes lost", lost)
	}
	alive := 0
	for _, n := range c.Status().Nodes {
		if n.Alive {
			alive++
		}
	}
	if alive != 3 {
		return nil, fmt.Errorf("partition_primary: healed node not auto-rejoined (%d/3 alive)", alive)
	}
	return &ChaosRow{
		Scenario: "partition_primary", Seed: seed,
		AckedWrites: writes, LostWrites: lost,
		FailoverLatency: failover, Recovery: recovery,
		MeanWrite: mean, MaxStall: maxStall,
	}, nil
}

// runSlowBackup drags one backup's hops by a fixed delay: acked writes
// must stay fast (replication is asynchronous) and nothing may be lost.
func runSlowBackup(seed int64, writes int) (*ChaosRow, error) {
	net := chaos.NewNetwork(seed)
	c, ids, rowOf, err := chaosCluster(net, writes)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	s := c.NewSession()
	payload := bytes.Repeat([]byte("dra4wfms chaos payload block... "), 32)

	// Slow a node that does NOT lead the first-written region, so the
	// inline (primary) path stays clean and the drag lands on the
	// replication fan-out.
	_, firstPrimary := c.PrimaryFor(rowOf(0))
	slow := ""
	for _, id := range ids {
		if id != firstPrimary {
			slow = id
			break
		}
	}
	net.SlowNode(slow, 3*time.Millisecond)

	mean, maxStall, _, err := driveWrites(s, rowOf, writes, payload, nil)
	if err != nil {
		return nil, fmt.Errorf("slow_backup: %w", err)
	}
	net.HealNode(slow)
	recovery, lost, err := settleAndAudit(c, s, rowOf, writes)
	if err != nil {
		return nil, fmt.Errorf("slow_backup: %w", err)
	}
	if lost > 0 {
		return nil, fmt.Errorf("slow_backup: %d acknowledged writes lost", lost)
	}
	return &ChaosRow{
		Scenario: "slow_backup", Seed: seed,
		AckedWrites: writes, LostWrites: lost,
		Recovery: recovery, MeanWrite: mean, MaxStall: maxStall,
	}, nil
}

// runFlappingNode isolates and heals the same node repeatedly while
// writes flow — the pathological membership churn case. The repair
// loop's auto-rejoin must keep readmitting it, and no acknowledged write
// may be lost across any flap.
func runFlappingNode(seed int64, writes int) (*ChaosRow, error) {
	net := chaos.NewNetwork(seed)
	c, ids, rowOf, err := chaosCluster(net, writes)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	s := c.NewSession()
	payload := bytes.Repeat([]byte("dra4wfms chaos payload block... "), 32)

	victim := ids[len(ids)-1]
	period := writes / 6
	if period < 2 {
		period = 2
	}
	var worstFlap time.Duration
	mean, maxStall, lats, err := driveWrites(s, rowOf, writes, payload, func(i int) {
		if i%period == 0 && i > 0 {
			net.Isolate(victim)
		} else if i%period == period/2 {
			net.HealNode(victim)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("flapping_node: %w", err)
	}
	for i, d := range lats {
		if i > 0 && i%period == 0 && d > worstFlap {
			worstFlap = d // the write that lands right on an isolation
		}
	}
	net.HealNode(victim)
	recovery, lost, err := settleAndAudit(c, s, rowOf, writes)
	if err != nil {
		return nil, fmt.Errorf("flapping_node: %w", err)
	}
	if lost > 0 {
		return nil, fmt.Errorf("flapping_node: %d acknowledged writes lost", lost)
	}
	return &ChaosRow{
		Scenario: "flapping_node", Seed: seed,
		AckedWrites: writes, LostWrites: lost,
		FailoverLatency: worstFlap, Recovery: recovery,
		MeanWrite: mean, MaxStall: maxStall,
	}, nil
}

// runOverload measures admission control under 2× offered load. The
// server simulates the verify-bound tier: a fixed worker pool each
// request occupies for a fixed service time, fronted by the admission
// gate. Goodput at 2× load must stay close to the unloaded goodput —
// the gate sheds the excess with 429 instead of letting queues grow.
func runOverload(seed int64) (*ChaosRow, error) {
	const (
		workers     = 8
		service     = time.Millisecond
		perClient   = 100
		maxInFlight = 2 * workers
	)
	makeHandler := func() (http.HandlerFunc, *atomic.Int64) {
		var served atomic.Int64
		slots := make(chan struct{}, workers)
		return func(w http.ResponseWriter, r *http.Request) {
			slots <- struct{}{}
			time.Sleep(service)
			<-slots
			served.Add(1)
			w.WriteHeader(http.StatusOK)
		}, &served
	}
	// drive fires clients×perClient requests and returns goodput (2xx/s)
	// and how many were shed (429).
	drive := func(h http.HandlerFunc, clients int) (goodput float64, ok, shed int64) {
		var okN, shedN atomic.Int64
		var wg sync.WaitGroup
		t0 := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perClient; i++ {
					rec := httptest.NewRecorder()
					h(rec, httptest.NewRequest(http.MethodPost, "/v1/documents", nil))
					switch rec.Code {
					case http.StatusOK:
						okN.Add(1)
					case http.StatusTooManyRequests:
						shedN.Add(1)
					}
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(t0)
		return float64(okN.Load()) / elapsed.Seconds(), okN.Load(), shedN.Load()
	}

	// Unloaded: as many clients as workers — the gate never engages.
	base, _ := makeHandler()
	adm := httpapi.NewAdmission(httpapi.AdmissionConfig{MaxInFlight: maxInFlight, WriteShare: 1})
	baseline, _, baseShed := drive(adm.Middleware(httpapi.ClassWrite, base), workers)
	if baseShed != 0 {
		return nil, fmt.Errorf("overload: baseline run shed %d requests", baseShed)
	}

	// 2× overload: double the offered concurrency beyond capacity.
	over, _ := makeHandler()
	adm2 := httpapi.NewAdmission(httpapi.AdmissionConfig{MaxInFlight: maxInFlight, WriteShare: 1})
	goodput, served, shed := drive(adm2.Middleware(httpapi.ClassWrite, over), 4*workers)
	if shed == 0 {
		return nil, fmt.Errorf("overload: 2x load shed nothing — the gate never engaged")
	}
	ratio := goodput / baseline
	if ratio < 0.8 {
		return nil, fmt.Errorf("overload: goodput under 2x load fell to %.0f%% of unloaded (want >= 80%%)", ratio*100)
	}
	return &ChaosRow{
		Scenario: "overload_2x", Seed: seed,
		Served: served, Shed: shed, GoodputRatio: ratio,
	}, nil
}

// RunChaos runs every chaos scenario with the given seed and write count,
// failing the whole bench run on any lost acknowledged write, missed
// rejoin, or collapsed goodput.
func RunChaos(seed int64, writes int) ([]ChaosRow, error) {
	if writes < 20 {
		return nil, fmt.Errorf("bench: chaos needs >=20 writes, got %d", writes)
	}
	var rows []ChaosRow
	for _, fn := range []func() (*ChaosRow, error){
		func() (*ChaosRow, error) { return runPartitionPrimary(seed, writes) },
		func() (*ChaosRow, error) { return runSlowBackup(seed, writes/2) },
		func() (*ChaosRow, error) { return runFlappingNode(seed, writes) },
		func() (*ChaosRow, error) { return runOverload(seed) },
	} {
		row, err := fn()
		if err != nil {
			return nil, err
		}
		rows = append(rows, *row)
	}
	return rows, nil
}
