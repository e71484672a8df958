package bench

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"dra4wfms/internal/pool"
	"dra4wfms/internal/poolcluster"
	"dra4wfms/internal/relay"
)

// PoolFailoverResult measures the clustered pool's headline guarantee:
// killing a pool node mid-run loses no acknowledged write, and exactly
// one write pays the failover stall (suspicion + promotion + retry).
// Durations serialize as integer nanoseconds in `drabench -json`.
type PoolFailoverResult struct {
	Nodes       int `json:"nodes"`
	Replicas    int `json:"replicas"`
	Regions     int `json:"regions"`
	AckedWrites int `json:"ackedWrites"`
	// LostWrites counts acknowledged rows that failed to read back after
	// the kill and repair settled. RunPoolFailover errors when it is
	// nonzero, so a recorded run always carries 0 here — the field exists
	// to make the guarantee visible in the -json document.
	LostWrites   int    `json:"lostWrites"`
	KilledNode   string `json:"killedNode"`
	KilledRegion string `json:"killedRegion"`
	// FailoverLatency is the duration of the write issued immediately
	// after the kill into the dead node's region — the one write that
	// pays for failure detection and primary promotion inline.
	FailoverLatency time.Duration `json:"failoverLatency"`
	// MaxStall is the slowest single acknowledged write of the whole run
	// (an upper bound on FailoverLatency plus any repair interference).
	MaxStall time.Duration `json:"maxStall"`
	// MeanWrite is the mean acknowledged-write latency including the
	// failover window.
	MeanWrite time.Duration `json:"meanWrite"`
}

// RunPoolFailover drives writes through a coordinator over an in-process
// fleet of pool nodes, kills the primary of the mid-run row's region at
// the halfway point, and keeps writing: every Put must still be
// acknowledged, read-your-writes must hold across the kill, and after
// repair settles every acknowledged row must read back from the
// survivors. Returns an error — failing the whole bench run — if any
// acknowledged write is lost or any write fails.
func RunPoolFailover(nodeCount, writes int) (*PoolFailoverResult, error) {
	if nodeCount < 3 {
		return nil, fmt.Errorf("bench: failover needs >=3 nodes so replicas=2 survives a kill, got %d", nodeCount)
	}
	if writes < 10 {
		return nil, fmt.Errorf("bench: failover needs >=10 writes, got %d", writes)
	}

	nodes := make(map[string]*poolcluster.Node, nodeCount)
	refs := make([]poolcluster.NodeRef, 0, nodeCount)
	for i := 0; i < nodeCount; i++ {
		id := fmt.Sprintf("pool-%d", i+1)
		cl, err := pool.NewCluster([]string{id}, 0)
		if err != nil {
			return nil, err
		}
		tbl, err := cl.CreateTable("dra4wfms_documents",
			pool.FamilySpec{Name: "doc", MaxVersions: 3},
			pool.FamilySpec{Name: "meta", MaxVersions: 1})
		if err != nil {
			return nil, err
		}
		node := poolcluster.NewNode(id, tbl)
		nodes[id] = node
		refs = append(refs, node)
	}

	// Split the proc- keyspace into five spans at the write-count
	// quintiles, so the sequential row stream crosses region (and
	// therefore primary) boundaries as it advances.
	rowOf := func(i int) string { return fmt.Sprintf("proc-%08d", i) }
	var bounds []string
	for k := 1; k <= 4; k++ {
		bounds = append(bounds, rowOf(writes*k/5))
	}
	c, err := poolcluster.New(refs, poolcluster.Config{
		Replicas:   2,
		Boundaries: bounds,
		// Snappy redelivery: the measurement is failover latency, not the
		// production backoff schedule.
		Relay: relay.Config{
			Backoff: relay.BackoffPolicy{Base: 2 * time.Millisecond, Cap: 20 * time.Millisecond},
			Breaker: relay.BreakerPolicy{Threshold: 1000, Cooldown: 10 * time.Millisecond},
		},
	})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	s := c.NewSession()

	// ~1 KiB payload: enough to make replication frames non-trivial
	// without drowning the latency signal in memcpy.
	payload := bytes.Repeat([]byte("dra4wfms failover payload block "), 32)

	killAt := writes / 2
	killRegion, killNode := c.PrimaryFor(rowOf(killAt))
	if killNode == "" {
		return nil, fmt.Errorf("bench: no primary for row %s", rowOf(killAt))
	}

	var total, maxStall, failover time.Duration
	acked := 0
	for i := 0; i < writes; i++ {
		if i == killAt {
			// Simulated process death: the node stops answering, exactly as
			// a kill -9 looks to the coordinator. The very next Put targets
			// its region and must fail over inline.
			nodes[killNode].Down()
		}
		row := rowOf(i)
		t0 := time.Now()
		if err := s.Put(row, "doc", "content", payload); err != nil {
			return nil, fmt.Errorf("bench: write %s not acknowledged after killing %s: %w", row, killNode, err)
		}
		d := time.Since(t0)
		total += d
		if d > maxStall {
			maxStall = d
		}
		if i == killAt {
			failover = d
		}
		acked++
		// Read-your-writes must hold through the failover window.
		if got, ok := s.Get(row, "doc", "content"); !ok || !bytes.Equal(got, payload) {
			return nil, fmt.Errorf("bench: read-your-writes violated at %s (ok=%v)", row, ok)
		}
	}

	// Let repair settle: the dead node demoted everywhere, surviving
	// replicas caught up, re-replication done.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.Quiesce(ctx); err != nil {
		return nil, fmt.Errorf("bench: post-kill repair did not settle: %w", err)
	}

	// The guarantee: zero acknowledged-write loss. Every acked row must
	// read back from the survivors.
	lost := 0
	for i := 0; i < writes; i++ {
		if _, ok := s.Get(rowOf(i), "doc", "content"); !ok {
			lost++
		}
	}
	if lost > 0 {
		return nil, fmt.Errorf("bench: %d of %d acknowledged writes lost after failover", lost, acked)
	}

	return &PoolFailoverResult{
		Nodes:           nodeCount,
		Replicas:        c.Replicas(),
		Regions:         len(c.Status().Regions),
		AckedWrites:     acked,
		LostWrites:      lost,
		KilledNode:      killNode,
		KilledRegion:    killRegion,
		FailoverLatency: failover,
		MaxStall:        maxStall,
		MeanWrite:       total / time.Duration(acked),
	}, nil
}
