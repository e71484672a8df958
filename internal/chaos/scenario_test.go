package chaos

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"dra4wfms/internal/pool"
	"dra4wfms/internal/poolcluster"
	"dra4wfms/internal/relay"
)

// TestClusterScenarios drives writes through a 3-node, 2-replica
// clustered pool whose every coordinator → node hop runs through the
// chaos network, injects one fault mid-stream, heals it, and checks the
// acknowledged-write contract: every write is acked, each row reads back
// through the writing session, no acked row is missing after Quiesce, and
// every node is alive again. It asserts no latencies.
func TestClusterScenarios(t *testing.T) {
	const writes = 60
	rowOf := func(i int) string { return fmt.Sprintf("proc-%08d", i) }
	payload := bytes.Repeat([]byte("dra4wfms chaos payload block... "), 8)

	for _, tc := range []struct {
		name string
		// fault returns the hook run before write i; heal undoes it.
		fault func(t *testing.T, net *Network, c *poolcluster.Cluster, ids []string) (hook func(i int), heal func())
	}{
		{"partition_primary", func(t *testing.T, net *Network, c *poolcluster.Cluster, _ []string) (func(int), func()) {
			// Isolate the primary of the mid-stream row's region right
			// before that row is written: a healthy node no packet reaches,
			// so the write must fail over inline.
			cut := writes / 2
			_, victim := c.PrimaryFor(rowOf(cut))
			if victim == "" {
				t.Fatalf("no primary for %s", rowOf(cut))
			}
			hook := func(i int) {
				if i == cut {
					net.Isolate(victim)
				}
			}
			heal := func() {
				if alive(c)[victim] {
					t.Errorf("isolated primary %s was never failed over", victim)
				}
				net.HealNode(victim)
			}
			return hook, heal
		}},
		{"slow_backup", func(_ *testing.T, net *Network, c *poolcluster.Cluster, ids []string) (func(int), func()) {
			// Slow a node that does not lead the first region, so the drag
			// lands on the replication fan-out.
			_, first := c.PrimaryFor(rowOf(0))
			slow := ids[0]
			if slow == first {
				slow = ids[1]
			}
			net.SlowNode(slow, time.Millisecond)
			return nil, func() { net.HealNode(slow) }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := NewNetwork(42)
			ids := []string{"pool-1", "pool-2", "pool-3"}
			refs := make([]poolcluster.NodeRef, len(ids))
			for i, id := range ids {
				cl, err := pool.NewCluster([]string{id}, 0)
				if err != nil {
					t.Fatal(err)
				}
				tbl, err := cl.CreateTable("dra4wfms_documents", pool.FamilySpec{Name: "doc", MaxVersions: 3})
				if err != nil {
					t.Fatal(err)
				}
				refs[i] = net.NodeRef("coord", poolcluster.NewNode(id, tbl))
			}
			var bounds []string
			for k := 1; k <= 4; k++ {
				bounds = append(bounds, rowOf(writes*k/5))
			}
			c, err := poolcluster.New(refs, poolcluster.Config{
				Replicas:       2,
				Boundaries:     bounds,
				RepairInterval: 10 * time.Millisecond,
				Relay: relay.Config{
					Backoff: relay.BackoffPolicy{Base: 2 * time.Millisecond, Cap: 20 * time.Millisecond},
					Breaker: relay.BreakerPolicy{Threshold: 1000, Cooldown: 10 * time.Millisecond},
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			s := c.NewSession()

			hook, heal := tc.fault(t, net, c, ids)
			for i := 0; i < writes; i++ {
				if hook != nil {
					hook(i)
				}
				row := rowOf(i)
				if err := s.Put(row, "doc", "content", payload); err != nil {
					t.Fatalf("write %s not acknowledged: %v", row, err)
				}
				if got, ok := s.Get(row, "doc", "content"); !ok || !bytes.Equal(got, payload) {
					t.Fatalf("read-your-writes violated at %s (ok=%v)", row, ok)
				}
			}

			heal()
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			if err := c.Quiesce(ctx); err != nil {
				t.Fatalf("cluster did not re-converge: %v", err)
			}
			for i := 0; i < writes; i++ {
				if _, ok := s.Get(rowOf(i), "doc", "content"); !ok {
					t.Errorf("acknowledged row %s missing after Quiesce", rowOf(i))
				}
			}
			for _, id := range ids {
				if !alive(c)[id] {
					t.Errorf("node %s not alive after heal", id)
				}
			}
		})
	}
}

// alive reports which nodes the coordinator currently counts as alive.
func alive(c *poolcluster.Cluster) map[string]bool {
	m := map[string]bool{}
	for _, n := range c.Status().Nodes {
		m[n.ID] = n.Alive
	}
	return m
}
