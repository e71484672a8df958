package poolcluster

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dra4wfms/internal/pool"
	"dra4wfms/internal/relay"
)

// testNode builds an in-process node with the standard document families.
func testNode(t *testing.T, id string) *Node {
	t.Helper()
	tbl, err := pool.NewTable("docs", pool.FamilySpec{Name: "doc"}, pool.FamilySpec{Name: "meta"})
	if err != nil {
		t.Fatal(err)
	}
	return NewNode(id, tbl)
}

// fastRelay keeps redelivery snappy so failover tests converge quickly.
func fastRelay() relay.Config {
	return relay.Config{
		Backoff: relay.BackoffPolicy{Base: 2 * time.Millisecond, Cap: 20 * time.Millisecond},
		Breaker: relay.BreakerPolicy{Threshold: 1000, Cooldown: 10 * time.Millisecond},
	}
}

func testCluster(t *testing.T, n int, cfg Config) (*Cluster, map[string]*Node) {
	t.Helper()
	nodes := make(map[string]*Node, n)
	refs := make([]NodeRef, 0, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("n%d", i+1)
		node := testNode(t, id)
		nodes[id] = node
		refs = append(refs, node)
	}
	if cfg.Relay.Backoff.Base == 0 {
		cfg.Relay = fastRelay()
	}
	c, err := New(refs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c, nodes
}

func quiesce(t *testing.T, c *Cluster) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := c.Quiesce(ctx); err != nil {
		t.Fatalf("quiesce: %v", err)
	}
}

// spreadRow distributes rows across the test boundaries a–z.
func spreadRow(i int) string {
	return fmt.Sprintf("%c-%05d", 'a'+i%20, i)
}

var testBoundaries = []string{"e", "j", "o", "t"}

func TestClusterReadYourWritesBasics(t *testing.T) {
	c, nodes := testCluster(t, 3, Config{Replicas: 2, Boundaries: testBoundaries})
	s := c.NewSession()
	const n = 200
	for i := 0; i < n; i++ {
		row := spreadRow(i)
		if err := s.Put(row, "doc", "content", []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("put %s: %v", row, err)
		}
		// Read-your-writes must hold immediately, replica lag or not.
		got, ok := s.Get(row, "doc", "content")
		if !ok || string(got) != fmt.Sprintf("v%d", i) {
			t.Fatalf("read-your-writes violated at %s: got %q ok=%v", row, got, ok)
		}
	}
	// A full scan merges regions in global row order.
	kvs := s.Scan(pool.ScanOptions{Family: "doc"})
	if len(kvs) != n {
		t.Fatalf("scan returned %d cells, want %d", len(kvs), n)
	}
	for i := 1; i < len(kvs); i++ {
		if kvs[i-1].Row > kvs[i].Row {
			t.Fatalf("scan out of order: %q before %q", kvs[i-1].Row, kvs[i].Row)
		}
	}
	// Limit and Filter apply across the merged stream.
	limited := s.Scan(pool.ScanOptions{Family: "doc", Limit: 7})
	if len(limited) != 7 {
		t.Fatalf("limited scan returned %d cells", len(limited))
	}
	filtered := s.Scan(pool.ScanOptions{
		Family: "doc",
		Filter: func(kv pool.KeyValue) bool { return kv.Row[0] == 'a' },
	})
	for _, kv := range filtered {
		if kv.Row[0] != 'a' {
			t.Fatalf("filter leaked row %q", kv.Row)
		}
	}
	quiesce(t, c)
	assertReplicasConverged(t, c, nodes)
}

func TestClusterDeleteReplicates(t *testing.T) {
	c, nodes := testCluster(t, 2, Config{Replicas: 2, Boundaries: testBoundaries})
	s := c.NewSession()
	if err := s.Put("k-1", "doc", "content", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("k-1", "doc", "content"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("k-1", "doc", "content"); ok {
		t.Fatal("deleted cell still readable")
	}
	quiesce(t, c)
	for id, node := range nodes {
		if _, ok := node.Table().Get("k-1", "doc", "content"); ok {
			t.Fatalf("tombstone not applied on %s", id)
		}
	}
}

// TestClusterKillNodeUnderLoad is the zero-acked-write-loss property:
// a node dies mid-stream, every write still acknowledges (after
// failover), and after quiesce every acknowledged write is readable with
// identical versions on every surviving replica.
func TestClusterKillNodeUnderLoad(t *testing.T) {
	c, nodes := testCluster(t, 3, Config{Replicas: 2, Boundaries: testBoundaries})
	s := c.NewSession()
	type acked struct{ row, val string }
	var log []acked
	const n = 400
	killAt := n / 3
	var killed string
	for i := 0; i < n; i++ {
		row, val := spreadRow(i), fmt.Sprintf("v%d", i)
		if i == killAt {
			// Kill the node that owns the next row's region, so the very
			// next write exercises failover.
			_, killed = c.PrimaryFor(row)
			nodes[killed].Down()
		}
		if err := s.Put(row, "doc", "content", []byte(val)); err != nil {
			t.Fatalf("put %s (i=%d, killed=%s): %v", row, i, killed, err)
		}
		log = append(log, acked{row, val})
	}
	quiesce(t, c)
	lost := 0
	for _, a := range log {
		got, ok := s.Get(a.row, "doc", "content")
		if !ok || string(got) != a.val {
			lost++
		}
	}
	if lost > 0 {
		t.Fatalf("%d of %d acknowledged writes lost after killing %s", lost, len(log), killed)
	}
	// The dead node must no longer hold any region.
	for _, r := range c.Status().Regions {
		for _, rep := range r.Replicas {
			if rep.Node == killed {
				t.Fatalf("dead node %s still holds %s", killed, r.ID)
			}
		}
	}
	assertReplicasConverged(t, c, nodes)
}

// TestMigrateWhileWriting drives concurrent writers while the region
// they write to migrates between nodes repeatedly: writes block-and-
// retry against the new owner, none are lost or misordered.
func TestMigrateWhileWriting(t *testing.T) {
	c, nodes := testCluster(t, 3, Config{Replicas: 2, Boundaries: testBoundaries})
	s := c.NewSession()
	region, _ := c.PrimaryFor("a-0")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	written := make(map[string]string)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := c.NewSession()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				row := fmt.Sprintf("a-w%d-%06d", w, i)
				val := fmt.Sprintf("val-%d-%d", w, i)
				if err := sess.Put(row, "doc", "content", []byte(val)); err != nil {
					t.Errorf("writer %d: put %s: %v", w, row, err)
					return
				}
				mu.Lock()
				written[row] = val
				mu.Unlock()
			}
		}(w)
	}
	targets := []string{"n2", "n3", "n1", "n3", "n2", "n1"}
	for _, dst := range targets {
		if err := c.MigrateRegion(region, dst); err != nil {
			t.Fatalf("migrate %s -> %s: %v", region, dst, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	quiesce(t, c)
	for row, val := range written {
		got, ok := s.Get(row, "doc", "content")
		if !ok || string(got) != val {
			t.Fatalf("write lost across migration: %s", row)
		}
	}
	assertReplicasConverged(t, c, nodes)
}

// TestRejoinWithStaleWAL kills a node, keeps writing, then rejoins it:
// the stale node must catch up from the current primaries (snapshot +
// repair), ending byte- and version-identical — never reintroducing its
// stale state.
func TestRejoinWithStaleWAL(t *testing.T) {
	c, nodes := testCluster(t, 3, Config{Replicas: 2, Boundaries: testBoundaries})
	s := c.NewSession()
	for i := 0; i < 100; i++ {
		if err := s.Put(spreadRow(i), "doc", "content", []byte(fmt.Sprintf("old%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	quiesce(t, c)
	// n2 dies with whatever state it had (its "stale WAL").
	nodes["n2"].Down()
	if err := c.FailNode("n2"); err != nil {
		t.Fatal(err)
	}
	// Overwrite everything while n2 is gone, so every cell it froze is
	// stale, plus add new rows.
	for i := 0; i < 150; i++ {
		if err := s.Put(spreadRow(i), "doc", "content", []byte(fmt.Sprintf("new%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	quiesce(t, c)

	nodes["n2"].Up()
	if err := c.Rejoin("n2"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Rebalance(); err != nil {
		t.Fatal(err)
	}
	quiesce(t, c)

	// Every region n2 now holds must be identical — values AND versions
	// — to the region's primary.
	held := 0
	for _, r := range c.Status().Regions {
		var primary string
		holdsIt := false
		for _, rep := range r.Replicas {
			if rep.Primary {
				primary = rep.Node
			}
			if rep.Node == "n2" {
				holdsIt = true
			}
		}
		if !holdsIt {
			continue
		}
		held++
		want := scanRange(nodes[primary], r.Start, r.End)
		got := scanRange(nodes["n2"], r.Start, r.End)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("region %s diverged on rejoined node: primary %s has %d cells, n2 has %d",
				r.ID, primary, len(want), len(got))
		}
	}
	if held == 0 {
		t.Fatal("rebalance never placed a region on the rejoined node")
	}
	// And the session must see only the new values.
	for i := 0; i < 150; i++ {
		got, ok := s.Get(spreadRow(i), "doc", "content")
		if !ok || string(got) != fmt.Sprintf("new%d", i) {
			t.Fatalf("stale value resurfaced at %s: %q", spreadRow(i), got)
		}
	}
}

// TestReadYourWritesAcrossFailover pins a session to its own WAL
// sequence: after the primary dies before replicating, reads must wait
// for the promoted backup to receive the acknowledged write through the
// relay rather than serve older state.
func TestReadYourWritesAcrossFailover(t *testing.T) {
	c, nodes := testCluster(t, 2, Config{
		Replicas:       2,
		Boundaries:     testBoundaries,
		RepairInterval: -1, // only the relay may converge this test
	})
	s := c.NewSession()
	region, primary := c.PrimaryFor("a-1")
	backup := "n1"
	if primary == "n1" {
		backup = "n2"
	}
	// The backup is unreachable while the write lands: the intent is
	// journaled durably, delivery keeps failing.
	nodes[backup].Down()
	if err := s.Put("a-1", "doc", "content", []byte("pinned")); err != nil {
		t.Fatal(err)
	}
	// Primary dies; backup comes back stale and gets promoted.
	nodes[primary].Down()
	nodes[backup].Up()
	if err := c.FailNode(primary); err != nil {
		t.Fatal(err)
	}
	if _, p := c.PrimaryFor("a-1"); p != backup {
		t.Fatalf("expected %s promoted for %s, got %s", backup, region, p)
	}
	// The session's read must block until the relay redelivers the
	// acknowledged record to the promotee, then see its own write.
	got, ok := s.Get("a-1", "doc", "content")
	if !ok || string(got) != "pinned" {
		t.Fatalf("read-your-writes across failover: got %q ok=%v", got, ok)
	}
}

func TestStatusPersistAndOfflineRead(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, StatusFileName)
	c, _ := testCluster(t, 3, Config{Replicas: 2, Boundaries: testBoundaries, StatusPath: path})
	s := c.NewSession()
	for i := 0; i < 30; i++ {
		if err := s.Put(spreadRow(i), "doc", "content", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	quiesce(t, c)
	if err := c.FailNode("n3"); err != nil {
		t.Fatal(err)
	}
	// Offline read via the directory path form.
	st, err := ReadStatusFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Replicas != 2 || len(st.Regions) != len(testBoundaries)+1 {
		t.Fatalf("bad persisted status: %+v", st)
	}
	aliveByID := map[string]bool{}
	for _, n := range st.Nodes {
		aliveByID[n.ID] = n.Alive
	}
	if aliveByID["n3"] {
		t.Fatal("persisted status still shows n3 alive")
	}
	if st.Render() == "" {
		t.Fatal("empty render")
	}
}

func TestDefaultBoundaries(t *testing.T) {
	if got := DefaultBoundaries(1); got != nil {
		t.Fatalf("DefaultBoundaries(1) = %v", got)
	}
	bs := DefaultBoundaries(4)
	if len(bs) != 3 {
		t.Fatalf("DefaultBoundaries(4) = %v", bs)
	}
	if err := validateBoundaries(bs); err != nil {
		t.Fatal(err)
	}
	if err := validateBoundaries([]string{"b", "a"}); err == nil {
		t.Fatal("descending boundaries accepted")
	}
	if err := validateBoundaries([]string{""}); err == nil {
		t.Fatal("empty boundary accepted")
	}
}

func TestRemoveNodeDrainsGracefully(t *testing.T) {
	c, nodes := testCluster(t, 3, Config{Replicas: 2, Boundaries: testBoundaries})
	s := c.NewSession()
	for i := 0; i < 120; i++ {
		if err := s.Put(spreadRow(i), "doc", "content", []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	quiesce(t, c)
	if err := c.RemoveNode("n1"); err != nil {
		t.Fatal(err)
	}
	for _, r := range c.Status().Regions {
		for _, rep := range r.Replicas {
			if rep.Node == "n1" {
				t.Fatalf("drained node still holds %s", r.ID)
			}
		}
	}
	quiesce(t, c)
	for i := 0; i < 120; i++ {
		got, ok := s.Get(spreadRow(i), "doc", "content")
		if !ok || string(got) != fmt.Sprintf("v%d", i) {
			t.Fatalf("write lost across drain: %s", spreadRow(i))
		}
	}
	_ = nodes
}

// scanRange reads one region's cells (with versions) straight off a
// node's table, bypassing routing — the ground truth for divergence
// checks.
func scanRange(n *Node, start, end string) []pool.KeyValue {
	return n.Table().Scan(pool.ScanOptions{StartRow: start, EndRow: end})
}

// assertReplicasConverged verifies that after quiesce every live replica
// of every region holds exactly the primary's cells, versions included.
func assertReplicasConverged(t *testing.T, c *Cluster, nodes map[string]*Node) {
	t.Helper()
	for _, r := range c.Status().Regions {
		var primary string
		for _, rep := range r.Replicas {
			if rep.Primary {
				primary = rep.Node
			}
		}
		want := scanRange(nodes[primary], r.Start, r.End)
		for _, rep := range r.Replicas {
			if rep.Primary || !rep.Alive {
				continue
			}
			got := scanRange(nodes[rep.Node], r.Start, r.End)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("region %s: replica %s diverged from primary %s (%d vs %d cells)",
					r.ID, rep.Node, primary, len(got), len(want))
			}
		}
	}
}

// TestMutateIsOneReplicatedRecord: a row mutation of several cells is one
// acknowledged write, one region sequence number and one version; every
// replica ends up with all of its cells, the deletion included.
func TestMutateIsOneReplicatedRecord(t *testing.T) {
	c, nodes := testCluster(t, 3, Config{Replicas: 3, Boundaries: testBoundaries})
	s := c.NewSession()
	if err := s.Put("a-1", "meta", "stale", []byte("old")); err != nil {
		t.Fatal(err)
	}
	writes := mWrites.Value()
	region, _ := c.PrimaryFor("a-1")
	before := s.need(region)
	if err := s.Mutate(context.Background(), "a-1", []pool.CellMutation{
		{Family: "doc", Qualifier: "content", Value: []byte("hop")},
		{Family: "meta", Qualifier: "cers", Value: []byte("1")},
		{Family: "meta", Qualifier: "stale", Del: true},
	}); err != nil {
		t.Fatal(err)
	}
	if got := mWrites.Value() - writes; got != 1 {
		t.Fatalf("one mutation counted as %d replicated writes", got)
	}
	if got := s.need(region) - before; got != 1 {
		t.Fatalf("one mutation consumed %d sequence numbers", got)
	}
	if err := s.Mutate(context.Background(), "a-1", nil); err == nil {
		t.Fatal("empty mutation acknowledged")
	}
	quiesce(t, c)
	for id, n := range nodes {
		row := n.Table().GetRow("a-1")
		if len(row) != 2 || row[0].Version != row[1].Version {
			t.Fatalf("node %s holds %+v, want doc:content and meta:cers at one version", id, row)
		}
	}
}

// TestCoordinatorRestartContinuesRegionSequences: a coordinator restarted
// over nodes that stayed up must number its writes above what they have
// applied. Starting every region at zero, its first writes per region were
// acknowledged by the nodes as duplicates and dropped.
func TestCoordinatorRestartContinuesRegionSequences(t *testing.T) {
	c, nodes := testCluster(t, 3, Config{Replicas: 2, Boundaries: testBoundaries})
	s := c.NewSession()
	for i := 0; i < 3; i++ {
		if err := s.Put("a-1", "doc", "content", []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	quiesce(t, c)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	refs := []NodeRef{nodes["n1"], nodes["n2"], nodes["n3"]}
	c2, err := New(refs, Config{Replicas: 2, Boundaries: testBoundaries, Relay: fastRelay()})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	s2 := c2.NewSession()
	if err := s2.Mutate(context.Background(), "a-1", []pool.CellMutation{
		{Family: "doc", Qualifier: "content", Value: []byte("after restart")},
	}); err != nil {
		t.Fatal(err)
	}
	if got, ok := s2.Get("a-1", "doc", "content"); !ok || string(got) != "after restart" {
		t.Fatalf("write acknowledged by the restarted coordinator reads back %q, %v", got, ok)
	}
	quiesce(t, c2)
	assertReplicasConverged(t, c2, nodes)
}

// gatedRef is a Node whose replication inlet can be shut (Apply then
// fails like a partitioned node's) and which reports the applied-mark
// probes it serves and the reads it refuses with ErrBehind.
type gatedRef struct {
	*Node
	shut   atomic.Bool
	probes atomic.Int64
	behind chan struct{} // one token per ErrBehind answer, never blocking
}

func (g *gatedRef) Apply(ctx context.Context, rec Record) error {
	if g.shut.Load() {
		return fmt.Errorf("%w: %s inlet shut", ErrNodeDown, g.ID())
	}
	return g.Node.Apply(ctx, rec)
}

func (g *gatedRef) AppliedSeq(region string) (uint64, error) {
	g.probes.Add(1)
	return g.Node.AppliedSeq(region)
}

func (g *gatedRef) Get(ctx context.Context, at Barrier, row, family, qualifier string) ([]byte, bool, error) {
	v, ok, err := g.Node.Get(ctx, at, row, family, qualifier)
	if errors.Is(err, ErrBehind) {
		select {
		case g.behind <- struct{}{}:
		default:
		}
	}
	return v, ok, err
}

// TestSessionReadStatesItsBarrier: on a healthy cluster a session read is
// one call to the primary with no applied-mark probe before it; a backup
// promoted before the relay has brought it the session's last write
// answers that call with ErrBehind, and the session then waits the gap
// out and still returns its own write.
func TestSessionReadStatesItsBarrier(t *testing.T) {
	refs := map[string]*gatedRef{}
	for _, id := range []string{"n1", "n2"} {
		refs[id] = &gatedRef{Node: testNode(t, id), behind: make(chan struct{}, 1)}
	}
	c, err := New([]NodeRef{refs["n1"], refs["n2"]}, Config{
		Replicas:       2,
		Boundaries:     testBoundaries,
		Relay:          fastRelay(),
		RepairInterval: -1, // only the relay may converge this test
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := c.NewSession()
	region, primary := c.PrimaryFor("a-1")
	backup := "n1"
	if primary == "n1" {
		backup = "n2"
	}

	if err := s.Put("a-1", "doc", "content", []byte("first")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if got, ok := s.Get("a-1", "doc", "content"); !ok || string(got) != "first" {
			t.Fatalf("read %q ok=%v", got, ok)
		}
		if kvs := s.Scan(pool.ScanOptions{Family: "doc"}); len(kvs) != 1 {
			t.Fatalf("scan = %+v", kvs)
		}
	}
	if n := refs[primary].probes.Load() + refs[backup].probes.Load(); n != 0 {
		t.Fatalf("reads of a caught-up primary made %d applied-mark probes, want 0", n)
	}

	// The next write reaches the primary only; then the primary dies and
	// the backup is promoted short of it.
	refs[backup].shut.Store(true)
	if err := s.Put("a-1", "doc", "content", []byte("pinned")); err != nil {
		t.Fatal(err)
	}
	refs[primary].Down()
	if err := c.FailNode(primary); err != nil {
		t.Fatal(err)
	}
	if _, p := c.PrimaryFor("a-1"); p != backup {
		t.Fatalf("expected %s promoted for %s, got %s", backup, region, p)
	}
	type result struct {
		v  []byte
		ok bool
	}
	read := make(chan result, 1)
	go func() {
		v, ok := s.Get("a-1", "doc", "content")
		read <- result{v, ok}
	}()
	select {
	case <-refs[backup].behind:
	case r := <-read:
		t.Fatalf("lagging promotee served %q ok=%v instead of answering ErrBehind", r.v, r.ok)
	}
	refs[backup].shut.Store(false) // the relay's next redelivery gets through
	if r := <-read; !r.ok || string(r.v) != "pinned" {
		t.Fatalf("session read after ErrBehind: got %q ok=%v", r.v, r.ok)
	}
}
