package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dra4wfms/internal/pool"
	"dra4wfms/internal/poolcluster"
	"dra4wfms/internal/relay"
)

// newPoolNode builds an in-process pool node with the standard document
// families, served over a live HTTP listener, plus the RemoteNode handle
// a coordinator would hold.
func newPoolNode(t *testing.T, id string) (*poolcluster.Node, *httptest.Server, *RemoteNode) {
	t.Helper()
	tbl, err := pool.NewTable("docs", pool.FamilySpec{Name: "doc"}, pool.FamilySpec{Name: "meta"})
	if err != nil {
		t.Fatal(err)
	}
	node := poolcluster.NewNode(id, tbl)
	srv := httptest.NewServer(NewPoolNodeServer(node).Handler())
	t.Cleanup(srv.Close)
	remote := NewRemoteNode(id, srv.URL)
	remote.Client = srv.Client()
	return node, srv, remote
}

func fastClusterConfig() poolcluster.Config {
	return poolcluster.Config{
		Replicas:   2,
		Boundaries: []string{"e", "j", "o", "t"},
		Relay: relay.Config{
			Backoff: relay.BackoffPolicy{Base: 2 * time.Millisecond, Cap: 20 * time.Millisecond},
			Breaker: relay.BreakerPolicy{Threshold: 1000, Cooldown: 10 * time.Millisecond},
		},
	}
}

// TestRemoteNodeClusterRoundTrip drives a whole cluster through the HTTP
// plane: three drapool-shaped servers, RemoteNode handles, replicated
// writes, read-your-writes reads, scans, deletes — then kills one node's
// listener mid-run and checks writes keep succeeding and the survivors
// converge. This is the wire-level twin of the in-process tests in
// internal/poolcluster.
func TestRemoteNodeClusterRoundTrip(t *testing.T) {
	nodes := make(map[string]*poolcluster.Node)
	servers := make(map[string]*httptest.Server)
	var refs []poolcluster.NodeRef
	for i := 1; i <= 3; i++ {
		id := fmt.Sprintf("n%d", i)
		node, srv, remote := newPoolNode(t, id)
		nodes[id] = node
		servers[id] = srv
		refs = append(refs, remote)
	}
	c, err := poolcluster.New(refs, fastClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	s := c.NewSession()
	const n = 60
	for i := 0; i < n; i++ {
		row := fmt.Sprintf("%c-%05d", 'a'+i%20, i)
		if err := s.Put(row, "doc", "content", []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("put %s: %v", row, err)
		}
		got, ok := s.Get(row, "doc", "content")
		if !ok || string(got) != fmt.Sprintf("v%d", i) {
			t.Fatalf("read-your-writes over HTTP violated at %s: got %q ok=%v", row, got, ok)
		}
	}
	if kvs := s.Scan(pool.ScanOptions{Prefix: "a-", Family: "doc"}); len(kvs) != 3 {
		t.Fatalf("scan prefix a- = %d cells, want 3", len(kvs))
	}
	if err := s.Delete("a-00000", "doc", "content"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, ok := s.Get("a-00000", "doc", "content"); ok {
		t.Fatal("deleted cell still visible")
	}

	// Kill the node that owns the next row's region: the listener closes,
	// every RPC to it becomes a transport error, and the coordinator must
	// classify that as ErrNodeDown and fail over.
	killRow := "b-90001"
	_, victim := c.PrimaryFor(killRow)
	servers[victim].Close()
	for i := 0; i < 40; i++ {
		row := fmt.Sprintf("b-9%04d", i)
		if err := s.Put(row, "doc", "content", []byte("post-kill")); err != nil {
			t.Fatalf("put %s after killing %s: %v", row, victim, err)
		}
		got, ok := s.Get(row, "doc", "content")
		if !ok || string(got) != "post-kill" {
			t.Fatalf("read-your-writes after failover violated at %s", row)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := c.Quiesce(ctx); err != nil {
		t.Fatalf("quiesce: %v", err)
	}
	for _, nv := range c.Status().Nodes {
		if nv.ID == victim {
			if nv.Alive {
				t.Fatalf("killed node %s still marked alive", victim)
			}
			if nv.Primaries != 0 {
				t.Fatalf("killed node %s still leads %d regions", victim, nv.Primaries)
			}
		}
	}
}

// TestRemoteNodeErrorClassification pins the contract failover depends
// on: transport failures and 5xx wrap poolcluster.ErrNodeDown (suspect +
// retry), application rejections come back relay.Permanent (dead-letter,
// never retried).
func TestRemoteNodeErrorClassification(t *testing.T) {
	node, srv, remote := newPoolNode(t, "n1")

	// A down node answers 503, which must round-trip to ErrNodeDown.
	node.Down()
	err := remote.Apply(context.Background(), poolcluster.Record{Region: "region-0000", Seq: 1})
	if !errors.Is(err, poolcluster.ErrNodeDown) {
		t.Fatalf("apply to down node = %v, want ErrNodeDown", err)
	}
	if relay.IsPermanent(err) {
		t.Fatalf("down-node error classified permanent: %v", err)
	}
	node.Up()

	// A structurally invalid record (zero seq) is an application
	// rejection: permanent, and NOT a liveness verdict.
	err = remote.Apply(context.Background(), poolcluster.Record{Region: "region-0000", Seq: 0})
	if err == nil || !relay.IsPermanent(err) {
		t.Fatalf("bad-frame apply = %v, want permanent", err)
	}
	if errors.Is(err, poolcluster.ErrNodeDown) {
		t.Fatalf("bad-frame apply misclassified as node-down: %v", err)
	}

	// A read whose barrier the node has not reached is 409 and must
	// round-trip to ErrBehind — neither a liveness verdict nor permanent.
	ahead := poolcluster.Barrier{Region: "region-0000", Seq: 1}
	_, err = remote.GetRow(ahead, "a-1")
	if !errors.Is(err, poolcluster.ErrBehind) || errors.Is(err, poolcluster.ErrNodeDown) || relay.IsPermanent(err) {
		t.Fatalf("read ahead of the applied mark = %v, want ErrBehind", err)
	}
	if _, err := remote.Scan(context.Background(), ahead, pool.ScanOptions{}); !errors.Is(err, poolcluster.ErrBehind) {
		t.Fatalf("scan ahead of the applied mark = %v, want ErrBehind", err)
	}
	if _, _, err := remote.Get(context.Background(), poolcluster.Barrier{Region: "region-0000"}, "a-1", "doc", "content"); err != nil {
		t.Fatalf("read with an empty barrier = %v", err)
	}

	// A dead listener is a transport failure → ErrNodeDown.
	srv.Close()
	if _, err := remote.AppliedSeq("region-0000"); !errors.Is(err, poolcluster.ErrNodeDown) {
		t.Fatalf("applied-seq against closed listener = %v, want ErrNodeDown", err)
	}
}

// TestRemoteNodeSnapshotImport checks the bulk path survives the wire,
// including versions (convergence depends on byte- and version-identical
// replicas).
func TestRemoteNodeSnapshotImport(t *testing.T) {
	_, _, src := newPoolNode(t, "src")
	_, _, dst := newPoolNode(t, "dst")

	frame1, err := pool.EncodeMutationFrame(1, pool.Mutation{Row: "a-1", Version: 7, Cells: []pool.CellMutation{
		{Family: "doc", Qualifier: "content", Value: []byte("x")}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Apply(context.Background(), poolcluster.Record{Region: "r", Seq: 1, Frame: frame1}); err != nil {
		t.Fatal(err)
	}
	kvs, seq, err := src.Snapshot("r", "", "")
	if err != nil || seq != 1 || len(kvs) != 1 {
		t.Fatalf("snapshot = %d kvs seq=%d err=%v", len(kvs), seq, err)
	}
	if err := dst.Import("r", kvs, seq); err != nil {
		t.Fatalf("import: %v", err)
	}
	applied, err := dst.AppliedSeq("r")
	if err != nil || applied != 1 {
		t.Fatalf("imported applied = %d err=%v, want 1", applied, err)
	}
	row, err := dst.GetRow(poolcluster.Barrier{}, "a-1")
	if err != nil || len(row) != 1 || row[0].Version != 7 || string(row[0].Value) != "x" {
		t.Fatalf("imported row = %+v err=%v, want one cell, version 7 value x", row, err)
	}
	if recs, complete, err := src.RecordsSince("r", 0); err != nil || !complete || len(recs) != 1 {
		t.Fatalf("records since 0 = %d complete=%v err=%v", len(recs), complete, err)
	}
	st, err := src.Status()
	if err != nil || st.ID != "src" || len(st.Regions) != 1 || st.Regions[0].Applied != 1 {
		t.Fatalf("status = %+v err=%v", st, err)
	}
}

// TestPortalClusterRoutes checks the portal's operator-facing cluster
// endpoints: the directory JSON, the ?row= primary lookup the failover
// drill uses, and rebalance.
func TestPortalClusterRoutes(t *testing.T) {
	var refs []poolcluster.NodeRef
	for i := 1; i <= 3; i++ {
		node, _, _ := newPoolNode(t, fmt.Sprintf("n%d", i))
		refs = append(refs, node)
	}
	c, err := poolcluster.New(refs, fastClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	srv := httptest.NewServer((&PortalServer{Cluster: c}).Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/cluster/status")
	if err != nil {
		t.Fatal(err)
	}
	var st poolcluster.ClusterStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(st.Nodes) != 3 || len(st.Regions) != 5 || st.Replicas != 2 {
		t.Fatalf("status = %d nodes %d regions replicas=%d", len(st.Nodes), len(st.Regions), st.Replicas)
	}

	resp, err = http.Get(srv.URL + "/v1/cluster/status?row=proc-0001")
	if err != nil {
		t.Fatal(err)
	}
	var who map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&who); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if who["region"] == "" || who["primary"] == "" {
		t.Fatalf("row lookup = %v, want region and primary", who)
	}

	resp, err = http.Post(srv.URL+"/v1/cluster/rebalance", ContentJSON, bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	var reb struct {
		Moves []poolcluster.Move `json:"moves"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || reb.Moves == nil {
		t.Fatalf("rebalance = %d moves=%v, want 200 with moves array", resp.StatusCode, reb.Moves)
	}
}

// TestReadyzDegradedTier exercises the three-state readiness contract:
// soft-check failures answer 200 {"status":"degraded"} so the instance
// stays in rotation, hard failures still answer 503, and hard outranks
// soft.
func TestReadyzDegradedTier(t *testing.T) {
	p := NewProbes()
	mux := http.NewServeMux()
	registerObservability(mux, false, p)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	p.SetReady(true)
	if code, body := probeStatus(t, srv.URL+"/v1/readyz"); code != http.StatusOK || body["status"] != "ready" {
		t.Fatalf("baseline readyz = %d %v", code, body)
	}

	lagging := true
	p.AddDegradedCheck("replication-lag", func() error {
		if lagging {
			return errors.New("replica n2 lags 12 records")
		}
		return nil
	})
	code, body := probeStatus(t, srv.URL+"/v1/readyz")
	if code != http.StatusOK || body["status"] != "degraded" || body["reason"] != "check replication-lag: replica n2 lags 12 records" {
		t.Fatalf("degraded readyz = %d %v, want 200 degraded with reason", code, body)
	}

	// A hard failure outranks the degraded verdict.
	hardDown := true
	p.AddCheck("cluster", func() error {
		if hardDown {
			return errors.New("region region-0001 has no live primary")
		}
		return nil
	})
	code, body = probeStatus(t, srv.URL+"/v1/readyz")
	if code != http.StatusServiceUnavailable || body["status"] != "unready" || body["reason"] != "check cluster: region region-0001 has no live primary" {
		t.Fatalf("hard-failure readyz = %d %v, want 503 unready", code, body)
	}

	hardDown = false
	if code, body = probeStatus(t, srv.URL+"/v1/readyz"); code != http.StatusOK || body["status"] != "degraded" {
		t.Fatalf("readyz after hard heal = %d %v, want degraded again", code, body)
	}
	lagging = false
	if code, body = probeStatus(t, srv.URL+"/v1/readyz"); code != http.StatusOK || body["status"] != "ready" {
		t.Fatalf("fully healed readyz = %d %v", code, body)
	}
}
