package chaos

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dra4wfms/internal/pool"
	"dra4wfms/internal/poolcluster"
)

// Two networks with the same seed and the same fault profile must judge
// an identical verdict sequence — the property every scenario replay
// rests on.
func TestDeterministicReplay(t *testing.T) {
	mk := func() *Network {
		n := NewNetwork(42)
		n.SetDefault(LinkFaults{Drop: 0.3, Dup: 0.2, Corrupt: 0.1, Latency: time.Millisecond, Jitter: 3 * time.Millisecond})
		return n
	}
	a, b := mk(), mk()
	for i := 0; i < 500; i++ {
		va, vb := a.Judge("x", "y"), b.Judge("x", "y")
		if va != vb {
			t.Fatalf("verdict %d diverged: %+v vs %+v", i, va, vb)
		}
	}
}

func TestCutsAndIsolation(t *testing.T) {
	n := NewNetwork(1)
	if v := n.Judge("a", "b"); v.Drop {
		t.Fatal("fault-free network dropped a hop")
	}
	n.Cut("a", "b")
	if v := n.Judge("a", "b"); !v.Drop {
		t.Fatal("cut link did not drop")
	}
	if v := n.Judge("b", "a"); v.Drop {
		t.Fatal("asymmetric cut severed the reverse direction")
	}
	n.Heal("a", "b")
	if v := n.Judge("a", "b"); v.Drop {
		t.Fatal("healed link still drops")
	}

	n.Isolate("c")
	if !n.InboundCut("c") {
		t.Fatal("isolated node reports inbound open")
	}
	for _, pair := range [][2]string{{"a", "c"}, {"c", "a"}, {"c", "b"}} {
		if v := n.Judge(pair[0], pair[1]); !v.Drop {
			t.Fatalf("isolation left %s → %s up", pair[0], pair[1])
		}
	}
	if v := n.Judge("a", "b"); v.Drop {
		t.Fatal("isolating c partitioned a → b")
	}
	n.HealNode("c")
	if n.InboundCut("c") || n.Judge("a", "c").Drop {
		t.Fatal("HealNode did not restore the isolated node")
	}

	n.Crash("d")
	if v := n.Judge("a", "d"); !v.Drop {
		t.Fatal("crashed node still reachable")
	}
	n.Restart("d")
	if v := n.Judge("a", "d"); v.Drop {
		t.Fatal("restarted node unreachable")
	}
}

func TestLinkFaultPrecedence(t *testing.T) {
	n := NewNetwork(7)
	n.SetDefault(LinkFaults{Drop: 1})
	n.SetLink("a", Wildcard, LinkFaults{})
	if v := n.Judge("a", "anyone"); v.Drop {
		t.Fatal("(src, *) override not applied")
	}
	n.SetLink("a", "b", LinkFaults{Drop: 1})
	if v := n.Judge("a", "b"); !v.Drop {
		t.Fatal("exact link override not preferred over wildcard")
	}
	if v := n.Judge("c", "d"); !v.Drop {
		t.Fatal("default profile not applied")
	}
}

func TestRoundTripperDropDupCorrupt(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		io.Copy(io.Discard, r.Body)
		w.Write([]byte("payload-abcdefgh"))
	}))
	defer srv.Close()

	n := NewNetwork(3)
	resolve := func(*http.Request) string { return "srv" }
	client := &http.Client{Transport: n.RoundTripper("cli", resolve, nil, nil)}

	// Clean hop.
	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatalf("clean hop: %v", err)
	}
	resp.Body.Close()

	// Drop: transport error, server never sees it.
	n.SetLink("cli", "srv", LinkFaults{Drop: 1})
	before := hits.Load()
	if _, err := client.Get(srv.URL); err == nil {
		t.Fatal("dropped hop returned no error")
	} else if !Injected(errors.Unwrap(err)) && !strings.Contains(err.Error(), "chaos") {
		t.Fatalf("drop error does not identify chaos: %v", err)
	}
	if hits.Load() != before {
		t.Fatal("dropped request reached the server")
	}

	// Dup: server sees the request twice, client sees one response.
	n.SetLink("cli", "srv", LinkFaults{Dup: 1})
	before = hits.Load()
	req, _ := http.NewRequest(http.MethodPost, srv.URL, bytes.NewReader([]byte("body")))
	resp, err = client.Do(req)
	if err != nil {
		t.Fatalf("dup hop: %v", err)
	}
	resp.Body.Close()
	if got := hits.Load() - before; got != 2 {
		t.Fatalf("dup hop hit the server %d times, want 2", got)
	}

	// Ack loss: the server handles the request, the client sees a
	// transport error.
	n.SetLink("cli", "srv", LinkFaults{AckLoss: 1})
	before = hits.Load()
	if _, err := client.Get(srv.URL); err == nil || !strings.Contains(err.Error(), "chaos: lost response") {
		t.Fatalf("ack-loss hop error = %v, want the injected lost response", err)
	}
	if got := hits.Load() - before; got != 1 {
		t.Fatalf("ack-loss hop hit the server %d times, want 1", got)
	}

	// Corrupt: the body differs from what the server sent.
	n.SetLink("cli", "srv", LinkFaults{Corrupt: 1})
	resp, err = client.Get(srv.URL)
	if err != nil {
		t.Fatalf("corrupt hop: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if bytes.Equal(body, []byte("payload-abcdefgh")) {
		t.Fatal("corrupt verdict delivered an intact body")
	}
	if len(body) != len("payload-abcdefgh") {
		t.Fatalf("corruption changed the length: %d", len(body))
	}
}

func TestRoundTripperDelayHonorsContext(t *testing.T) {
	n := NewNetwork(5)
	n.SetDefault(LinkFaults{Latency: time.Hour})
	rt := n.RoundTripper("cli", nil, http.DefaultTransport, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, "http://127.0.0.1:0/", nil)
	start := time.Now()
	if _, err := rt.RoundTrip(req); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expected deadline error, got %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("delay ignored the context deadline")
	}
}

func TestWrapListenerCrashRestart(t *testing.T) {
	n := NewNetwork(9)
	base := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}))
	base.Listener = n.WrapListener("node", base.Listener)
	base.Start()
	defer base.Close()

	if _, err := http.Get(base.URL); err != nil {
		t.Fatalf("healthy node refused: %v", err)
	}
	n.Crash("node")
	client := &http.Client{Timeout: 2 * time.Second}
	if _, err := client.Get(base.URL); err == nil {
		t.Fatal("crashed node served a request")
	}
	n.Restart("node")
	resp, err := http.Get(base.URL)
	if err != nil {
		t.Fatalf("restarted node refused: %v", err)
	}
	resp.Body.Close()
}

func TestGateAndAdminHandler(t *testing.T) {
	n := NewNetwork(11)
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/work", func(w http.ResponseWriter, r *http.Request) { w.Write([]byte("ok")) })
	mux.HandleFunc(AdminPath, n.Handler())
	srv := httptest.NewServer(n.Gate("node", mux))
	defer srv.Close()

	get := func(path string) int {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	post := func(body string) int {
		resp, err := http.Post(srv.URL+AdminPath, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST chaos: %v", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := get("/v1/work"); got != http.StatusOK {
		t.Fatalf("open gate returned %d", got)
	}
	if got := post(`{"action":"isolate","node":"node"}`); got != http.StatusOK {
		t.Fatalf("isolate directive returned %d", got)
	}
	if got := get("/v1/work"); got != http.StatusServiceUnavailable {
		t.Fatalf("partitioned gate returned %d, want 503", got)
	}
	// The control plane must stay reachable through the partition.
	if got := get(AdminPath); got != http.StatusOK {
		t.Fatalf("admin endpoint gated: %d", got)
	}
	if got := post(`{"action":"heal_node","node":"node"}`); got != http.StatusOK {
		t.Fatalf("heal directive returned %d", got)
	}
	if got := get("/v1/work"); got != http.StatusOK {
		t.Fatalf("healed gate returned %d", got)
	}
	if got := post(`{"action":"warp","node":"node"}`); got != http.StatusBadRequest {
		t.Fatalf("unknown action returned %d, want 400", got)
	}
}

func TestNodeRefPartitionAndDedup(t *testing.T) {
	tbl, err := pool.NewTable("t", pool.FamilySpec{Name: "doc"})
	if err != nil {
		t.Fatal(err)
	}
	node := poolcluster.NewNode("n1", tbl)

	n := NewNetwork(13)
	ref := n.NodeRef("coord", node)

	frame, err := pool.EncodeMutationFrame(1, pool.Mutation{Row: "r", Version: 1, Cells: []pool.CellMutation{
		{Family: "doc", Qualifier: "q", Value: []byte("v")},
	}})
	if err != nil {
		t.Fatal(err)
	}
	rec := poolcluster.Record{Region: "region-0001", Seq: 1, Frame: frame}

	// Duplicate delivery must be absorbed by the node's seq dedup.
	n.SetLink("coord", "n1", LinkFaults{Dup: 1})
	if err := ref.Apply(context.Background(), rec); err != nil {
		t.Fatalf("dup apply: %v", err)
	}
	if seq, _ := node.AppliedSeq("region-0001"); seq != 1 {
		t.Fatalf("applied seq %d after dup delivery, want 1", seq)
	}

	// Ack loss: the node applies the record, the caller is told it is down.
	frame2, err := pool.EncodeMutationFrame(2, pool.Mutation{Row: "r", Version: 2, Cells: []pool.CellMutation{
		{Family: "doc", Qualifier: "q", Value: []byte("v2")},
	}})
	if err != nil {
		t.Fatal(err)
	}
	n.SetLink("coord", "n1", LinkFaults{AckLoss: 1})
	rec2 := poolcluster.Record{Region: "region-0001", Seq: 2, Frame: frame2}
	if err := ref.Apply(context.Background(), rec2); !errors.Is(err, poolcluster.ErrNodeDown) {
		t.Fatalf("ack-loss apply error %v, want ErrNodeDown", err)
	}
	if seq, _ := node.AppliedSeq("region-0001"); seq != 2 {
		t.Fatalf("applied seq %d after ack-loss delivery, want 2", seq)
	}
	n.ClearLink("coord", "n1")

	// Partition: every call fails with ErrNodeDown so the coordinator's
	// failover path fires exactly as for a dead process.
	n.Isolate("n1")
	if err := ref.Apply(context.Background(), rec); !errors.Is(err, poolcluster.ErrNodeDown) {
		t.Fatalf("partitioned apply error %v, want ErrNodeDown", err)
	}
	if _, err := ref.Status(); !errors.Is(err, poolcluster.ErrNodeDown) {
		t.Fatalf("partitioned status error %v, want ErrNodeDown", err)
	}
	n.HealNode("n1")
	if _, err := ref.Status(); err != nil {
		t.Fatalf("healed status: %v", err)
	}
}
