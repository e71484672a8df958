package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"dra4wfms/internal/pool"
	"dra4wfms/internal/poolcluster"
	"dra4wfms/internal/relay"
	"dra4wfms/internal/trace"
)

// Cluster-internal HTTP plane: PoolNodeServer exposes one pool node's
// replication and read endpoints, and RemoteNode is the coordinator-side
// client implementing poolcluster.NodeRef over it. Together they let a
// poolcluster.Cluster span drapool processes on different machines while
// the in-process tests and benchmarks keep using poolcluster.Node
// directly.
//
// The /v1/cluster/* endpoints are unauthenticated by design, like
// /v1/metrics: they are the replication fabric between pool nodes and
// the coordinator, deployed on a private cluster network, and signing
// every replicated record with enterprise keys would conflate the
// inter-enterprise trust boundary (the portal/TFC APIs) with the
// intra-deployment one. Do not expose a drapool listener publicly.
//
// Wire conventions: every endpoint speaks JSON. Range boundaries travel
// as base64 []byte fields because DefaultBoundaries may produce
// non-UTF-8 byte strings that a JSON string would silently corrupt;
// row keys are workflow identifiers ("proc-…", "tpl#…", "rec|…") and are
// always valid UTF-8.

// maxClusterBody bounds request bodies on the node endpoints. Snapshot
// imports carry whole regions, so the cap is generous.
const maxClusterBody = 64 << 20

// PoolNodeServer serves one poolcluster.Node over HTTP — the drapool
// daemon's API surface.
//
//	POST /v1/cluster/apply       ← replicated WAL record
//	POST /v1/cluster/applied     → region's contiguous applied mark
//	POST /v1/cluster/records     → retained catch-up records
//	POST /v1/cluster/snapshot    → region snapshot (live cells + seq)
//	POST /v1/cluster/import      ← snapshot seed
//	GET  /v1/cluster/node-status → replication progress per region
//	POST /v1/cluster/get|getrow|scan → reads from the local table
//	                               (409 while short of the read's barrier)
//
// plus the standard observability routes (/v1/metrics, /v1/healthz, …).
type PoolNodeServer struct {
	Node *poolcluster.Node
	// EnablePprof additionally serves /debug/pprof/* (see PortalServer).
	EnablePprof bool
	// Probes gates GET /v1/readyz (see PortalServer.Probes).
	Probes *Probes
}

// NewPoolNodeServer wraps node for serving.
func NewPoolNodeServer(node *poolcluster.Node) *PoolNodeServer {
	return &PoolNodeServer{Node: node}
}

// Handler returns the routed http.Handler, every route wrapped with the
// telemetry middleware so replicated applies join their originating
// write's trace.
func (s *PoolNodeServer) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, instrument(pattern, h))
	}
	route("POST /v1/cluster/apply", s.handleApply)
	route("POST /v1/cluster/applied", s.handleApplied)
	route("POST /v1/cluster/records", s.handleClusterRecords)
	route("POST /v1/cluster/snapshot", s.handleSnapshot)
	route("POST /v1/cluster/import", s.handleImport)
	route("GET /v1/cluster/node-status", s.handleNodeStatus)
	route("POST /v1/cluster/get", s.handleClusterGet)
	route("POST /v1/cluster/getrow", s.handleClusterGetRow)
	route("POST /v1/cluster/scan", s.handleClusterScan)
	registerObservability(mux, s.EnablePprof, s.Probes)
	return mux
}

// Wire shapes for the node endpoints. Region/row arguments ride in POST
// bodies rather than query strings so raw-byte range boundaries survive
// transit (base64 via []byte) and the route set stays uniform.
type (
	clusterRegionReq struct {
		Region string `json:"region"`
		After  uint64 `json:"after,omitempty"`
	}
	clusterAppliedResp struct {
		Applied uint64 `json:"applied"`
	}
	clusterRecordsResp struct {
		Records  []poolcluster.Record `json:"records"`
		Complete bool                 `json:"complete"`
	}
	clusterSnapshotReq struct {
		Region string `json:"region"`
		Start  []byte `json:"start"`
		End    []byte `json:"end"`
	}
	clusterSnapshotResp struct {
		KVs []pool.KeyValue `json:"kvs"`
		Seq uint64          `json:"seq"`
	}
	clusterImportReq struct {
		Region string          `json:"region"`
		KVs    []pool.KeyValue `json:"kvs"`
		Seq    uint64          `json:"seq"`
	}
	clusterCellReq struct {
		At        poolcluster.Barrier `json:"at"`
		Row       string              `json:"row"`
		Family    string              `json:"family,omitempty"`
		Qualifier string              `json:"qualifier,omitempty"`
	}
	clusterGetResp struct {
		Value []byte `json:"value"`
		Found bool   `json:"found"`
	}
	clusterKVsResp struct {
		KVs []pool.KeyValue `json:"kvs"`
	}
	clusterScanReq struct {
		At       poolcluster.Barrier `json:"at"`
		StartRow []byte              `json:"start_row,omitempty"`
		EndRow   []byte              `json:"end_row,omitempty"`
		Prefix   string              `json:"prefix,omitempty"`
		Family   string              `json:"family,omitempty"`
		Limit    int                 `json:"limit,omitempty"`
	}
)

// decodeClusterBody reads and unmarshals a node-endpoint request body,
// writing the 4xx itself when the body is unusable.
func decodeClusterBody(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxClusterBody))
	if err != nil {
		http.Error(w, "reading body: "+err.Error(), http.StatusRequestEntityTooLarge)
		return false
	}
	if err := json.Unmarshal(raw, v); err != nil {
		http.Error(w, "decoding body: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

// clusterError maps a node error onto the wire: a down node is 503 (the
// relay retries), a read the node is too far behind to serve is 409 (the
// session looks for a caught-up replica), anything else is an
// application-level rejection the client must treat as permanent.
func clusterError(w http.ResponseWriter, err error) {
	status := http.StatusUnprocessableEntity
	switch {
	case errors.Is(err, poolcluster.ErrNodeDown):
		status = http.StatusServiceUnavailable
	case errors.Is(err, poolcluster.ErrBehind):
		status = http.StatusConflict
	}
	w.Header().Set("Content-Type", ContentJSON)
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func (s *PoolNodeServer) handleApply(w http.ResponseWriter, r *http.Request) {
	var rec poolcluster.Record
	if !decodeClusterBody(w, r, &rec) {
		return
	}
	if err := s.Node.Apply(r.Context(), rec); err != nil {
		clusterError(w, err)
		return
	}
	writeJSON(w, map[string]string{"status": "applied"})
}

func (s *PoolNodeServer) handleApplied(w http.ResponseWriter, r *http.Request) {
	var req clusterRegionReq
	if !decodeClusterBody(w, r, &req) {
		return
	}
	applied, err := s.Node.AppliedSeq(req.Region)
	if err != nil {
		clusterError(w, err)
		return
	}
	writeJSON(w, clusterAppliedResp{Applied: applied})
}

func (s *PoolNodeServer) handleClusterRecords(w http.ResponseWriter, r *http.Request) {
	var req clusterRegionReq
	if !decodeClusterBody(w, r, &req) {
		return
	}
	recs, complete, err := s.Node.RecordsSince(req.Region, req.After)
	if err != nil {
		clusterError(w, err)
		return
	}
	if recs == nil {
		recs = []poolcluster.Record{}
	}
	writeJSON(w, clusterRecordsResp{Records: recs, Complete: complete})
}

func (s *PoolNodeServer) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	var req clusterSnapshotReq
	if !decodeClusterBody(w, r, &req) {
		return
	}
	kvs, seq, err := s.Node.Snapshot(req.Region, string(req.Start), string(req.End))
	if err != nil {
		clusterError(w, err)
		return
	}
	if kvs == nil {
		kvs = []pool.KeyValue{}
	}
	writeJSON(w, clusterSnapshotResp{KVs: kvs, Seq: seq})
}

func (s *PoolNodeServer) handleImport(w http.ResponseWriter, r *http.Request) {
	var req clusterImportReq
	if !decodeClusterBody(w, r, &req) {
		return
	}
	if err := s.Node.Import(req.Region, req.KVs, req.Seq); err != nil {
		clusterError(w, err)
		return
	}
	writeJSON(w, map[string]string{"status": "imported"})
}

func (s *PoolNodeServer) handleNodeStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.Node.Status()
	if err != nil {
		clusterError(w, err)
		return
	}
	writeJSON(w, st)
}

func (s *PoolNodeServer) handleClusterGet(w http.ResponseWriter, r *http.Request) {
	var req clusterCellReq
	if !decodeClusterBody(w, r, &req) {
		return
	}
	v, found, err := s.Node.Get(r.Context(), req.At, req.Row, req.Family, req.Qualifier)
	if err != nil {
		clusterError(w, err)
		return
	}
	writeJSON(w, clusterGetResp{Value: v, Found: found})
}

func (s *PoolNodeServer) handleClusterGetRow(w http.ResponseWriter, r *http.Request) {
	var req clusterCellReq
	if !decodeClusterBody(w, r, &req) {
		return
	}
	kvs, err := s.Node.GetRow(req.At, req.Row)
	if err != nil {
		clusterError(w, err)
		return
	}
	if kvs == nil {
		kvs = []pool.KeyValue{}
	}
	writeJSON(w, clusterKVsResp{KVs: kvs})
}

func (s *PoolNodeServer) handleClusterScan(w http.ResponseWriter, r *http.Request) {
	var req clusterScanReq
	if !decodeClusterBody(w, r, &req) {
		return
	}
	kvs, err := s.Node.Scan(r.Context(), req.At, pool.ScanOptions{
		StartRow: string(req.StartRow),
		EndRow:   string(req.EndRow),
		Prefix:   req.Prefix,
		Family:   req.Family,
		Limit:    req.Limit,
	})
	if err != nil {
		clusterError(w, err)
		return
	}
	if kvs == nil {
		kvs = []pool.KeyValue{}
	}
	writeJSON(w, clusterKVsResp{KVs: kvs})
}

// RemoteNode is poolcluster.NodeRef over HTTP: the coordinator's handle
// to a drapool process. Error classification is the contract that makes
// failover work: any transport failure or 5xx — the node unreachable,
// crashed, or refusing — comes back wrapped in poolcluster.ErrNodeDown
// so the cluster suspects the node and the relay retries; a 4xx is an
// application-level rejection wrapped relay.Permanent so replication
// dead-letters it instead of retrying a write that can never succeed —
// except 409, a read's poolcluster.ErrBehind, which comes back as itself.
type RemoteNode struct {
	id   string
	base string
	// Client is the HTTP client used for node calls; NewRemoteNode
	// installs one with a 15s timeout, which doubles as the transport-
	// level failure detector (a hung node times out and is suspected).
	Client *http.Client
}

// NewRemoteNode builds a handle to the drapool node with the given
// cluster ID listening at baseURL (e.g. "http://10.0.0.7:9201").
func NewRemoteNode(id, baseURL string) *RemoteNode {
	return &RemoteNode{
		id:     id,
		base:   strings.TrimRight(baseURL, "/"),
		Client: &http.Client{Timeout: 15 * time.Second},
	}
}

// ID returns the node's cluster-unique identifier.
func (n *RemoteNode) ID() string { return n.id }

// call performs one node RPC: marshal in (when non-nil), forward the
// caller's traceparent, classify the outcome per the RemoteNode
// contract, and unmarshal 200 bodies into out (when non-nil).
func (n *RemoteNode) call(ctx context.Context, method, path string, in, out interface{}) error {
	if ctx == nil {
		ctx = context.Background()
	}
	var body io.Reader
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return relay.Permanent(fmt.Errorf("httpapi: encoding %s request: %w", path, err))
		}
		body = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, n.base+path, body)
	if err != nil {
		return relay.Permanent(err)
	}
	if in != nil {
		req.Header.Set("Content-Type", ContentJSON)
	}
	if tp := trace.TraceparentFromContext(ctx); tp != "" {
		req.Header.Set(TraceparentHeader, tp)
	}
	AttachDeadline(ctx, req.Header)
	client := n.Client
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(req)
	if err != nil {
		return fmt.Errorf("%w: %s: %v", poolcluster.ErrNodeDown, n.id, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%w: %s: reading response: %v", poolcluster.ErrNodeDown, n.id, err)
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		if out == nil {
			return nil
		}
		if err := json.Unmarshal(raw, out); err != nil {
			return fmt.Errorf("%w: %s: undecodable %s response: %v", poolcluster.ErrNodeDown, n.id, path, err)
		}
		return nil
	case resp.StatusCode == http.StatusConflict:
		return fmt.Errorf("%w: %s: %s", poolcluster.ErrBehind, n.id, strings.TrimSpace(string(raw)))
	case resp.StatusCode >= 400 && resp.StatusCode < 500:
		return relay.Permanent(fmt.Errorf("httpapi: node %s rejected %s: %s", n.id, path, strings.TrimSpace(string(raw))))
	default:
		return fmt.Errorf("%w: %s: %s: %s", poolcluster.ErrNodeDown, n.id, resp.Status, strings.TrimSpace(string(raw)))
	}
}

// Apply delivers one replicated record.
func (n *RemoteNode) Apply(ctx context.Context, rec poolcluster.Record) error {
	return n.call(ctx, http.MethodPost, "/v1/cluster/apply", rec, nil)
}

// AppliedSeq reports the region's contiguous applied high-water mark.
func (n *RemoteNode) AppliedSeq(region string) (uint64, error) {
	var resp clusterAppliedResp
	err := n.call(nil, http.MethodPost, "/v1/cluster/applied", clusterRegionReq{Region: region}, &resp)
	return resp.Applied, err
}

// RecordsSince returns the retained records with seq > after.
func (n *RemoteNode) RecordsSince(region string, after uint64) ([]poolcluster.Record, bool, error) {
	var resp clusterRecordsResp
	err := n.call(nil, http.MethodPost, "/v1/cluster/records", clusterRegionReq{Region: region, After: after}, &resp)
	if err != nil {
		return nil, false, err
	}
	return resp.Records, resp.Complete, nil
}

// Snapshot returns the latest live cells in [start, end) plus the
// region's applied mark.
func (n *RemoteNode) Snapshot(region, start, end string) ([]pool.KeyValue, uint64, error) {
	var resp clusterSnapshotResp
	req := clusterSnapshotReq{Region: region, Start: []byte(start), End: []byte(end)}
	err := n.call(nil, http.MethodPost, "/v1/cluster/snapshot", req, &resp)
	if err != nil {
		return nil, 0, err
	}
	return resp.KVs, resp.Seq, nil
}

// Import seeds a region from a snapshot.
func (n *RemoteNode) Import(region string, kvs []pool.KeyValue, seq uint64) error {
	req := clusterImportReq{Region: region, KVs: kvs, Seq: seq}
	return n.call(nil, http.MethodPost, "/v1/cluster/import", req, nil)
}

// Status reports the node's replication progress.
func (n *RemoteNode) Status() (poolcluster.NodeStatus, error) {
	var st poolcluster.NodeStatus
	err := n.call(nil, http.MethodGet, "/v1/cluster/node-status", nil, &st)
	return st, err
}

// Get reads the newest value of one cell from the node's table.
func (n *RemoteNode) Get(ctx context.Context, at poolcluster.Barrier, row, family, qualifier string) ([]byte, bool, error) {
	var resp clusterGetResp
	req := clusterCellReq{At: at, Row: row, Family: family, Qualifier: qualifier}
	if err := n.call(ctx, http.MethodPost, "/v1/cluster/get", req, &resp); err != nil {
		return nil, false, err
	}
	return resp.Value, resp.Found, nil
}

// GetRow reads every live cell of a row.
func (n *RemoteNode) GetRow(at poolcluster.Barrier, row string) ([]pool.KeyValue, error) {
	var resp clusterKVsResp
	if err := n.call(nil, http.MethodPost, "/v1/cluster/getrow", clusterCellReq{At: at, Row: row}, &resp); err != nil {
		return nil, err
	}
	return resp.KVs, nil
}

// Scan runs a bounded range scan on the node's table. Filter cannot
// cross the wire and must be nil (poolcluster.Session applies filters
// client-side before delegating here).
func (n *RemoteNode) Scan(ctx context.Context, at poolcluster.Barrier, opts pool.ScanOptions) ([]pool.KeyValue, error) {
	if opts.Filter != nil {
		return nil, relay.Permanent(errors.New("httpapi: scan filter cannot cross the wire"))
	}
	var resp clusterKVsResp
	req := clusterScanReq{
		At:       at,
		StartRow: []byte(opts.StartRow),
		EndRow:   []byte(opts.EndRow),
		Prefix:   opts.Prefix,
		Family:   opts.Family,
		Limit:    opts.Limit,
	}
	if err := n.call(ctx, http.MethodPost, "/v1/cluster/scan", req, &resp); err != nil {
		return nil, err
	}
	return resp.KVs, nil
}

var _ poolcluster.NodeRef = (*RemoteNode)(nil)

// ParseClusterNodes parses the -cluster-nodes flag format
// "id=url,id=url,…" into coordinator handles. Listing order matters: the
// cluster assigns region leadership round-robin in this order, so every
// coordinator in a deployment must list the nodes identically.
func ParseClusterNodes(spec string) ([]poolcluster.NodeRef, error) {
	var refs []poolcluster.NodeRef
	seen := make(map[string]bool)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, url, ok := strings.Cut(part, "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("httpapi: bad cluster node %q, want id=url", part)
		}
		if seen[id] {
			return nil, fmt.Errorf("httpapi: duplicate cluster node ID %q", id)
		}
		seen[id] = true
		refs = append(refs, NewRemoteNode(id, url))
	}
	if len(refs) == 0 {
		return nil, errors.New("httpapi: no cluster nodes given")
	}
	return refs, nil
}
