// Package poolcluster turns the single-process document pool of
// internal/pool into a clustered one: a range directory places each
// region's key span on one of N pool nodes, every mutation is applied
// synchronously on the region's primary and replicated to its backups as
// CRC-framed WAL records carried over the internal/relay durable-delivery
// machinery, and regions migrate between nodes on join, leave, and death.
// See DESIGN.md "Clustered pool" for the protocol and its guarantees.
package poolcluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"dra4wfms/internal/pool"
)

// ErrNodeDown is returned by a Node whose process is (simulated or
// really) dead. The relay treats it as retryable; the cluster treats it
// as a failover trigger.
var ErrNodeDown = errors.New("poolcluster: node is down")

// ErrBehind is a node's answer to a read whose Barrier it has not reached:
// the node is healthy, but serving the read would show the caller a state
// older than its own acknowledged writes.
var ErrBehind = errors.New("poolcluster: replica is behind the read barrier")

// errBadFrame marks an undecodable replication frame; the transport maps
// it to a permanent relay failure (retrying corruption is pointless).
var errBadFrame = errors.New("poolcluster: bad replication frame")

// Record is one replicated row mutation: the coordinator's per-region
// sequence number plus the CRC-framed WAL record (pool.EncodeMutationFrame)
// carrying the row's cells and their coordinator-assigned version.
type Record struct {
	Region string `json:"region"`
	Seq    uint64 `json:"seq"`
	Frame  []byte `json:"frame"`
}

// RegionApplied is one region's replication progress on one node.
type RegionApplied struct {
	Region string `json:"region"`
	// Applied is the contiguous high-water mark: every record with
	// seq <= Applied has been applied to the local table.
	Applied uint64 `json:"applied"`
	// Pending counts records received out of order, parked until the
	// gap before them arrives.
	Pending int `json:"pending"`
}

// NodeStatus is a node's self-reported state.
type NodeStatus struct {
	ID string `json:"id"`
	// MaxVersion is the node table's logical version clock; the
	// coordinator seeds its global clock from the cluster-wide maximum.
	MaxVersion int64           `json:"max_version"`
	Regions    []RegionApplied `json:"regions,omitempty"`
}

// NodeRef is the coordinator's handle to one pool node, local
// (in-process *Node) or remote (httpapi.RemoteNode over HTTP). All
// methods are safe for concurrent use.
type NodeRef interface {
	ID() string
	// Apply delivers one replicated record. Records may arrive out of
	// order and duplicated: the node applies them to its table in
	// sequence order and ignores records at or below its applied mark.
	Apply(ctx context.Context, rec Record) error
	// AppliedSeq reports the region's contiguous applied high-water mark.
	AppliedSeq(region string) (uint64, error)
	// RecordsSince returns the retained records with seq > after, in
	// order. complete is false when the node's bounded log no longer
	// reaches back to after+1 (the caller must fall back to a snapshot).
	RecordsSince(region string, after uint64) (recs []Record, complete bool, err error)
	// Snapshot returns the latest live cells in [start, end) plus the
	// region's applied mark at the time of the copy.
	Snapshot(region, start, end string) ([]pool.KeyValue, uint64, error)
	// Import seeds a region: applies kvs (versions preserved) and fast-
	// forwards the region's applied mark to seq.
	Import(region string, kvs []pool.KeyValue, seq uint64) error
	Status() (NodeStatus, error)

	// Reads, served from the node's local table once it has reached the
	// barrier; a node short of it answers ErrBehind instead of stale data.
	Get(ctx context.Context, at Barrier, row, family, qualifier string) ([]byte, bool, error)
	GetRow(at Barrier, row string) ([]pool.KeyValue, error)
	Scan(ctx context.Context, at Barrier, opts pool.ScanOptions) ([]pool.KeyValue, error)
}

// Barrier is what a read needs of the node serving it: Region's applied
// mark at or past Seq. It rides with the read, so a caught-up node — the
// common case — answers in one round trip with no applied-mark probe
// before it. The zero Barrier asks for nothing.
type Barrier struct {
	Region string `json:"region,omitempty"`
	Seq    uint64 `json:"seq,omitempty"`
}

// nodeRegionLog bounds the per-region catch-up log a node retains: a
// lagging replica that is further behind than this is reseeded from a
// snapshot instead of replayed record by record.
const nodeRegionLog = 4096

// nodeRegion is one region's replication state on one node.
type nodeRegion struct {
	applied uint64
	// pending parks out-of-order records until the gap closes.
	pending map[uint64]Record
	// log holds recently applied records for RecordsSince; logFrom is
	// the seq of log[0] (log covers [logFrom, applied]).
	log     []Record
	logFrom uint64
}

// Node is an in-process pool node: one table, replication bookkeeping
// per region, and a kill switch for failover drills. The same type backs
// the drapool daemon (fronted by httpapi's node endpoints) and the
// in-process clusters the tests and benchmarks build.
type Node struct {
	id    string
	table *pool.Table

	mu      sync.Mutex
	down    bool
	regions map[string]*nodeRegion
}

// NewNode wraps table as a cluster node. The table must declare every
// family the cluster's writers use.
func NewNode(id string, table *pool.Table) *Node {
	return &Node{id: id, table: table, regions: make(map[string]*nodeRegion)}
}

// ID returns the node's cluster-unique identifier.
func (n *Node) ID() string { return n.id }

// Table exposes the backing table (verification in tests and benchmarks).
func (n *Node) Table() *pool.Table { return n.table }

// Down simulates the node's process dying: every subsequent call fails
// with ErrNodeDown and the in-memory state is frozen as-is, which is
// exactly the "stale WAL" a killed process rejoins with.
func (n *Node) Down() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.down = true
}

// Up revives a downed node with whatever (stale) state it froze at.
func (n *Node) Up() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.down = false
}

func (n *Node) region(region string) *nodeRegion {
	r, ok := n.regions[region]
	if !ok {
		r = &nodeRegion{pending: make(map[uint64]Record), logFrom: 1}
		n.regions[region] = r
	}
	return r
}

// Apply ingests one replicated record. Out-of-order records are parked;
// records are applied to the table strictly in sequence order so the
// applied mark is always contiguous, and duplicates (seq <= applied) are
// acknowledged without re-applying — the relay's at-least-once delivery
// becomes exactly-once application.
func (n *Node) Apply(ctx context.Context, rec Record) error {
	_ = ctx
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down {
		return ErrNodeDown
	}
	if rec.Seq == 0 {
		return fmt.Errorf("%w: zero sequence", errBadFrame)
	}
	r := n.region(rec.Region)
	if rec.Seq <= r.applied {
		return nil // duplicate delivery
	}
	if _, _, err := pool.DecodeMutationFrame(rec.Frame); err != nil {
		return fmt.Errorf("%w: %v", errBadFrame, err)
	}
	r.pending[rec.Seq] = rec
	return n.drainLocked(r)
}

// drainLocked applies every contiguously available pending record.
func (n *Node) drainLocked(r *nodeRegion) error {
	for {
		next, ok := r.pending[r.applied+1]
		if !ok {
			return nil
		}
		_, m, err := pool.DecodeMutationFrame(next.Frame)
		if err != nil {
			return fmt.Errorf("%w: %v", errBadFrame, err)
		}
		if err := n.table.ApplyReplicated(m); err != nil {
			return err
		}
		delete(r.pending, next.Seq)
		r.applied = next.Seq
		r.log = append(r.log, next)
		if len(r.log) > nodeRegionLog {
			drop := len(r.log) - nodeRegionLog
			r.log = append([]Record(nil), r.log[drop:]...)
			r.logFrom += uint64(drop)
		}
	}
}

// AppliedSeq reports the region's contiguous applied mark.
func (n *Node) AppliedSeq(region string) (uint64, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down {
		return 0, ErrNodeDown
	}
	return n.region(region).applied, nil
}

// RecordsSince returns retained records with seq > after.
func (n *Node) RecordsSince(region string, after uint64) ([]Record, bool, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down {
		return nil, false, ErrNodeDown
	}
	r := n.region(region)
	if after >= r.applied {
		return nil, true, nil
	}
	if after+1 < r.logFrom {
		return nil, false, nil // trimmed; caller must snapshot
	}
	out := make([]Record, 0, r.applied-after)
	for _, rec := range r.log {
		if rec.Seq > after {
			out = append(out, rec)
		}
	}
	return out, true, nil
}

// Snapshot copies the latest live cells in [start, end).
func (n *Node) Snapshot(region, start, end string) ([]pool.KeyValue, uint64, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down {
		return nil, 0, ErrNodeDown
	}
	kvs := n.table.Scan(pool.ScanOptions{StartRow: start, EndRow: end})
	return kvs, n.region(region).applied, nil
}

// Import seeds a region from a snapshot: versions are preserved by
// ApplyReplicated, the applied mark jumps to seq, and the catch-up log
// restarts after it (earlier records are unrecoverable here by design —
// the snapshot already contains their effects).
func (n *Node) Import(region string, kvs []pool.KeyValue, seq uint64) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down {
		return ErrNodeDown
	}
	for _, kv := range kvs {
		if err := n.table.ApplyReplicated(kv.Mutation()); err != nil {
			return err
		}
	}
	r := n.region(region)
	if seq > r.applied {
		r.applied = seq
		r.log = nil
		r.logFrom = seq + 1
	}
	for s := range r.pending {
		if s <= r.applied {
			delete(r.pending, s)
		}
	}
	return nil
}

// Status reports the node's replication progress across its regions.
func (n *Node) Status() (NodeStatus, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down {
		return NodeStatus{}, ErrNodeDown
	}
	st := NodeStatus{ID: n.id, MaxVersion: n.table.VersionClock()}
	names := make([]string, 0, len(n.regions))
	for name := range n.regions {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r := n.regions[name]
		st.Regions = append(st.Regions, RegionApplied{Region: name, Applied: r.applied, Pending: len(r.pending)})
	}
	return st, nil
}

// Get serves a read from the local table.
func (n *Node) Get(ctx context.Context, at Barrier, row, family, qualifier string) ([]byte, bool, error) {
	if err := n.readable(at); err != nil {
		return nil, false, err
	}
	v, ok := n.table.GetCtx(ctx, row, family, qualifier)
	return v, ok, nil
}

// GetRow serves a whole-row read from the local table.
func (n *Node) GetRow(at Barrier, row string) ([]pool.KeyValue, error) {
	if err := n.readable(at); err != nil {
		return nil, err
	}
	return n.table.GetRow(row), nil
}

// Scan serves a range scan from the local table.
func (n *Node) Scan(ctx context.Context, at Barrier, opts pool.ScanOptions) ([]pool.KeyValue, error) {
	if err := n.readable(at); err != nil {
		return nil, err
	}
	return n.table.ScanCtx(ctx, opts), nil
}

// readable reports whether the node may serve a read at the barrier:
// ErrNodeDown when it is down, ErrBehind when its applied mark is short.
func (n *Node) readable(at Barrier) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down {
		return ErrNodeDown
	}
	if at.Seq == 0 {
		return nil
	}
	if applied := n.region(at.Region).applied; applied < at.Seq {
		return fmt.Errorf("%w: %s applied %d of %d in %s", ErrBehind, n.id, applied, at.Seq, at.Region)
	}
	return nil
}

var _ NodeRef = (*Node)(nil)
