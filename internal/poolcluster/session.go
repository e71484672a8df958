package poolcluster

import (
	"context"
	"errors"
	"sync"
	"time"

	"dra4wfms/internal/pool"
)

// Session is a read-your-writes handle onto the cluster, implementing
// pool.DocTable so the portal and monitor run over a clustered pool
// unchanged. Each write records the replication sequence it produced;
// each read routes to a replica — primary preferred — that has applied
// at least the session's own high-water mark for that region, waiting
// (bounded by Config.ReadTimeout) for catch-up rather than serving the
// session a state older than its own writes.
type Session struct {
	c *Cluster

	mu   sync.Mutex
	seen map[string]uint64 // region ID → highest seq this session wrote
}

// NewSession opens a read-your-writes session. Sessions are cheap and
// safe for concurrent use; one per server instance is typical.
func (c *Cluster) NewSession() *Session {
	return &Session{c: c, seen: make(map[string]uint64)}
}

func (s *Session) noteWrite(region string, seq uint64) {
	s.mu.Lock()
	if seq > s.seen[region] {
		s.seen[region] = seq
	}
	s.mu.Unlock()
}

func (s *Session) need(region string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seen[region]
}

// Mutate applies puts and deletes on one row through the replicated
// write path as one record: one version, one region sequence number, all
// cells or none on every replica. The replication intents inherit the
// caller's traceparent, so the cross-node fan-out shows up as one trace.
func (s *Session) Mutate(ctx context.Context, row string, cells []pool.CellMutation) error {
	region, seq, err := s.c.write(ctx, row, cells)
	if err != nil {
		return err
	}
	s.noteWrite(region, seq)
	return nil
}

// Put stores value at (row, family, qualifier): a one-cell Mutate.
func (s *Session) Put(row, family, qualifier string, value []byte) error {
	return s.PutCtx(context.Background(), row, family, qualifier, value)
}

// PutCtx is Put carrying the caller's trace context.
func (s *Session) PutCtx(ctx context.Context, row, family, qualifier string, value []byte) error {
	return s.Mutate(ctx, row, []pool.CellMutation{{Family: family, Qualifier: qualifier, Value: value}})
}

// Delete writes a tombstone at (row, family, qualifier): a one-cell
// Mutate.
func (s *Session) Delete(row, family, qualifier string) error {
	return s.Mutate(context.Background(), row, []pool.CellMutation{{Family: family, Qualifier: qualifier, Del: true}})
}

// read runs one read of region e against a replica that has applied this
// session's own writes there. The barrier rides with the read: the
// primary, caught up in the common case, answers in one round trip. Only
// when it is dead or answers ErrBehind (a fresh promotee still receiving
// its gap) does the session fall back to probing every holder. After
// three failed replicas, or with no live replica left, it gives up and
// do's results stay as the last failed attempt left them.
func (s *Session) read(e *regionEntry, do func(NodeRef, Barrier) error) {
	at := Barrier{Region: e.id, Seq: s.need(e.id)}
	for attempt := 0; attempt < 3; attempt++ {
		e.mu.Lock()
		primary := e.primary
		e.mu.Unlock()
		if ref := s.c.aliveRef(primary); ref != nil {
			err := do(ref, at)
			if err == nil {
				return
			}
			if !errors.Is(err, ErrBehind) {
				s.c.suspect(ref.ID())
				continue
			}
		}
		ref, ok := s.replicaFor(e, at.Seq)
		if !ok {
			return
		}
		// replicaFor vouched for ref, or settled for the most caught-up
		// replica past the read timeout; either way no barrier.
		if err := do(ref, Barrier{}); err == nil {
			return
		}
		s.c.suspect(ref.ID())
	}
}

// replicaFor probes the live replicas of e for one that has applied at
// least need, preferring the primary. When none has caught up yet it
// waits (the failover window), and past the read timeout it degrades to
// the most caught-up live replica rather than failing the read outright.
func (s *Session) replicaFor(e *regionEntry, need uint64) (NodeRef, bool) {
	deadline := time.Now().Add(s.c.cfg.ReadTimeout)
	for {
		e.mu.Lock()
		holders := e.holders()
		e.mu.Unlock()
		var best NodeRef
		var bestApplied uint64
		for _, id := range holders {
			ref := s.c.aliveRef(id)
			if ref == nil {
				continue
			}
			applied, err := ref.AppliedSeq(e.id)
			if err != nil {
				s.c.suspect(id)
				continue
			}
			if applied >= need {
				return ref, true
			}
			if best == nil || applied > bestApplied {
				best, bestApplied = ref, applied
			}
		}
		if time.Now().After(deadline) {
			if best != nil {
				return best, true
			}
			return nil, false
		}
		time.Sleep(time.Millisecond)
	}
}

// Get returns the newest value at (row, family, qualifier).
func (s *Session) Get(row, family, qualifier string) ([]byte, bool) {
	return s.GetCtx(context.Background(), row, family, qualifier)
}

// GetCtx is Get carrying the caller's trace context.
func (s *Session) GetCtx(ctx context.Context, row, family, qualifier string) (v []byte, found bool) {
	if row == "" {
		return nil, false
	}
	s.read(s.c.entryFor(row), func(ref NodeRef, at Barrier) (err error) {
		v, found, err = ref.Get(ctx, at, row, family, qualifier)
		return err
	})
	return v, found
}

// GetRow returns every live cell of a row.
func (s *Session) GetRow(row string) (kvs []pool.KeyValue) {
	if row == "" {
		return nil
	}
	s.read(s.c.entryFor(row), func(ref NodeRef, at Barrier) (err error) {
		kvs, err = ref.GetRow(at, row)
		return err
	})
	return kvs
}

// Scan merges per-region scans in directory order, which is global row
// order — the range directory's payoff: each scan span touches only the
// nodes owning it. Filter and Limit are applied client-side (a filter
// function cannot cross the wire to a remote node); the per-region
// bounds and family/prefix filters are pushed down.
func (s *Session) Scan(opts pool.ScanOptions) []pool.KeyValue {
	return s.ScanCtx(context.Background(), opts)
}

// ScanCtx is Scan carrying the caller's trace context.
func (s *Session) ScanCtx(ctx context.Context, opts pool.ScanOptions) []pool.KeyValue {
	var out []pool.KeyValue
	for _, e := range s.c.entries {
		if opts.EndRow != "" && e.start != "" && e.start >= opts.EndRow {
			break
		}
		if e.end != "" && opts.StartRow != "" && opts.StartRow >= e.end {
			continue
		}
		remote := pool.ScanOptions{
			StartRow: maxKey(opts.StartRow, e.start),
			EndRow:   minEnd(opts.EndRow, e.end),
			Prefix:   opts.Prefix,
			Family:   opts.Family,
		}
		if opts.Filter == nil && opts.Limit > 0 {
			remote.Limit = opts.Limit - len(out)
		}
		kvs := s.scanEntry(ctx, e, remote)
		for _, kv := range kvs {
			if opts.Filter != nil && !opts.Filter(kv) {
				continue
			}
			out = append(out, kv)
			if opts.Limit > 0 && len(out) >= opts.Limit {
				return out
			}
		}
	}
	return out
}

// scanEntry runs one region's scan against a caught-up replica.
func (s *Session) scanEntry(ctx context.Context, e *regionEntry, opts pool.ScanOptions) (kvs []pool.KeyValue) {
	s.read(e, func(ref NodeRef, at Barrier) (err error) {
		kvs, err = ref.Scan(ctx, at, opts)
		return err
	})
	return kvs
}

func maxKey(a, b string) string {
	if a > b {
		return a
	}
	return b
}

// minEnd picks the tighter exclusive end bound, where "" means +∞.
func minEnd(a, b string) string {
	if a == "" {
		return b
	}
	if b == "" {
		return a
	}
	if a < b {
		return a
	}
	return b
}

var _ pool.DocTable = (*Session)(nil)
