package poolcluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"dra4wfms/internal/pool"
	"dra4wfms/internal/relay"
	"dra4wfms/internal/telemetry"
	"dra4wfms/internal/trace"
)

var (
	tel         = telemetry.Default()
	mWrites     = tel.Counter("poolcluster_writes_total")
	mReplicated = tel.Counter("poolcluster_replicated_records_total")
	mFailovers  = tel.Counter("poolcluster_failovers_total")
	mRejoins    = tel.Counter("poolcluster_rejoins_total")
	mMigrations = tel.Counter("poolcluster_migrations_total")
	gMaxLag     = tel.Gauge("poolcluster_max_replica_lag")
)

// KindReplicate is the relay delivery kind for replicated WAL records.
const KindReplicate = "replicate"

// ErrNoLivePrimary is returned when a region's write or read cannot find
// a live owner within the configured timeout.
var ErrNoLivePrimary = errors.New("poolcluster: no live primary for region")

// Config tunes a Cluster. The zero value is usable for a test cluster:
// 2 replicas, 4 regions with generic boundaries, a memory-only
// replication outbox, and in-process repair every 100ms.
type Config struct {
	// Replicas is the total copies of each region, primary included
	// (default 2, clamped to the node count). Zero-acked-write-loss on
	// node death needs at least 2.
	Replicas int
	// Regions is the directory size when Boundaries is nil (default 4).
	Regions int
	// Boundaries are explicit interior range boundaries, strictly
	// ascending. Overrides Regions.
	Boundaries []string
	// RelayDir is the replication outbox WAL path; "" keeps the outbox
	// in memory (replication intents then do not survive a coordinator
	// crash — see DESIGN.md).
	RelayDir string
	// Relay tunes the replication relay (retries, backoff, breakers).
	Relay relay.Config
	// StatusPath, when set, receives an atomically written JSON snapshot
	// of the directory on every topology change (for offline
	// `dractl cluster status -data-dir`).
	StatusPath string
	// WriteTimeout bounds how long a write waits out a failover before
	// giving up (default 10s).
	WriteTimeout time.Duration
	// ReadTimeout bounds how long a session waits for a replica to catch
	// up to its own writes before settling for the most caught-up one
	// (default 5s).
	ReadTimeout time.Duration
	// RepairInterval paces the anti-entropy loop that re-converges
	// lagging replicas directly from their primary (default 100ms;
	// negative disables the loop — tests drive repairOnce by hand).
	RepairInterval time.Duration
}

func (c Config) withDefaults(nodes int) Config {
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.Replicas > nodes {
		c.Replicas = nodes
	}
	if c.Regions <= 0 {
		c.Regions = 4
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 5 * time.Second
	}
	if c.RepairInterval == 0 {
		c.RepairInterval = 100 * time.Millisecond
	}
	return c
}

// member is one node's membership record. alive is the coordinator's
// failure-detector verdict, not the node's own opinion. quarantined
// marks an *administrative* removal (FailNode/RemoveNode): the repair
// loop auto-rejoins dead members whose probes heal, but never
// quarantined ones — an operator took them out, only an operator
// (Rejoin) puts them back.
type member struct {
	ref         NodeRef
	alive       bool
	quarantined bool
}

// Cluster is the coordinator for a clustered document pool: it owns the
// range directory, drives the write path (synchronous primary apply +
// durable replication intents through the relay), performs failover and
// migration, and hands out read-your-writes Sessions.
//
// Lock ordering: a regionEntry's mutex may be held while taking the
// cluster's membership RLock, never the other way around; node-internal
// locks are innermost.
type Cluster struct {
	cfg     Config
	entries []*regionEntry

	mu      sync.RWMutex
	members map[string]*member
	order   []string // node IDs in join order

	rly   *relay.Relay
	clock atomic.Int64 // global version clock across all nodes

	stopCh chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool
}

// New builds a cluster over the given nodes, assigns regions round-robin,
// seeds the global version clock from the nodes' tables, and starts the
// replication relay and the repair loop.
func New(refs []NodeRef, cfg Config) (*Cluster, error) {
	if len(refs) == 0 {
		return nil, errors.New("poolcluster: need at least one node")
	}
	cfg = cfg.withDefaults(len(refs))
	boundaries := cfg.Boundaries
	if boundaries == nil {
		boundaries = DefaultBoundaries(cfg.Regions)
	}
	if err := validateBoundaries(boundaries); err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:     cfg,
		entries: buildEntries(boundaries),
		members: make(map[string]*member, len(refs)),
		stopCh:  make(chan struct{}),
	}
	for _, ref := range refs {
		id := ref.ID()
		if id == "" {
			return nil, errors.New("poolcluster: node with empty ID")
		}
		if _, dup := c.members[id]; dup {
			return nil, fmt.Errorf("poolcluster: duplicate node ID %s", id)
		}
		c.members[id] = &member{ref: ref, alive: true}
		c.order = append(c.order, id)
	}
	// Round-robin placement: entry i's primary is node i mod n, backups
	// the next replicas-1 nodes.
	for i, e := range c.entries {
		e.primary = c.order[i%len(c.order)]
		for r := 1; r < cfg.Replicas; r++ {
			e.backups = append(e.backups, c.order[(i+r)%len(c.order)])
		}
	}
	// Seed the version clock past every node's table clock, so versions
	// minted here never collide with pre-existing cells, and every
	// region's sequence from the highest applied mark any node reports: a
	// coordinator restarted over nodes that stayed up must number its next
	// record above theirs, or they acknowledge it as a duplicate and drop
	// it. Unreachable nodes are skipped; they catch up on rejoin.
	var maxVer int64
	for _, ref := range refs {
		st, err := ref.Status()
		if err != nil {
			continue
		}
		if st.MaxVersion > maxVer {
			maxVer = st.MaxVersion
		}
		for _, ra := range st.Regions {
			if e, ok := c.entryByID(ra.Region); ok && ra.Applied > e.seq {
				e.seq = ra.Applied
			}
		}
	}
	c.clock.Store(maxVer)

	ob, err := relay.OpenOutbox(cfg.RelayDir)
	if err != nil {
		return nil, fmt.Errorf("poolcluster: opening replication outbox: %w", err)
	}
	if rec := ob.Recovery(); rec.DamagedBytes > 0 {
		log.Printf("WARNING: replication outbox %s: quarantined %d damaged bytes to %s (%s); replication intents journaled there are lost", cfg.RelayDir, rec.DamagedBytes, rec.QuarantineFile, rec.Reason)
	}
	c.rly = relay.New(ob, relay.TransportFunc(c.deliver), cfg.Relay)

	if cfg.RepairInterval > 0 {
		c.wg.Add(1)
		go c.repairLoop(cfg.RepairInterval)
	}
	c.persistStatus()
	return c, nil
}

// Close stops the repair loop and the replication relay (flushing its
// journal state, not its queue — use Quiesce first for a clean handoff).
func (c *Cluster) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(c.stopCh)
	c.wg.Wait()
	c.persistStatus()
	return c.rly.Close()
}

// Relay exposes the replication relay (stats, DLQ inspection).
func (c *Cluster) Relay() *relay.Relay { return c.rly }

// Replicas returns the configured copies per region.
func (c *Cluster) Replicas() int { return c.cfg.Replicas }

// aliveRef resolves a node ID to its handle iff the failure detector
// currently believes it alive.
func (c *Cluster) aliveRef(id string) NodeRef {
	c.mu.RLock()
	defer c.mu.RUnlock()
	m := c.members[id]
	if m == nil || !m.alive {
		return nil
	}
	return m.ref
}

// anyRef resolves a node ID regardless of liveness.
func (c *Cluster) anyRef(id string) NodeRef {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if m := c.members[id]; m != nil {
		return m.ref
	}
	return nil
}

// aliveIDs returns the IDs the detector believes alive, in join order.
func (c *Cluster) aliveIDs() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.order))
	for _, id := range c.order {
		if m := c.members[id]; m != nil && m.alive {
			out = append(out, id)
		}
	}
	return out
}

// write is the replicated write path. Under the region's lock it assigns
// the row mutation one global version and the next replication sequence
// number, applies the one framed record synchronously on the primary,
// then — still before the caller sees success — journals one replication
// intent per backup into the relay's durable outbox. "Acknowledged"
// therefore means: every cell applied on the primary AND the record
// queued durably for every backup; a backup that dies before applying it
// gets the record again from the outbox or from the repair loop, so no
// acknowledged write is lost, whole or in part, while any replica
// survives. A failed primary apply marks the node suspect, triggers
// failover, and retries against the promoted primary.
func (c *Cluster) write(ctx context.Context, row string, cells []pool.CellMutation) (string, uint64, error) {
	ctx, span := tel.StartSpan(ctx, "poolcluster_put_seconds")
	defer span.End()
	if row == "" {
		return "", 0, pool.ErrEmptyRow
	}
	if len(cells) == 0 {
		return "", 0, pool.ErrNoCells
	}
	e := c.entryFor(row)
	deadline := time.Now().Add(c.cfg.WriteTimeout)
	for {
		// A propagated caller deadline bounds the retry loop tighter than
		// the cluster's own WriteTimeout: once the caller stops waiting,
		// burning further attempts (and primary applies) is pure waste.
		if cerr := ctx.Err(); cerr != nil {
			return "", 0, fmt.Errorf("poolcluster: write to %s abandoned: %w", e.id, cerr)
		}
		e.mu.Lock()
		primary := c.aliveRef(e.primary)
		if primary == nil {
			e.mu.Unlock()
			if time.Now().After(deadline) {
				return "", 0, fmt.Errorf("%w %s", ErrNoLivePrimary, e.id)
			}
			time.Sleep(2 * time.Millisecond)
			continue
		}
		frame, err := pool.EncodeMutationFrame(e.seq+1, pool.Mutation{Row: row, Version: c.clock.Add(1), Cells: cells})
		if err != nil {
			e.mu.Unlock()
			return "", 0, err
		}
		rec := Record{Region: e.id, Seq: e.seq + 1, Frame: frame}
		if err := primary.Apply(ctx, rec); err != nil {
			e.mu.Unlock()
			if !errors.Is(err, ErrNodeDown) {
				// Application-level rejection (unknown family, bad
				// frame): the node is healthy, the write is wrong.
				return "", 0, err
			}
			c.suspect(primary.ID())
			if time.Now().After(deadline) {
				return "", 0, fmt.Errorf("poolcluster: write to %s failed: %w", e.id, err)
			}
			continue
		}
		e.seq = rec.Seq
		backups := append([]string(nil), e.backups...)
		e.mu.Unlock()

		payload, err := json.Marshal(rec)
		if err != nil {
			return "", 0, fmt.Errorf("poolcluster: encoding replication record: %w", err)
		}
		tp := trace.TraceparentFromContext(ctx)
		for _, b := range backups {
			key := fmt.Sprintf("%s|%s|%d|%s", KindReplicate, rec.Region, rec.Seq, b)
			if _, _, err := c.rly.EnqueueTraced(b, KindReplicate, key, tp, payload); err != nil {
				return "", 0, fmt.Errorf("poolcluster: journaling replication intent for %s: %w", b, err)
			}
			mReplicated.Inc()
		}
		mWrites.Inc()
		return rec.Region, rec.Seq, nil
	}
}

// deliver is the relay transport: it routes a journaled replication
// record to its backup node. Undecodable payloads are permanent (retrying
// corruption is pointless); a down node is retryable — the relay's
// backoff and per-destination breaker pace the redelivery.
func (c *Cluster) deliver(ctx context.Context, e relay.Entry) error {
	if e.Kind != KindReplicate {
		return relay.Permanent(fmt.Errorf("poolcluster: unknown delivery kind %q", e.Kind))
	}
	var rec Record
	if err := json.Unmarshal(e.Payload, &rec); err != nil {
		return relay.Permanent(fmt.Errorf("poolcluster: undecodable replication payload: %w", err))
	}
	ref := c.aliveRef(e.Dest)
	if ref == nil {
		return fmt.Errorf("%w: %s", ErrNodeDown, e.Dest)
	}
	err := ref.Apply(ctx, rec)
	if err != nil && errors.Is(err, errBadFrame) {
		return relay.Permanent(err)
	}
	return err
}

// Quiesce blocks until every live replica of every region has applied
// every acknowledged write (or ctx expires). It drives the repair loop
// inline so convergence does not depend on timer cadence.
func (c *Cluster) Quiesce(ctx context.Context) error {
	for {
		if lag := c.repairOnce(); lag == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("poolcluster: quiesce: %w", ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}
