package poolcluster

import (
	"context"
	"fmt"
	"sort"
	"time"
)

// Region migration holds the region's entry lock for the duration of the
// move, so concurrent writers simply block and then proceed against the
// new owner. Nothing is lost mid-move: the snapshot is taken only once
// the outgoing primary has applied every acknowledged record, and the
// sequence numbering continues unbroken across the swap.

// migrateQuiesce bounds how long a migration waits for the outgoing
// primary to finish applying acknowledged records before giving up.
const migrateQuiesce = 5 * time.Second

// MigrateRegion moves a region's primary role to dst. If dst is already
// a backup it is caught up record-by-record and swapped in without a
// bulk copy; otherwise it is seeded from a snapshot. The outgoing
// primary stays in the replica set as a backup (preserving the replica
// count); the set is then trimmed back to the configured size.
func (c *Cluster) MigrateRegion(regionID, dst string) error {
	e, ok := c.entryByID(regionID)
	if !ok {
		return fmt.Errorf("poolcluster: unknown region %s", regionID)
	}
	dref := c.aliveRef(dst)
	if dref == nil {
		return fmt.Errorf("poolcluster: migration target %s is not a live node", dst)
	}

	e.mu.Lock()
	if e.primary == dst {
		e.mu.Unlock()
		return nil
	}
	p := c.aliveRef(e.primary)
	if p == nil {
		e.mu.Unlock()
		return fmt.Errorf("%w %s", ErrNoLivePrimary, e.id)
	}
	// Wait for the outgoing primary to be fully caught up (a fresh
	// promotee may still be receiving its gap from the relay). Writes
	// are blocked on e.mu, so once applied == seq the snapshot is
	// complete by construction.
	deadline := time.Now().Add(migrateQuiesce)
	for {
		applied, err := p.AppliedSeq(e.id)
		if err != nil {
			e.mu.Unlock()
			return fmt.Errorf("poolcluster: probing primary for %s: %w", e.id, err)
		}
		if applied == e.seq {
			break
		}
		if time.Now().After(deadline) {
			e.mu.Unlock()
			return fmt.Errorf("poolcluster: region %s not quiescent (primary applied %d of %d)", e.id, applied, e.seq)
		}
		time.Sleep(time.Millisecond)
	}

	wasBackup := false
	for _, b := range e.backups {
		if b == dst {
			wasBackup = true
			break
		}
	}
	if wasBackup {
		// Catch dst up in place, then swap roles without a copy.
		for {
			dApplied, err := dref.AppliedSeq(e.id)
			if err != nil {
				e.mu.Unlock()
				return fmt.Errorf("poolcluster: probing target for %s: %w", e.id, err)
			}
			if dApplied == e.seq {
				break
			}
			recs, complete, err := p.RecordsSince(e.id, dApplied)
			if err != nil {
				e.mu.Unlock()
				return fmt.Errorf("poolcluster: reading catch-up records for %s: %w", e.id, err)
			}
			if !complete {
				if err := c.reseedLocked(e, p, dref); err != nil {
					e.mu.Unlock()
					return err
				}
				continue
			}
			for _, rec := range recs {
				if err := dref.Apply(context.Background(), rec); err != nil {
					e.mu.Unlock()
					return fmt.Errorf("poolcluster: applying catch-up record to %s: %w", dst, err)
				}
			}
		}
		var rest []string
		for _, b := range e.backups {
			if b != dst {
				rest = append(rest, b)
			}
		}
		e.backups = rest
	} else {
		if err := c.reseedLocked(e, p, dref); err != nil {
			e.mu.Unlock()
			return err
		}
	}
	old := e.primary
	e.primary = dst
	// The outgoing primary has the full history — keep it as the first
	// backup, then trim the set back to the replica target.
	e.backups = append([]string{old}, e.backups...)
	if max := c.cfg.Replicas - 1; len(e.backups) > max {
		e.backups = e.backups[:max]
	}
	e.epoch++
	e.mu.Unlock()

	mMigrations.Inc()
	c.persistStatus()
	return nil
}

// reseedLocked bulk-copies the region from primary p to node ref. Caller
// holds e.mu, so the snapshot is a consistent image at applied == seq.
func (c *Cluster) reseedLocked(e *regionEntry, p, ref NodeRef) error {
	kvs, snapSeq, err := p.Snapshot(e.id, e.start, e.end)
	if err != nil {
		return fmt.Errorf("poolcluster: snapshotting %s: %w", e.id, err)
	}
	if err := ref.Import(e.id, kvs, snapSeq); err != nil {
		return fmt.Errorf("poolcluster: importing %s into %s: %w", e.id, ref.ID(), err)
	}
	return nil
}

// Move records one rebalancing migration.
type Move struct {
	Region string `json:"region"`
	From   string `json:"from"`
	To     string `json:"to"`
}

// Rebalance spreads region leadership evenly across live nodes, moving
// the fewest regions that restore balance. Returns the moves performed.
func (c *Cluster) Rebalance() ([]Move, error) {
	var moves []Move
	for {
		alive := c.aliveIDs()
		if len(alive) == 0 {
			return moves, fmt.Errorf("poolcluster: no live nodes")
		}
		counts := c.primaryCounts()
		// Only live nodes can shed or receive leadership.
		total := 0
		for _, id := range alive {
			total += counts[id]
		}
		ceil := (total + len(alive) - 1) / len(alive)
		// Find the most loaded live node above the ceiling.
		src := ""
		for _, id := range alive {
			if counts[id] > ceil && (src == "" || counts[id] > counts[src]) {
				src = id
			}
		}
		if src == "" {
			return moves, nil
		}
		dst := c.pickTarget("", src)
		if dst == "" || counts[dst] >= ceil {
			return moves, nil
		}
		region := ""
		ids := c.regionIDsLedBy(src)
		sort.Strings(ids)
		if len(ids) > 0 {
			region = ids[0]
		}
		if region == "" {
			return moves, nil
		}
		if err := c.MigrateRegion(region, dst); err != nil {
			return moves, err
		}
		moves = append(moves, Move{Region: region, From: src, To: dst})
	}
}

// regionIDsLedBy lists the regions a node currently leads.
func (c *Cluster) regionIDsLedBy(id string) []string {
	var out []string
	for _, e := range c.entries {
		e.mu.Lock()
		if e.primary == id {
			out = append(out, e.id)
		}
		e.mu.Unlock()
	}
	return out
}
