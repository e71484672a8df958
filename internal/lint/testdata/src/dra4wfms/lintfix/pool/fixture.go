// Package pool seeds discarded-durability-error violations for the
// cryptoerr analyzer's WAL coverage: a dropped pool Sync or Checkpoint
// error — or a dropped (os.File).Sync under any hand-rolled journal —
// means the caller believes state is on disk when the kernel may have
// refused it. The same holds one layer down: a dropped wal Append or
// Rewrite error acknowledges a record the log never took. And one layer
// up: a dropped table Mutate, Put, PutCtx or Delete error — through
// pool.DocTable or a clustered session — acknowledges a hop the pool
// refused (portal.persist did exactly that for every cell after
// doc:content, back when a hop was one write per cell).
package pool

import (
	"context"
	"os"

	"dra4wfms/internal/pool"
	"dra4wfms/internal/poolcluster"
	"dra4wfms/internal/wal"
)

func badPersist(ctx context.Context, t pool.DocTable, s *poolcluster.Session, doc []byte) error {
	if err := t.PutCtx(ctx, "proc-1", "doc", "content", doc); err != nil {
		return err
	}
	t.PutCtx(ctx, "proc-1", "meta", "state", nil) // want "error returned by (pool.DocTable).PutCtx is unchecked"
	t.Delete("proc-1", "idx", "alice")            // want "error returned by (pool.DocTable).Delete is unchecked"
	_ = t.Put("tpl#x", "meta", "designer", nil)   // want "error returned by (pool.DocTable).Put is assigned to _"
	s.Put("rec|0", "rec", "json", nil)            // want "error returned by (poolcluster.Session).Put is unchecked"
	t.Mutate(ctx, "proc-1", nil)                  // want "error returned by (pool.DocTable).Mutate is unchecked"
	_ = t.Mutate(ctx, "proc-1", nil)              // want "error returned by (pool.DocTable).Mutate is assigned to _"
	return nil
}

func badLog(l *wal.Log, payload []byte) {
	l.Append(payload)  // want "error returned by (wal.Log).Append is unchecked"
	_ = l.Rewrite(nil) // want "error returned by (wal.Log).Rewrite is assigned to _"
}

func bad(s *pool.Store, f *os.File) {
	s.Sync()           // want "error returned by (pool.Store).Sync is unchecked"
	_ = s.Checkpoint() // want "error returned by (pool.Store).Checkpoint is assigned to _"
	f.Sync()           // want "error returned by (os.File).Sync is unchecked"
	go s.Checkpoint()  // want "error cannot be observed from a go statement"
	defer f.Sync()     // want "error cannot be observed from a deferred call"
}

func suppressed(s *pool.Store) {
	//lint:ignore cryptoerr fixture demo: periodic checkpoint retried next tick, WAL preserves durability
	_ = s.Checkpoint()
}

func checked(s *pool.Store, f *os.File) error {
	if err := s.Sync(); err != nil {
		return err
	}
	return f.Sync()
}
