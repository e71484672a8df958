// Package pool is a fixture stub: it mirrors the real module's durable
// store API surface for the cryptoerr analyzer and, being a durability
// package (import-path suffix internal/pool), seeds the nondeterminism
// analyzer's crash-recovery scope — replay must rebuild byte-identical
// state, so clock and PRNG reads reachable from recover/replay/restore
// functions are violations.
package pool

import (
	"context"
	"math/rand"
	"time"
)

// Store mirrors pool.Store.
type Store struct{}

// Sync mirrors pool.(*Store).Sync.
func (s *Store) Sync() error { return nil }

// Checkpoint mirrors pool.(*Store).Checkpoint.
func (s *Store) Checkpoint() error { return nil }

// DocTable mirrors the write half of pool.DocTable, the table surface the
// portal and the TFC journal write through.
type DocTable interface {
	Mutate(ctx context.Context, row string, cells []CellMutation) error
	Put(row, family, qualifier string, value []byte) error
	PutCtx(ctx context.Context, row, family, qualifier string, value []byte) error
	Delete(row, family, qualifier string) error
}

// CellMutation mirrors pool.CellMutation.
type CellMutation struct {
	Family, Qualifier string
	Value             []byte
	Del               bool
}

// KeyValue mirrors pool.KeyValue.
type KeyValue struct {
	Row     string
	Version int64
}

// recoverWAL is a seed function for the crash-recovery reachability walk.
func recoverWAL(records []KeyValue) error {
	for range records {
		if stampCell().IsZero() {
			return nil
		}
	}
	return nil
}

func stampCell() time.Time {
	return time.Now() // want "time.Now makes crash recovery irreproducible"
}

// replayBackoff is a seed by name; its PRNG read is acknowledged with a
// reasoned suppression.
func replayBackoff() time.Duration {
	//lint:ignore nondeterminism fixture demo: backoff jitter shapes retry timing, not recovered state
	return time.Duration(rand.Intn(100)) * time.Millisecond
}

// jitter is not reachable from any recovery seed — and the math/rand
// import ban does not extend to durability packages, where jitter is
// legitimate retry machinery.
func jitter() time.Duration {
	return time.Duration(rand.Intn(50)) * time.Millisecond
}
