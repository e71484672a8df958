// Package wal is a fixture stub mirroring the real module's append-only
// log API surface for the cryptoerr and ackorder analyzers.
package wal

// Log mirrors wal.Log.
type Log struct{}

// Append mirrors wal.(*Log).Append.
func (l *Log) Append(payload []byte) error { return nil }

// Sync mirrors wal.(*Log).Sync.
func (l *Log) Sync() error { return nil }

// Rewrite mirrors wal.(*Log).Rewrite.
func (l *Log) Rewrite(emit func(put func(payload []byte) error) error) error { return nil }
