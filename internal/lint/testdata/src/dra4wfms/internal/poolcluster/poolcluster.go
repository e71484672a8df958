// Package poolcluster is a fixture stub mirroring the clustered
// document pool's coordinator surface for analyzer tests. As a
// durability package (import-path suffix internal/poolcluster), its
// journal-worded calls are ackorder durability points: a write is
// "acknowledged" only once the primary applied it AND the backups'
// replication intents are journaled.
package poolcluster

// Coordinator mirrors the poolcluster.Cluster write path.
type Coordinator struct{}

// ApplyPrimary mirrors the synchronous primary apply.
func (c *Coordinator) ApplyPrimary(region string, frame []byte) error { return nil }

// JournalReplication mirrors journaling a backup's replication intent
// into the coordinator outbox — the durability point of the backup copy.
func (c *Coordinator) JournalReplication(region, backup string, frame []byte) error { return nil }

// Session mirrors the clustered pool.DocTable implementation.
type Session struct{}

// Put mirrors poolcluster.(*Session).Put.
func (s *Session) Put(row, family, qualifier string, value []byte) error { return nil }
