// Package ackorder seeds ack-before-durable orderings for the ackorder
// analyzer's golden test. The bad shapes are frozen from the PR 5
// "acked then lost" bugs: the TFC record endpoint wrote its success
// response before the replay-guard journal append, and a compaction
// path acknowledged with the WAL work skipped.
package ackorder

import (
	"context"
	"errors"

	"dra4wfms/internal/chaos"
	"dra4wfms/internal/pool"
	"dra4wfms/internal/poolcluster"
	"dra4wfms/internal/relay"
	"dra4wfms/internal/wal"
)

// responder stands in for the HTTP layer that promises success to the
// submitting AEA.
type responder struct{}

func (responder) respond(status int, msg string) {}
func (responder) notifyProgress(percent int)     {}
func (responder) replyRecorded(seq uint64) error { return nil }

var resp responder

var errEmpty = errors.New("empty payload")

// badAckThenJournal freezes the PR 5 TFC-record shape: the success
// response leaves the process before the record reaches the journal; a
// crash in the gap loses a write the sender believes is recorded.
func badAckThenJournal(o *relay.Outbox, payload []byte) error {
	resp.respond(200, "recorded") // want "acknowledges success before (relay.Outbox).Append"
	_, _, err := o.Append("tfc", "record", "k", payload)
	return err
}

// badAckBeforeSync appends first but acknowledges before the sync that
// makes the append crash-proof.
func badAckBeforeSync(s *pool.Store, o *relay.Outbox, payload []byte) error {
	if _, _, err := o.Append("tfc", "record", "k", payload); err != nil {
		return err
	}
	if err := resp.replyRecorded(1); err != nil { // want "acknowledges success before (pool.Store).Sync"
		return err
	}
	return s.Sync()
}

// badSkippedBranch freezes the second PR 5 shape: on the not-dirty
// branch the acknowledgement runs with no journal work behind it while
// the sync is still ahead.
func badSkippedBranch(s *pool.Store, dirty bool) error {
	if dirty {
		if err := s.Checkpoint(); err != nil {
			return err
		}
	}
	resp.respond(200, "compacted") // want "acknowledges success before"
	return s.Sync()
}

// badAckBeforeLogAppend is the same shape one layer down, against the log
// every journal sits on: the response leaves before the frame is appended.
func badAckBeforeLogAppend(l *wal.Log, payload []byte) error {
	resp.respond(200, "recorded") // want "acknowledges success before (wal.Log).Append"
	if err := l.Append(payload); err != nil {
		return err
	}
	return l.Sync()
}

// goodJournalFirst is the protocol order: append → sync → ack. The
// failure NACKs respond after the durable call on their path and promise
// nothing further.
func goodJournalFirst(o *relay.Outbox, s *pool.Store, payload []byte) error {
	if _, _, err := o.Append("tfc", "record", "k", payload); err != nil {
		resp.respond(500, "journal append failed")
		return err
	}
	if err := s.Sync(); err != nil {
		resp.respond(500, "journal sync failed")
		return err
	}
	resp.respond(200, "recorded")
	return nil
}

// goodErrorNack responds before any journaling — but only on the
// validation path, which returns without ever promising durability.
func goodErrorNack(o *relay.Outbox, payload []byte) error {
	if len(payload) == 0 {
		resp.respond(400, "empty payload")
		return errEmpty
	}
	if _, _, err := o.Append("tfc", "record", "k", payload); err != nil {
		return err
	}
	resp.respond(200, "recorded")
	return nil
}

// goodLoopAckAfterAppend acknowledges each batch after its append; the
// loop back edge must not read as "ack before the next iteration's
// append".
func goodLoopAckAfterAppend(o *relay.Outbox, batches [][]byte) error {
	for _, b := range batches {
		if _, _, err := o.Append("tfc", "record", "k", b); err != nil {
			return err
		}
		resp.respond(200, "recorded")
	}
	return nil
}

// badAckBeforeReplicationJournal freezes the clustered-pool shape: the
// coordinator applies the mutation on the primary and acknowledges the
// write before journaling the backup's replication intent. A coordinator
// crash in the gap acknowledges a write that exists on exactly one node —
// kill that node next and the "acknowledged" write is gone.
func badAckBeforeReplicationJournal(c *poolcluster.Coordinator, frame []byte) error {
	if err := c.ApplyPrimary("region-0002", frame); err != nil {
		return err
	}
	if err := resp.replyRecorded(7); err != nil { // want "acknowledges success before (poolcluster.Coordinator).JournalReplication"
		return err
	}
	return c.JournalReplication("region-0002", "n2", frame)
}

// goodReplicationJournalFirst is the clustered protocol order: primary
// apply → journal every backup's intent → ack. Redelivery after a crash
// starts from the journal, so the ack survives any single node loss.
func goodReplicationJournalFirst(c *poolcluster.Coordinator, frame []byte, backups []string) error {
	if err := c.ApplyPrimary("region-0002", frame); err != nil {
		return err
	}
	for _, b := range backups {
		if err := c.JournalReplication("region-0002", b, frame); err != nil {
			return err
		}
	}
	return resp.replyRecorded(7)
}

// badHealAckBeforeCatchupJournal freezes the chaos-drill shape: the
// drill heals a partition and acknowledges "healed and converged"
// before the coordinator journals the catch-up replication intent the
// partition accumulated. Healing the network is not a durability
// point — a coordinator crash in the gap still strands the rejoined
// backup behind an acknowledged write.
func badHealAckBeforeCatchupJournal(n *chaos.Network, c *poolcluster.Coordinator, frame []byte) error {
	n.HealNode("n2")
	resp.respond(200, "healed") // want "acknowledges success before (poolcluster.Coordinator).JournalReplication"
	return c.JournalReplication("region-0002", "n2", frame)
}

// goodHealJournalFirst is the drill order: heal, journal the catch-up
// intent, then acknowledge. The chaos directive itself needs no
// journaling — only the write it unblocks does.
func goodHealJournalFirst(n *chaos.Network, c *poolcluster.Coordinator, frame []byte) error {
	n.HealNode("n2")
	if err := c.JournalReplication("region-0002", "n2", frame); err != nil {
		resp.respond(500, "catch-up journal failed")
		return err
	}
	resp.respond(200, "healed")
	return nil
}

// badAckBeforeRowRecord freezes the portal shape: the storing AEA is told
// "stored" before the hop's row mutation — document, meta and index cells
// in one record — is journaled. A crash in the gap loses a hop whose
// sender has already moved on.
func badAckBeforeRowRecord(ctx context.Context, t pool.DocTable, cells []pool.CellMutation) error {
	resp.respond(200, "stored") // want "acknowledges success before (pool.DocTable).Mutate"
	return t.Mutate(ctx, "proc-1", cells)
}

// goodRowRecordFirst is the portal's order: the one row record is
// journaled (and, clustered, queued for every backup) before the answer.
func goodRowRecordFirst(ctx context.Context, t pool.DocTable, cells []pool.CellMutation) error {
	if err := t.Mutate(ctx, "proc-1", cells); err != nil {
		resp.respond(500, "store failed")
		return err
	}
	resp.respond(200, "stored")
	return nil
}

// notifyFirstByDesign sends a progress notification before the append:
// an ack-shaped call that deliberately promises nothing durable.
func notifyFirstByDesign(o *relay.Outbox, payload []byte) error {
	//lint:ignore ackorder fixture demo: progress notification, not a durability promise
	resp.notifyProgress(50)
	_, _, err := o.Append("tfc", "record", "k", payload)
	return err
}
