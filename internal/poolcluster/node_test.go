package poolcluster

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"dra4wfms/internal/pool"
)

// testRecord frames a one-cell put of row as region "r"'s record seq.
func testRecord(t *testing.T, seq uint64, row string) Record {
	t.Helper()
	frame, err := pool.EncodeMutationFrame(seq, pool.Mutation{Row: row, Version: int64(seq), Cells: []pool.CellMutation{
		{Family: "doc", Qualifier: "content", Value: []byte(fmt.Sprintf("v%d", seq))},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return Record{Region: "r", Seq: seq, Frame: frame}
}

// TestRecordsSinceWindow applies more than twice the catch-up log's
// bound, each pair of records out of order, and reads the log at the
// edges of its window: the oldest retained record and the one just
// trimmed.
func TestRecordsSinceWindow(t *testing.T) {
	n := testNode(t, "n1")
	const applied = 2*nodeRegionLog + 100
	for seq := uint64(1); seq <= applied; seq += 2 {
		for _, s := range []uint64{seq + 1, seq} {
			if s > applied {
				continue
			}
			if err := n.Apply(context.Background(), testRecord(t, s, fmt.Sprintf("a-%03d", s%97))); err != nil {
				t.Fatalf("apply %d: %v", s, err)
			}
		}
	}
	if got, _ := n.AppliedSeq("r"); got != applied {
		t.Fatalf("applied = %d, want %d", got, applied)
	}

	oldest := uint64(applied - nodeRegionLog + 1)
	recs, complete, err := n.RecordsSince("r", oldest-1)
	if err != nil || !complete || len(recs) != nodeRegionLog {
		t.Fatalf("RecordsSince(oldest-1) = %d records, complete=%v, %v; want the whole window", len(recs), complete, err)
	}
	for i, rec := range recs {
		if rec.Seq != oldest+uint64(i) {
			t.Fatalf("record %d has seq %d, want %d", i, rec.Seq, oldest+uint64(i))
		}
		if _, m, err := pool.DecodeMutationFrame(rec.Frame); err != nil || m.Version != int64(rec.Seq) {
			t.Fatalf("record %d frame: version %d, %v", rec.Seq, m.Version, err)
		}
	}
	if recs, complete, err := n.RecordsSince("r", oldest-2); err != nil || complete || recs != nil {
		t.Fatalf("RecordsSince(oldest-2) = %d records, complete=%v, %v; want a trimmed answer", len(recs), complete, err)
	}
	if recs, complete, _ := n.RecordsSince("r", applied-3); !complete || len(recs) != 3 || recs[2].Seq != applied {
		t.Fatalf("RecordsSince(applied-3) = %v, complete=%v", recs, complete)
	}
	if recs, complete, _ := n.RecordsSince("r", applied); !complete || len(recs) != 0 {
		t.Fatalf("RecordsSince(applied) = %v, complete=%v", recs, complete)
	}
}

// lossyNode acknowledges and discards replicated records while drop is
// set: a backup that silently fell behind.
type lossyNode struct {
	*Node
	drop atomic.Bool
}

func (l *lossyNode) Apply(ctx context.Context, rec Record) error {
	if l.drop.Load() {
		return nil
	}
	return l.Node.Apply(ctx, rec)
}

// TestRepairReseedsBackupBeyondLog leaves a backup more records behind
// than the primary's catch-up log holds: the repair loop must converge it
// through a snapshot reseed.
func TestRepairReseedsBackupBeyondLog(t *testing.T) {
	a, b := &lossyNode{Node: testNode(t, "n1")}, &lossyNode{Node: testNode(t, "n2")}
	c, err := New([]NodeRef{a, b}, Config{Replicas: 2, Regions: 1, Relay: fastRelay(), RepairInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	region := c.Status().Regions[0]
	var primary, backup *lossyNode
	for _, rep := range region.Replicas {
		n := a
		if rep.Node == b.ID() {
			n = b
		}
		if rep.Primary {
			primary = n
		} else {
			backup = n
		}
	}
	if primary == nil || backup == nil {
		t.Fatalf("region %s lacks a primary or backup: %+v", region.ID, region.Replicas)
	}

	backup.drop.Store(true)
	s := c.NewSession()
	const writes = nodeRegionLog + 50
	for i := 0; i < writes; i++ {
		if err := s.Put(fmt.Sprintf("a-%05d", i%300), "doc", "content", []byte(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	c.Relay().Flush()
	backup.drop.Store(false)

	if got, _ := backup.AppliedSeq(region.ID); got != 0 {
		t.Fatalf("backup applied %d records while dropping", got)
	}
	if _, complete, _ := primary.RecordsSince(region.ID, 0); complete {
		t.Fatal("primary's log still reaches back to the start; the gap does not outrun it")
	}
	if lag := c.repairOnce(); lag != writes {
		t.Fatalf("first repair pass saw lag %d, want %d", lag, writes)
	}
	if got, _ := backup.AppliedSeq(region.ID); got != writes {
		t.Fatalf("backup applied mark %d after reseed, want %d", got, writes)
	}
	if lag := c.repairOnce(); lag != 0 {
		t.Fatalf("lag %d after reseed, want 0", lag)
	}
	assertReplicasConverged(t, c, map[string]*Node{a.ID(): a.Node, b.ID(): b.Node})

	// The reseeded backup follows new writes record by record.
	if err := s.Put("a-new", "doc", "content", []byte("x")); err != nil {
		t.Fatal(err)
	}
	quiesce(t, c)
	if got, _ := backup.AppliedSeq(region.ID); got != writes+1 {
		t.Fatalf("backup applied mark %d after one more write, want %d", got, writes+1)
	}
}
