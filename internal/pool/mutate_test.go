package pool

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"dra4wfms/internal/wal"
)

// hopCells is a row mutation shaped like a portal hop: the document, two
// derived meta cells and a deleted index entry.
func hopCells(n int) []CellMutation {
	tag := []byte(fmt.Sprintf("hop-%d", n))
	return []CellMutation{
		{Family: "doc", Qualifier: "xml", Value: tag},
		{Family: "meta", Qualifier: "cers", Value: tag},
		{Family: "meta", Qualifier: "state", Value: tag},
		{Family: "meta", Qualifier: "stale", Del: true},
	}
}

func TestMutateAppliesAllCellsUnderOneVersion(t *testing.T) {
	tbl := newTable(t, 0)
	if err := tbl.Put("r", "meta", "stale", []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Mutate(context.Background(), "r", hopCells(1)); err != nil {
		t.Fatal(err)
	}
	row := tbl.GetRow("r")
	if len(row) != 3 {
		t.Fatalf("row holds %d live cells, want 3: %+v", len(row), row)
	}
	for _, kv := range row {
		if kv.Version != row[0].Version || string(kv.Value) != "hop-1" {
			t.Fatalf("cells of one mutation differ: %+v", row)
		}
	}

	// A mutation with one bad cell installs none of its cells.
	bad := append(hopCells(2), CellMutation{Family: "nope", Qualifier: "q"})
	if err := tbl.Mutate(context.Background(), "r", bad); !errors.Is(err, ErrNoFamily) {
		t.Fatalf("mutation with an undeclared family = %v", err)
	}
	if err := tbl.Mutate(context.Background(), "r", nil); !errors.Is(err, ErrNoCells) {
		t.Fatalf("empty mutation = %v", err)
	}
	if err := tbl.Mutate(context.Background(), "", hopCells(2)); !errors.Is(err, ErrEmptyRow) {
		t.Fatalf("mutation of the empty row = %v", err)
	}
	if got := tbl.GetRow("r"); len(got) != 3 || string(got[0].Value) != "hop-1" {
		t.Fatalf("refused mutations left a trace: %+v", got)
	}
}

// TestStoreMutationIsOneFrame: a mutation of N cells is one WAL append and
// one fsync, and a replication frame round-trips it whole.
func TestStoreMutationIsOneFrame(t *testing.T) {
	dir := t.TempDir()
	tbl, s, _ := newDurableTable(t, dir, StoreOptions{})
	appends, fsyncs := mWALAppends.Value(), mWALFsyncs.Value()
	if err := tbl.Mutate(context.Background(), "r", hopCells(1)); err != nil {
		t.Fatal(err)
	}
	if a, f := mWALAppends.Value()-appends, mWALFsyncs.Value()-fsyncs; a != 1 || f != 1 {
		t.Fatalf("one mutation made %d appends and %d fsyncs, want 1 and 1", a, f)
	}
	if s.LastLSN() != 1 {
		t.Fatalf("LSN after one mutation = %d", s.LastLSN())
	}
	want := scanAll(tbl)
	crash(t, s)
	tbl2, s2, rep := newDurableTable(t, dir, StoreOptions{})
	defer crash(t, s2)
	if rep.ReplayedRecords != 1 {
		t.Fatalf("replayed %d records, want 1", rep.ReplayedRecords)
	}
	assertSameState(t, want, scanAll(tbl2))

	in := Mutation{Row: "r", Version: 42, Cells: hopCells(7)}
	frame, err := EncodeMutationFrame(9, in)
	if err != nil {
		t.Fatal(err)
	}
	seq, out, err := DecodeMutationFrame(frame)
	if err != nil || seq != 9 || out.Row != "r" || out.Version != 42 || len(out.Cells) != len(in.Cells) {
		t.Fatalf("frame round trip = seq %d, %+v, %v", seq, out, err)
	}
	for i, c := range out.Cells {
		if c.Family != in.Cells[i].Family || c.Qualifier != in.Cells[i].Qualifier || c.Del != in.Cells[i].Del || string(c.Value) != string(in.Cells[i].Value) {
			t.Fatalf("cell %d round-tripped to %+v, want %+v", i, c, in.Cells[i])
		}
	}
}

// TestStoreTornRowFrameReplaysNoCell cuts the last WAL frame — a row
// record of four cells — at every byte offset. Recovery must rebuild
// exactly the state before that mutation, never some of its cells, and
// quarantine the stump like any torn tail.
func TestStoreTornRowFrameReplaysNoCell(t *testing.T) {
	dir := t.TempDir()
	tbl, s, _ := newDurableTable(t, dir, StoreOptions{})
	if err := tbl.Mutate(context.Background(), "r", hopCells(1)); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Put("r", "meta", "stale", []byte("x")); err != nil {
		t.Fatal(err)
	}
	want := scanAll(tbl)
	walPath := filepath.Join(dir, walFileName)
	intact := fileSize(t, walPath)
	if err := tbl.Mutate(context.Background(), "r", hopCells(2)); err != nil {
		t.Fatal(err)
	}
	crash(t, s)
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}

	for cut := intact + 1; cut < int64(len(full)); cut++ {
		dir2 := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir2, walFileName), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		tbl2, s2, rep := newDurableTable(t, dir2, StoreOptions{})
		if rep.ReplayedRecords != 2 || rep.QuarantinedBytes != cut-intact || rep.DamageReason == "" {
			t.Fatalf("frame cut at byte %d of %d: %s", cut-intact, int64(len(full))-intact, rep.Summary())
		}
		assertSameState(t, want, scanAll(tbl2))
		crash(t, s2)
	}
}

// TestGetRowNeverSeesPartOfAMutation: a reader polling the row while a
// thousand mutations land must always find all cells at one version.
func TestGetRowNeverSeesPartOfAMutation(t *testing.T) {
	tbl := newTable(t, 0)
	if err := tbl.Mutate(context.Background(), "r", hopCells(0)); err != nil {
		t.Fatal(err)
	}
	done, reading := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var started sync.Once
		for {
			select {
			case <-done:
				return
			default:
			}
			row := tbl.GetRow("r")
			started.Do(func() { close(reading) })
			if len(row) != 3 {
				t.Errorf("reader saw %d cells: %+v", len(row), row)
				return
			}
			for _, kv := range row[1:] {
				if kv.Version != row[0].Version || string(kv.Value) != string(row[0].Value) {
					t.Errorf("reader saw cells of two mutations: %+v", row)
					return
				}
			}
		}
	}()
	<-reading
	for i := 1; i <= 1000; i++ {
		if err := tbl.Mutate(context.Background(), "r", hopCells(i)); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
}

// FuzzDecodeWALRec: whatever bytes a WAL frame or a replication frame
// carries, decoding never panics, and a payload it accepts rebuilds a
// mutation with a row's worth of cells — replay never applies "nothing".
func FuzzDecodeWALRec(f *testing.F) {
	row, err := json.Marshal(newWALRec(3, Mutation{Row: "r", Version: 5, Cells: hopCells(1)}))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(row)
	f.Add([]byte(`{"op":"put","lsn":1,"row":"r","family":"doc","qualifier":"xml","value":"eA==","version":1}`))
	f.Add([]byte(`{"op":"del","lsn":2,"row":"r","family":"doc","qualifier":"xml","version":2}`))
	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := decodeWALRec(payload)
		if err != nil {
			return
		}
		m := rec.mutation()
		if len(m.Cells) == 0 {
			t.Fatalf("accepted payload %q yields a mutation without cells", payload)
		}
		frame, err := wal.EncodeFrame(payload)
		if err != nil {
			return
		}
		if _, m2, err := DecodeMutationFrame(frame); err != nil || len(m2.Cells) != len(m.Cells) {
			t.Fatalf("payload decodes, its frame does not: %v", err)
		}
	})
}
