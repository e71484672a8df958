package pool

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"dra4wfms/internal/wal"
)

// newDurableTable creates a fresh table bound to a Store in dir.
func newDurableTable(t *testing.T, dir string, opts StoreOptions) (*Table, *Store, *RecoveryReport) {
	t.Helper()
	tbl := newTable(t, 0)
	s, rep, err := Open(tbl, dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return tbl, s, rep
}

// scanAll returns the table's full live state (latest live cells with
// versions), the equality unit for crash-recovery assertions.
func scanAll(tbl *Table) []KeyValue {
	return tbl.Scan(ScanOptions{})
}

func assertSameState(t *testing.T, want, got []KeyValue) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("recovered state differs:\nwant %d cells: %+v\ngot  %d cells: %+v",
			len(want), want, len(got), got)
	}
}

// crash abandons a store the way a killed process would: the OS releases
// its file handles and the data-dir lock, but no final checkpoint or
// clean shutdown runs.
func crash(t *testing.T, s *Store) {
	t.Helper()
	if err := s.Abandon(); err != nil {
		t.Fatalf("Abandon: %v", err)
	}
}

func TestStoreRecoversWithoutCheckpoint(t *testing.T) {
	dir := t.TempDir()
	tbl, s, rep := newDurableTable(t, dir, StoreOptions{})
	if rep.Checkpoint != "" || rep.ReplayedRecords != 0 {
		t.Fatalf("fresh dir produced recovery %+v", rep)
	}
	for i := 0; i < 20; i++ {
		if err := tbl.Put(fmt.Sprintf("row-%02d", i), "doc", "xml", []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Delete("row-03", "doc", "xml"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Put("row-05", "doc", "xml", []byte("overwritten")); err != nil {
		t.Fatal(err)
	}
	want := scanAll(tbl)

	// Simulated crash: no Close, no final checkpoint — the WAL alone must
	// rebuild the table.
	crash(t, s)
	tbl2, _, rep2 := newDurableTable(t, dir, StoreOptions{})
	if rep2.ReplayedRecords != 22 {
		t.Fatalf("replayed %d records, want 22", rep2.ReplayedRecords)
	}
	if rep2.Damaged() {
		t.Fatalf("clean WAL reported damage: %s", rep2.Summary())
	}
	assertSameState(t, want, scanAll(tbl2))
	if _, ok := tbl2.Get("row-03", "doc", "xml"); ok {
		t.Fatal("tombstone did not survive recovery")
	}
	if v, _ := tbl2.Get("row-05", "doc", "xml"); string(v) != "overwritten" {
		t.Fatalf("row-05 = %q after recovery", v)
	}
}

func TestStoreRecoversFromCheckpointPlusWALSuffix(t *testing.T) {
	dir := t.TempDir()
	tbl, s, _ := newDurableTable(t, dir, StoreOptions{})
	for i := 0; i < 10; i++ {
		if err := tbl.Put(fmt.Sprintf("a-%02d", i), "doc", "xml", []byte("pre")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	for i := 0; i < 5; i++ {
		if err := tbl.Put(fmt.Sprintf("b-%02d", i), "doc", "xml", []byte("post")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Delete("a-00", "doc", "xml"); err != nil {
		t.Fatal(err)
	}
	want := scanAll(tbl)

	crash(t, s)
	tbl2, _, rep := newDurableTable(t, dir, StoreOptions{})
	if rep.Checkpoint == "" {
		t.Fatal("no checkpoint loaded")
	}
	if rep.CheckpointCells != 10 {
		t.Fatalf("checkpoint cells = %d, want 10", rep.CheckpointCells)
	}
	if rep.ReplayedRecords != 6 {
		t.Fatalf("replayed %d WAL records, want 6 (post-checkpoint suffix only)", rep.ReplayedRecords)
	}
	assertSameState(t, want, scanAll(tbl2))
}

// TestStoreKillMidWriteTornTail simulates a crash mid-append: the final
// WAL frame is cut short. Recovery must keep every complete record,
// quarantine the torn bytes, and say so.
func TestStoreKillMidWriteTornTail(t *testing.T) {
	dir := t.TempDir()
	tbl, s, _ := newDurableTable(t, dir, StoreOptions{})
	for i := 0; i < 8; i++ {
		if err := tbl.Put(fmt.Sprintf("row-%d", i), "doc", "xml", []byte(strings.Repeat("x", 50))); err != nil {
			t.Fatal(err)
		}
	}
	want := scanAll(tbl)
	crash(t, s)

	// Append a torn frame: a full header promising 100 payload bytes, then
	// only 10 of them (the fsync never happened).
	walPath := filepath.Join(dir, walFileName)
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 100)
	binary.LittleEndian.PutUint32(hdr[4:8], 0xdeadbeef)
	if _, err := f.Write(append(hdr[:], bytes.Repeat([]byte{0x7f}, 10)...)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	tbl2, s2, rep := newDurableTable(t, dir, StoreOptions{})
	if rep.QuarantinedBytes != 18 {
		t.Fatalf("quarantined %d bytes, want 18 (%s)", rep.QuarantinedBytes, rep.Summary())
	}
	if rep.DamageReason == "" {
		t.Fatal("torn tail not surfaced in the report")
	}
	q, err := os.ReadFile(rep.QuarantineFile)
	if err != nil {
		t.Fatalf("quarantine file: %v", err)
	}
	if len(q) != 18 {
		t.Fatalf("quarantine file holds %d bytes, want 18", len(q))
	}
	assertSameState(t, want, scanAll(tbl2))

	// The truncated WAL must now be clean: a third boot replays everything
	// with no damage.
	crash(t, s2)
	tbl3, _, rep3 := newDurableTable(t, dir, StoreOptions{})
	if rep3.QuarantinedBytes != 0 {
		t.Fatalf("second recovery still damaged: %s", rep3.Summary())
	}
	assertSameState(t, want, scanAll(tbl3))
}

// TestStoreBitFlippedTail flips one payload byte in the last WAL record:
// the CRC must catch it, the record must be quarantined and reported, and
// the intact prefix must recover exactly.
func TestStoreBitFlippedTail(t *testing.T) {
	dir := t.TempDir()
	tbl, s, _ := newDurableTable(t, dir, StoreOptions{})
	for i := 0; i < 5; i++ {
		if err := tbl.Put(fmt.Sprintf("row-%d", i), "doc", "xml", []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	// State before the final (to-be-corrupted) mutation.
	wantPrefix := scanAll(tbl)
	walPath := filepath.Join(dir, walFileName)
	sizeBefore := fileSize(t, walPath)
	if err := tbl.Put("victim", "doc", "xml", []byte("to be flipped")); err != nil {
		t.Fatal(err)
	}
	crash(t, s)

	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[sizeBefore+wal.HeaderBytes+4] ^= 0x01 // flip one payload byte of the last record
	if err := os.WriteFile(walPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	tbl2, _, rep := newDurableTable(t, dir, StoreOptions{})
	if rep.QuarantinedBytes == 0 {
		t.Fatalf("bit flip not detected: %s", rep.Summary())
	}
	if !strings.Contains(rep.DamageReason, "checksum") {
		t.Fatalf("damage reason = %q, want checksum mismatch", rep.DamageReason)
	}
	if _, ok := tbl2.Get("victim", "doc", "xml"); ok {
		t.Fatal("corrupted record was applied")
	}
	assertSameState(t, wantPrefix, scanAll(tbl2))
}

func TestStoreCorruptNewestCheckpointFallsBack(t *testing.T) {
	dir := t.TempDir()
	tbl, s, _ := newDurableTable(t, dir, StoreOptions{})
	for i := 0; i < 6; i++ {
		if err := tbl.Put(fmt.Sprintf("row-%d", i), "doc", "xml", []byte("one")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 6; i < 12; i++ {
		if err := tbl.Put(fmt.Sprintf("row-%d", i), "doc", "xml", []byte("two")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Put("late", "doc", "xml", []byte("after second checkpoint")); err != nil {
		t.Fatal(err)
	}
	want := scanAll(tbl)

	// Corrupt the newest checkpoint wholesale.
	names, err := s.checkpointFiles()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Fatalf("retained %d checkpoints, want 2", len(names))
	}
	newest := filepath.Join(dir, names[1])
	if err := os.WriteFile(newest, []byte("{\"table\":\"documents\",garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	crash(t, s)

	tbl2, _, rep := newDurableTable(t, dir, StoreOptions{})
	if len(rep.SkippedCheckpoints) != 1 || rep.SkippedCheckpoints[0] != names[1] {
		t.Fatalf("skipped checkpoints = %v, want [%s]", rep.SkippedCheckpoints, names[1])
	}
	if rep.Checkpoint != names[0] {
		t.Fatalf("loaded %q, want fallback %q", rep.Checkpoint, names[0])
	}
	// The WAL keeps the suffix past the OLDEST retained checkpoint, so the
	// fallback plus replay still yields the full state.
	assertSameState(t, want, scanAll(tbl2))
	if _, err := os.Stat(newest + corruptSuffix); err != nil {
		t.Fatalf("corrupt checkpoint not quarantined: %v", err)
	}
}

func TestStoreCheckpointPrunesAndCompacts(t *testing.T) {
	dir := t.TempDir()
	tbl, s, _ := newDurableTable(t, dir, StoreOptions{KeepCheckpoints: 2})
	for round := 0; round < 4; round++ {
		for i := 0; i < 5; i++ {
			if err := tbl.Put(fmt.Sprintf("r%d-%d", round, i), "doc", "xml", bytes.Repeat([]byte("z"), 100)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	names, err := s.checkpointFiles()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Fatalf("retained %d checkpoints, want 2", len(names))
	}
	// After the last checkpoint no mutations are outstanding past the
	// oldest retained watermark minus the newest round; the WAL holds only
	// the records after the oldest retained checkpoint.
	walSize := fileSize(t, filepath.Join(dir, walFileName))
	if walSize == 0 {
		// Records between the two retained checkpoints must still be there.
		t.Fatal("WAL compacted past the oldest retained checkpoint")
	}
	want := scanAll(tbl)
	crash(t, s)
	tbl2, _, _ := newDurableTable(t, dir, StoreOptions{})
	assertSameState(t, want, scanAll(tbl2))
}

func TestStoreCloseWritesFinalCheckpoint(t *testing.T) {
	dir := t.TempDir()
	tbl, s, _ := newDurableTable(t, dir, StoreOptions{})
	for i := 0; i < 7; i++ {
		if err := tbl.Put(fmt.Sprintf("row-%d", i), "doc", "xml", []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	want := scanAll(tbl)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := tbl.Put("late", "doc", "xml", []byte("v")); err != ErrStoreClosed {
		t.Fatalf("Put after Close = %v, want ErrStoreClosed", err)
	}

	tbl2, _, rep := newDurableTable(t, dir, StoreOptions{})
	if rep.Checkpoint == "" {
		t.Fatal("Close did not write a final checkpoint")
	}
	if rep.ReplayedRecords != 0 {
		t.Fatalf("replayed %d records after clean shutdown, want 0", rep.ReplayedRecords)
	}
	assertSameState(t, want, scanAll(tbl2))
}

func TestStoreRejectsNonEmptyTable(t *testing.T) {
	tbl := newTable(t, 0)
	if err := tbl.Put("row", "doc", "xml", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(tbl, t.TempDir(), StoreOptions{}); err == nil {
		t.Fatal("Open accepted a non-empty table")
	}
}

func TestStoreRejectsDoubleAttach(t *testing.T) {
	dir := t.TempDir()
	tbl, _, _ := newDurableTable(t, dir, StoreOptions{})
	if _, _, err := Open(tbl, t.TempDir(), StoreOptions{}); err == nil {
		t.Fatal("Open attached a second store to the same table")
	}
}

// TestStoreConcurrentMutationsAndCheckpoints hammers the store from many
// writers while checkpoints run, then crashes and recovers — the
// race-detector version of the kill-mid-write scenario.
func TestStoreConcurrentMutationsAndCheckpoints(t *testing.T) {
	dir := t.TempDir()
	tbl, s, _ := newDurableTable(t, dir, StoreOptions{NoFsync: true})
	const writers, perWriter = 8, 40
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				row := fmt.Sprintf("w%d-row%03d", w, i)
				if err := tbl.Put(row, "doc", "xml", []byte(fmt.Sprintf("val-%d-%d", w, i))); err != nil {
					t.Errorf("Put %s: %v", row, err)
					return
				}
				if i%7 == 3 {
					if err := tbl.Delete(fmt.Sprintf("w%d-row%03d", w, i-1), "doc", "xml"); err != nil {
						t.Errorf("Delete: %v", err)
						return
					}
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 5; i++ {
			if err := s.Checkpoint(); err != nil {
				t.Errorf("concurrent Checkpoint: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	want := scanAll(tbl)

	crash(t, s)
	tbl2, _, rep := newDurableTable(t, dir, StoreOptions{})
	if rep.Damaged() {
		t.Fatalf("recovery reported damage: %s", rep.Summary())
	}
	assertSameState(t, want, scanAll(tbl2))
}

func TestStoreSyncAndLSN(t *testing.T) {
	dir := t.TempDir()
	tbl, s, _ := newDurableTable(t, dir, StoreOptions{NoFsync: true})
	if err := tbl.Put("row", "doc", "xml", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if got := s.LastLSN(); got != 1 {
		t.Fatalf("LastLSN = %d, want 1", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != ErrStoreClosed {
		t.Fatalf("Sync after Close = %v, want ErrStoreClosed", err)
	}
}

// TestStoreMaxBodySizedValueSurvivesRecovery round-trips the largest
// value httpapi will accept (64 MiB) through append + crash recovery.
// json.Marshal base64-encodes the value, inflating the WAL payload to
// ~85.4 MiB — this is the regression test for the append bound being
// smaller than a legal record, which acknowledged the write and then
// quarantined it as "implausible" on the next boot.
func TestStoreMaxBodySizedValueSurvivesRecovery(t *testing.T) {
	const maxHTTPBody = 64 << 20 // httpapi's maxBody
	dir := t.TempDir()
	tbl, s, _ := newDurableTable(t, dir, StoreOptions{NoFsync: true})
	big := bytes.Repeat([]byte{0xab}, maxHTTPBody)
	if err := tbl.Put("doc|big", "doc", "xml", big); err != nil {
		t.Fatalf("Put of a maxBody-sized value must be journalable: %v", err)
	}
	want := scanAll(tbl)
	crash(t, s)

	// Recovery must replay the large (but legal) record, not quarantine it.
	tbl2, _, rep := newDurableTable(t, dir, StoreOptions{NoFsync: true})
	if rep.Damaged() {
		t.Fatalf("legal maxBody-sized record quarantined on recovery: %s", rep.Summary())
	}
	if rep.ReplayedRecords != 1 {
		t.Fatalf("replayed %d records, want 1", rep.ReplayedRecords)
	}
	assertSameState(t, want, scanAll(tbl2))
}

// TestStoreRejectsOversizedWALRecordAtAppend: a record whose encoded
// payload exceeds the WAL bound must fail the Put (never acked, never
// applied) instead of being journaled and lost at the next boot.
func TestStoreRejectsOversizedWALRecordAtAppend(t *testing.T) {
	dir := t.TempDir()
	tbl, s, _ := newDurableTable(t, dir, StoreOptions{NoFsync: true})
	if err := tbl.Put("doc|ok", "doc", "xml", []byte("fine")); err != nil {
		t.Fatal(err)
	}
	want := scanAll(tbl)

	// 73 MiB raw base64-inflates past the 96 MiB payload bound.
	huge := bytes.Repeat([]byte{0xcd}, 73<<20)
	err := tbl.Put("doc|huge", "doc", "xml", huge)
	if err == nil {
		t.Fatal("oversized record was acknowledged")
	}
	if !strings.Contains(err.Error(), "limit") {
		t.Fatalf("Put error = %v, want the WAL size-limit rejection", err)
	}
	if _, ok := tbl.Get("doc|huge", "doc", "xml"); ok {
		t.Fatal("rejected record reached the table")
	}
	crash(t, s)

	tbl2, _, rep := newDurableTable(t, dir, StoreOptions{NoFsync: true})
	if rep.Damaged() {
		t.Fatalf("rejected append damaged the WAL: %s", rep.Summary())
	}
	assertSameState(t, want, scanAll(tbl2))
}

// TestStoreOpenRefusesLockedDataDir: two live stores on one data dir
// would interleave appends and compactions on the same wal.log, so the
// second Open must fail fast while the first holds the lock, and succeed
// once it is released.
func TestStoreOpenRefusesLockedDataDir(t *testing.T) {
	dir := t.TempDir()
	_, s, _ := newDurableTable(t, dir, StoreOptions{})
	if _, _, err := Open(newTable(t, 0), dir, StoreOptions{}); err == nil {
		t.Fatal("second Open on a locked data dir succeeded")
	} else if !strings.Contains(err.Error(), "locked by another process") {
		t.Fatalf("second Open error = %v, want the lock refusal", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, _, err := Open(newTable(t, 0), dir, StoreOptions{}); err != nil {
		t.Fatalf("Open after Close: %v", err)
	}
}

// TestStoreCheckpointOnDamagedWALKeepsAppendOffset: when compaction
// refuses an externally damaged WAL, the append offset must be restored
// to EOF — otherwise the next Put would overwrite framed records at the
// spot where the compaction scan stopped.
func TestStoreCheckpointOnDamagedWALKeepsAppendOffset(t *testing.T) {
	dir := t.TempDir()
	tbl, s, _ := newDurableTable(t, dir, StoreOptions{})
	for i := 0; i < 6; i++ {
		if err := tbl.Put(fmt.Sprintf("row-%d", i), "doc", "xml", bytes.Repeat([]byte("p"), 200)); err != nil {
			t.Fatal(err)
		}
	}
	walPath := filepath.Join(dir, walFileName)
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte early in the log so the compaction scan stops
	// far from EOF.
	raw[wal.HeaderBytes+4] ^= 0x01
	if err := os.WriteFile(walPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	sizeBefore := fileSize(t, walPath)

	if err := s.Checkpoint(); err == nil {
		t.Fatal("Checkpoint compacted a damaged WAL")
	} else if !strings.Contains(err.Error(), "damaged") {
		t.Fatalf("Checkpoint error = %v, want damage refusal", err)
	}
	if err := tbl.Put("after", "doc", "xml", []byte("appended")); err != nil {
		t.Fatalf("Put after refused compaction: %v", err)
	}
	if got := fileSize(t, walPath); got <= sizeBefore {
		t.Fatalf("WAL did not grow (size %d -> %d): append overwrote framed records mid-file", sizeBefore, got)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// TestStoreRecoversParentFormatDataDir opens a data dir written by the
// commit before internal/wal existed (testdata/parent-datadir: eight
// mutations, no checkpoint, abandoned like a kill -9). The frame format
// is frozen: recovery must rebuild exactly the state that commit scanned,
// and re-encoding every record must reproduce its wal.log byte for byte.
func TestStoreRecoversParentFormatDataDir(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "parent-datadir", walFileName))
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "parent-datadir", "expected.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want []KeyValue
	if err := json.Unmarshal(golden, &want); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	walPath := filepath.Join(dir, walFileName)
	if err := os.WriteFile(walPath, fixture, 0o644); err != nil {
		t.Fatal(err)
	}

	tbl, s, rep := newDurableTable(t, dir, StoreOptions{})
	if rep.Damaged() || rep.ReplayedRecords != 8 {
		t.Fatalf("parent-format WAL not recovered cleanly: %s", rep.Summary())
	}
	assertSameState(t, want, scanAll(tbl))

	// Compacting from watermark 0 rewrites every record through this
	// commit's encoder.
	if err := s.compactWAL(0); err != nil {
		t.Fatal(err)
	}
	crash(t, s)
	rewritten, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fixture, rewritten) {
		t.Fatalf("rewritten WAL differs from the parent's bytes (%d vs %d bytes)", len(rewritten), len(fixture))
	}
}

// heapGrowth runs f and returns how much live heap it left behind.
func heapGrowth(f func()) int64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// TestOverwritesDoNotPinOldVersions: a cell overwritten 200 times with
// 1 MiB must retain about one value, in memory and through a durable
// store. The in-memory region WAL this package used to keep pinned
// every version ever written (~200 MiB here) for the life of the process.
func TestOverwritesDoNotPinOldVersions(t *testing.T) {
	for _, durable := range []bool{false, true} {
		tbl := newTable(t, 0)
		if durable {
			s, _, err := Open(tbl, t.TempDir(), StoreOptions{NoFsync: true})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { crash(t, s) })
		}
		grew := heapGrowth(func() {
			for i := 0; i < 200; i++ {
				if err := tbl.Put("row", "meta", "blob", bytes.Repeat([]byte{byte(i)}, 1<<20)); err != nil {
					t.Fatal(err)
				}
			}
		})
		if grew >= 16<<20 {
			t.Fatalf("durable=%v: heap grew by %d MiB over 200 overwrites of one 1 MiB cell, want < 16", durable, grew>>20)
		}
		runtime.KeepAlive(tbl)
	}
}
