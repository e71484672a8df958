package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"dra4wfms/internal/pool"
)

// seedDataDir simulates a daemon run: a durable table receives mutations
// and crashes without Close, leaving a data dir with a WAL to recover.
func seedDataDir(t *testing.T, dir string) []pool.KeyValue {
	t.Helper()
	table, err := pool.NewTable("documents", pool.FamilySpec{Name: "doc"}, pool.FamilySpec{Name: "meta"})
	if err != nil {
		t.Fatal(err)
	}
	store, _, err := pool.Open(table, dir, pool.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := table.Put(fmt.Sprintf("p-%02d", i), "doc", "xml", []byte(fmt.Sprintf("doc %d", i))); err != nil {
			t.Fatal(err)
		}
		if err := table.Put(fmt.Sprintf("p-%02d", i), "meta", "state", []byte("running")); err != nil {
			t.Fatal(err)
		}
	}
	if err := table.Delete("p-00", "doc", "xml"); err != nil {
		t.Fatal(err)
	}
	// Crash (not Close): the process would release the data-dir lock with
	// its death, which snapshot save then acquires for itself.
	if err := store.Abandon(); err != nil {
		t.Fatal(err)
	}
	return table.Scan(pool.ScanOptions{})
}

func TestSnapshotSaveRestoreInspect(t *testing.T) {
	srcDir := t.TempDir()
	want := seedDataDir(t, srcDir)
	snapFile := filepath.Join(t.TempDir(), "backup.snap")

	out := captureStdout(t, func() {
		cmdSnapshotSave([]string{"-data-dir", srcDir, "-out", snapFile})
	})
	if !strings.Contains(out, fmt.Sprintf("saved %d cells", len(want))) {
		t.Fatalf("save output = %q", out)
	}

	out = captureStdout(t, func() {
		cmdSnapshotInspect([]string{snapFile})
	})
	for _, frag := range []string{"table:         documents", "family doc", "family meta"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("inspect output missing %q:\n%s", frag, out)
		}
	}

	dstDir := t.TempDir()
	out = captureStdout(t, func() {
		cmdSnapshotRestore([]string{"-data-dir", dstDir, "-in", snapFile})
	})
	if !strings.Contains(out, "restored") {
		t.Fatalf("restore output = %q", out)
	}

	// A daemon booting on the restored directory must see the saved state.
	table, err := pool.NewTable("documents", pool.FamilySpec{Name: "doc"}, pool.FamilySpec{Name: "meta"})
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := pool.Open(table, dstDir, pool.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checkpoint == "" || rep.Damaged() {
		t.Fatalf("restored dir recovery: %s", rep.Summary())
	}
	got := table.Scan(pool.ScanOptions{})
	if len(got) != len(want) {
		t.Fatalf("restored %d cells, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i].Row != got[i].Row || want[i].Family != got[i].Family ||
			want[i].Qualifier != got[i].Qualifier || string(want[i].Value) != string(got[i].Value) {
			t.Fatalf("cell %d: want %+v, got %+v", i, want[i], got[i])
		}
	}
	if _, ok := table.Get("p-00", "doc", "xml"); ok {
		t.Fatal("tombstoned cell resurrected through save/restore")
	}
}
