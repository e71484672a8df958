package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"

	"dra4wfms/internal/pool"
)

// cmdSnapshot drives the pool checkpoint format offline: save recovers a
// daemon's data directory (without running the daemon) into a portable
// snapshot file, restore seeds a fresh data directory from one, and
// inspect summarizes a snapshot or checkpoint file. Together they are the
// backup/migration path for draportal -data-dir and dratfc -data-dir.
func cmdSnapshot(args []string) {
	if len(args) < 1 {
		usage()
	}
	switch args[0] {
	case "save":
		cmdSnapshotSave(args[1:])
	case "restore":
		cmdSnapshotRestore(args[1:])
	case "inspect":
		cmdSnapshotInspect(args[1:])
	default:
		usage()
	}
}

// cmdSnapshotSave performs the same recovery a daemon boot would —
// newest valid checkpoint plus intact WAL suffix, damage quarantined and
// reported — and writes the resulting live state as one snapshot file.
// pool.Open takes the data directory's exclusive lock, so running save
// against a live daemon's dir fails fast instead of corrupting its WAL.
func cmdSnapshotSave(args []string) {
	fs := flag.NewFlagSet("snapshot save", flag.ExitOnError)
	dataDir := fs.String("data-dir", "", "daemon data directory to recover (required)")
	out := fs.String("out", "", "snapshot file to write (required; - for stdout)")
	tableName := fs.String("table", "documents", "table name recorded in the snapshot header")
	fs.Parse(args)
	if *dataDir == "" || *out == "" {
		log.Fatal("snapshot save needs -data-dir and -out")
	}

	// The placeholder family only satisfies table creation; recovery
	// replays cells under their original families regardless.
	table, err := pool.NewTable(*tableName, pool.FamilySpec{Name: "offline"})
	if err != nil {
		log.Fatal(err)
	}
	store, rep, err := pool.Open(table, *dataDir, pool.StoreOptions{})
	if err != nil {
		log.Fatalf("recovering %s: %v", *dataDir, err)
	}
	fmt.Fprintf(os.Stderr, "dractl: %s\n", rep.Summary())
	if rep.Damaged() {
		fmt.Fprintf(os.Stderr, "dractl: WARNING: recovery quarantined damage; the snapshot holds the intact state only\n")
	}

	info := &pool.SnapshotInfo{
		Table:  *tableName,
		WALSeq: store.LastLSN(),
		Cells:  table.Scan(pool.ScanOptions{}),
	}
	w := os.Stdout
	if *out != "-" {
		f, err := os.OpenFile(*out, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
		w = f
	}
	if err := pool.WriteSnapshot(w, info); err != nil {
		log.Fatal(err)
	}
	if *out != "-" {
		fmt.Printf("saved %d cells (WAL watermark %d) to %s\n", len(info.Cells), info.WALSeq, *out)
	}
}

// cmdSnapshotRestore seeds a fresh data directory with one checkpoint
// built from a snapshot file; the next daemon boot recovers from it.
func cmdSnapshotRestore(args []string) {
	fs := flag.NewFlagSet("snapshot restore", flag.ExitOnError)
	dataDir := fs.String("data-dir", "", "fresh data directory to seed (required; must not hold state)")
	in := fs.String("in", "", "snapshot file to restore from (required)")
	fs.Parse(args)
	if *dataDir == "" || *in == "" {
		log.Fatal("snapshot restore needs -data-dir and -in")
	}
	if entries, err := os.ReadDir(*dataDir); err == nil && len(entries) > 0 {
		log.Fatalf("refusing to restore into non-empty directory %s (restore seeds a fresh data dir)", *dataDir)
	}

	f, err := os.Open(*in)
	if err != nil {
		log.Fatal(err)
	}
	info, err := pool.ReadSnapshot(f)
	f.Close()
	if err != nil {
		log.Fatalf("validating %s: %v", *in, err)
	}
	name, err := pool.WriteCheckpointFile(*dataDir, info)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("restored %d cells into %s (checkpoint %s)\n", len(info.Cells), *dataDir, name)
}

// cmdSnapshotInspect validates a snapshot/checkpoint file and summarizes
// its contents without touching any data directory.
func cmdSnapshotInspect(args []string) {
	if len(args) != 1 {
		usage()
	}
	f, err := os.Open(args[0])
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	info, err := pool.ReadSnapshot(f)
	if err != nil {
		log.Fatalf("INVALID: %v", err)
	}

	rows := map[string]bool{}
	families := map[string]int{}
	var bytes int
	for _, kv := range info.Cells {
		rows[kv.Row] = true
		families[kv.Family]++
		bytes += len(kv.Value)
	}
	fmt.Printf("table:         %s\n", info.Table)
	fmt.Printf("wal watermark: %d\n", info.WALSeq)
	fmt.Printf("cells:         %d (%d rows, %d value bytes)\n", len(info.Cells), len(rows), bytes)
	names := make([]string, 0, len(families))
	for fam := range families {
		names = append(names, fam)
	}
	sort.Strings(names)
	for _, fam := range names {
		fmt.Printf("  family %-12s %d cells\n", fam, families[fam])
	}
}
