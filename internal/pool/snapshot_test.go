package pool

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestSnapshotEmptyTableRoundTrip(t *testing.T) {
	src := newTable(t, 0)
	var buf bytes.Buffer
	if err := src.Export(&buf); err != nil {
		t.Fatal(err)
	}
	dst := newTable(t, 0)
	n, err := dst.Import(&buf)
	if err != nil {
		t.Fatalf("Import: %v", err)
	}
	if n != 0 {
		t.Fatalf("imported %d cells from an empty table", n)
	}
	if got := dst.Scan(ScanOptions{}); len(got) != 0 {
		t.Fatalf("destination holds %d cells after empty import", len(got))
	}
}

func TestSnapshotSkipsTombstonedCells(t *testing.T) {
	src := newTable(t, 0)
	if err := src.Put("alive", "doc", "xml", []byte("kept")); err != nil {
		t.Fatal(err)
	}
	if err := src.Put("dead", "doc", "xml", []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	if err := src.Delete("dead", "doc", "xml"); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := src.Export(&buf); err != nil {
		t.Fatal(err)
	}
	info, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Cells) != 1 || info.Cells[0].Row != "alive" {
		t.Fatalf("exported cells = %+v, want only row %q", info.Cells, "alive")
	}

	dst := newTable(t, 0)
	if _, err := dst.Import(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if _, ok := dst.Get("dead", "doc", "xml"); ok {
		t.Fatal("tombstoned cell resurrected by import")
	}
}

// TestSnapshotMultiVersionFamilies: export carries only the latest live
// version of each cell, even when the family retains several.
func TestSnapshotImportIntoNonEmptyTable(t *testing.T) {
	src := newTable(t, 0)
	if err := src.Put("row", "doc", "xml", []byte("v")); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := src.Export(&buf); err != nil {
		t.Fatal(err)
	}

	dst := newTable(t, 0)
	if err := dst.Put("pre-existing", "doc", "xml", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.Import(&buf); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("Import into non-empty table = %v, want ErrNotEmpty", err)
	}
}

func TestReadSnapshotRejectsDamage(t *testing.T) {
	src := newTable(t, 0)
	if err := src.Put("row", "doc", "xml", []byte("v")); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := src.Export(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.String()

	cases := map[string]string{
		"garbage header":   "not json at all\n",
		"truncated stream": good[:len(good)-10],
		"count mismatch":   strings.Replace(good, `"cells":1`, `"cells":2`, 1),
		"bad base64":       strings.Replace(good, `"value":"`, `"value":"!!!`, 1),
	}
	for name, stream := range cases {
		if _, err := ReadSnapshot(strings.NewReader(stream)); err == nil {
			t.Errorf("%s: ReadSnapshot accepted damaged stream", name)
		}
	}
}

func TestSnapshotPreservesWALSeqHeader(t *testing.T) {
	var buf bytes.Buffer
	if err := writeSnapshot(&buf, "documents", 42, nil); err != nil {
		t.Fatal(err)
	}
	info, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if info.WALSeq != 42 || info.Table != "documents" {
		t.Fatalf("decoded header = %+v, want WALSeq 42 / table documents", info)
	}
}
