package pool

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// Snapshot support: a table's full live state can be exported to a stream
// and imported into a freshly created table — the operational escape hatch
// for the in-memory pool (backups, process restarts of cmd/draportal,
// migrations between clusters). The snapshot holds every live cell with
// its version; tombstones are not carried.
//
// The same stream format doubles as the Store checkpoint format: a
// checkpoint is a snapshot whose header additionally records the WAL
// sequence watermark covered by it, so recovery knows which WAL suffix
// still has to be replayed (see store.go).

// ErrNotEmpty is returned by Import when the target table already holds
// live cells: importing over existing state would silently interleave two
// version histories.
var ErrNotEmpty = errors.New("pool: import target table is not empty")

// snapshotCell is the portable JSON form of one cell.
type snapshotCell struct {
	Row       string `json:"row"`
	Family    string `json:"family"`
	Qualifier string `json:"qualifier"`
	Value     string `json:"value"` // base64
	Version   int64  `json:"version"`
}

type snapshotHeader struct {
	Table string `json:"table"`
	Cells int    `json:"cells"`
	// WALSeq is the WAL watermark of a checkpoint: every mutation with
	// LSN <= WALSeq is contained in the snapshot. Zero (and absent) for
	// plain Export snapshots.
	WALSeq uint64 `json:"walSeq,omitempty"`
}

// SnapshotInfo is the fully decoded, validated content of one snapshot or
// checkpoint stream.
type SnapshotInfo struct {
	// Table is the name of the table the snapshot was taken from.
	Table string
	// WALSeq is the checkpoint's WAL watermark (0 for plain snapshots).
	WALSeq uint64
	// Cells are the live cells with their original versions, in the
	// stream's order (coordinate order for streams written by this
	// package).
	Cells []KeyValue
}

// writeSnapshot streams a snapshot header plus cells to w.
func writeSnapshot(w io.Writer, table string, walSeq uint64, kvs []KeyValue) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(snapshotHeader{Table: table, Cells: len(kvs), WALSeq: walSeq}); err != nil {
		return fmt.Errorf("pool: writing snapshot header: %w", err)
	}
	for _, kv := range kvs {
		c := snapshotCell{
			Row:       kv.Row,
			Family:    kv.Family,
			Qualifier: kv.Qualifier,
			Value:     base64.StdEncoding.EncodeToString(kv.Value),
			Version:   kv.Version,
		}
		if err := enc.Encode(c); err != nil {
			return fmt.Errorf("pool: writing snapshot cell: %w", err)
		}
	}
	return nil
}

// ReadSnapshot fully decodes and validates a snapshot (or checkpoint)
// stream: the header must parse, every cell must decode, and the declared
// cell count must match. It is the integrity gate recovery and `dractl
// snapshot` rely on — a checkpoint that fails ReadSnapshot is treated as
// corrupt wholesale.
func ReadSnapshot(r io.Reader) (*SnapshotInfo, error) {
	dec := json.NewDecoder(r)
	var hdr snapshotHeader
	if err := dec.Decode(&hdr); err != nil {
		return nil, fmt.Errorf("pool: reading snapshot header: %w", err)
	}
	info := &SnapshotInfo{Table: hdr.Table, WALSeq: hdr.WALSeq}
	for dec.More() {
		var c snapshotCell
		if err := dec.Decode(&c); err != nil {
			return nil, fmt.Errorf("pool: reading snapshot cell %d: %w", len(info.Cells), err)
		}
		raw, err := base64.StdEncoding.DecodeString(c.Value)
		if err != nil {
			return nil, fmt.Errorf("pool: snapshot cell %d: bad value encoding: %w", len(info.Cells), err)
		}
		if raw == nil {
			raw = []byte{}
		}
		info.Cells = append(info.Cells, KeyValue{
			Row: c.Row, Family: c.Family, Qualifier: c.Qualifier,
			Cell: Cell{Value: raw, Version: c.Version},
		})
	}
	if len(info.Cells) != hdr.Cells {
		return nil, fmt.Errorf("pool: snapshot declared %d cells, read %d", hdr.Cells, len(info.Cells))
	}
	return info, nil
}

// WriteSnapshot streams info in the snapshot/checkpoint format — the
// inverse of ReadSnapshot, used by the offline tooling (`dractl
// snapshot`) to re-serialize recovered state.
func WriteSnapshot(w io.Writer, info *SnapshotInfo) error {
	return writeSnapshot(w, info.Table, info.WALSeq, info.Cells)
}

// Export writes the table's live cells as a JSON snapshot.
func (t *Table) Export(w io.Writer) error {
	return writeSnapshot(w, t.name, 0, t.Scan(ScanOptions{}))
}

// Import loads a snapshot into an empty table. Imported cells receive
// fresh versions in snapshot order (the logical clock of the importing
// table owns versioning). Importing into a table that already holds live
// cells fails with ErrNotEmpty — restore into a freshly created table.
// It returns the number of imported cells.
func (t *Table) Import(r io.Reader) (int, error) {
	if len(t.Scan(ScanOptions{Limit: 1})) > 0 {
		return 0, fmt.Errorf("%w: %s", ErrNotEmpty, t.name)
	}
	info, err := ReadSnapshot(r)
	if err != nil {
		return 0, err
	}
	for n, kv := range info.Cells {
		if err := t.Put(kv.Row, kv.Family, kv.Qualifier, kv.Value); err != nil {
			return n, err
		}
	}
	return len(info.Cells), nil
}
