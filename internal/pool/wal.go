package pool

import (
	"encoding/json"
	"fmt"
)

// The mutation WAL is the durability backbone of a Store: every row
// mutation is appended to wal.log as one internal/wal frame before it is
// acknowledged. The frame's payload is a JSON walRec; the clustered pool
// ships the same frames between nodes (replicate.go). One frame carries
// every cell of the mutation, so a torn or damaged frame loses the whole
// mutation and never part of it.

// WAL record operations. Every writer emits walOpRow; walOpPut and
// walOpDel are the single-cell records of data dirs written before row
// mutations existed, and they keep replaying.
const (
	walOpRow = "row"
	walOpPut = "put"
	walOpDel = "del"
)

// walRec is one journaled mutation. LSN is the append sequence number
// (the store's ordering authority); Version is the table's logical clock
// value shared by the mutation's cells, preserved across replay so
// recovered state is identical to the pre-crash live state. A row record
// carries Cells; a legacy put/del record carries its one cell inline.
type walRec struct {
	Op      string         `json:"op"`
	LSN     uint64         `json:"lsn"`
	Row     string         `json:"row"`
	Version int64          `json:"version"`
	Cells   []CellMutation `json:"cells,omitempty"`

	Family    string `json:"family,omitempty"`
	Qualifier string `json:"qualifier,omitempty"`
	Value     []byte `json:"value,omitempty"`
}

// newWALRec builds the record journaling m under sequence number lsn.
func newWALRec(lsn uint64, m Mutation) walRec {
	return walRec{Op: walOpRow, LSN: lsn, Row: m.Row, Version: m.Version, Cells: m.Cells}
}

// decodeWALRec parses one frame payload, refusing shapes no writer
// produces so the log treats them as damage.
func decodeWALRec(payload []byte) (walRec, error) {
	var rec walRec
	if err := json.Unmarshal(payload, &rec); err != nil {
		return walRec{}, fmt.Errorf("undecodable payload: %v", err)
	}
	switch rec.Op {
	case walOpRow:
		if len(rec.Cells) == 0 || rec.Family != "" || rec.Qualifier != "" || rec.Value != nil {
			return walRec{}, fmt.Errorf("malformed row record (%d cells)", len(rec.Cells))
		}
		for _, c := range rec.Cells {
			if c.Del && c.Value != nil {
				return walRec{}, fmt.Errorf("row record deletes %s:%s with a value", c.Family, c.Qualifier)
			}
		}
	case walOpPut, walOpDel:
		if len(rec.Cells) != 0 {
			return walRec{}, fmt.Errorf("%s record with a cells array", rec.Op)
		}
	default:
		return walRec{}, fmt.Errorf("unknown op %q", rec.Op)
	}
	return rec, nil
}

// mutation rebuilds the journaled write. A nil and an empty put value
// encode alike (omitempty drops both); Region.apply stores either as the
// empty value, Del alone makes a tombstone.
func (r walRec) mutation() Mutation {
	m := Mutation{Row: r.Row, Version: r.Version, Cells: r.Cells}
	if r.Op != walOpRow {
		m.Cells = []CellMutation{{Family: r.Family, Qualifier: r.Qualifier, Value: r.Value, Del: r.Op == walOpDel}}
	}
	return m
}
