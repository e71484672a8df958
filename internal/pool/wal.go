package pool

import (
	"encoding/json"
	"fmt"
)

// The mutation WAL is the durability backbone of a Store: every Put and
// Delete is appended to wal.log as one internal/wal frame before the
// mutation is acknowledged. The frame's payload is a JSON walRec; the
// clustered pool ships the same frames between nodes (replicate.go).

// WAL record operations.
const (
	walOpPut = "put"
	walOpDel = "del"
)

// walRec is one journaled mutation. LSN is the append sequence number
// (the store's ordering authority); Version is the table's logical clock
// value assigned to the cell, preserved across replay so recovered state
// is identical to the pre-crash live state.
type walRec struct {
	Op        string `json:"op"`
	LSN       uint64 `json:"lsn"`
	Row       string `json:"row"`
	Family    string `json:"family"`
	Qualifier string `json:"qualifier"`
	Value     []byte `json:"value,omitempty"`
	Version   int64  `json:"version"`
}

// newWALRec builds the record journaling m under sequence number lsn. A
// nil and an empty put value encode alike (omitempty drops both);
// mutation restores the non-nil empty value that tells a put from a
// tombstone.
func newWALRec(lsn uint64, m Mutation) walRec {
	rec := walRec{
		Op: walOpPut, LSN: lsn,
		Row: m.KV.Row, Family: m.KV.Family, Qualifier: m.KV.Qualifier,
		Version: m.KV.Version,
	}
	if m.Del {
		rec.Op = walOpDel
	} else {
		rec.Value = m.KV.Value
	}
	return rec
}

// decodeWALRec parses one frame payload, refusing shapes no writer
// produces so the log treats them as damage.
func decodeWALRec(payload []byte) (walRec, error) {
	var rec walRec
	if err := json.Unmarshal(payload, &rec); err != nil {
		return walRec{}, fmt.Errorf("undecodable payload: %v", err)
	}
	if rec.Op != walOpPut && rec.Op != walOpDel {
		return walRec{}, fmt.Errorf("unknown op %q", rec.Op)
	}
	return rec, nil
}

// mutation rebuilds the journaled write; a del record becomes a tombstone.
func (r walRec) mutation() Mutation {
	m := Mutation{
		Del: r.Op == walOpDel,
		KV:  KeyValue{Row: r.Row, Family: r.Family, Qualifier: r.Qualifier, Cell: Cell{Version: r.Version}},
	}
	if !m.Del {
		m.KV.Value = r.Value
		if m.KV.Value == nil {
			m.KV.Value = []byte{}
		}
	}
	return m
}
