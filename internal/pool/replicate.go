package pool

import (
	"encoding/json"
	"fmt"

	"dra4wfms/internal/wal"
)

// Replication support: the clustered pool (internal/poolcluster) ships
// mutations between nodes as the exact CRC-framed records the durable
// store appends to its WAL, so the wire format, the corruption checks,
// and the size bound are shared with crash recovery instead of being a
// second, subtly different codec. A frame carries the coordinator's
// replication sequence number in the LSN slot and the coordinator's
// version-clock value in Version, so every replica that applies it ends
// up with byte-identical cells — latest-wins conflict resolution then
// needs no per-node tie-breaking.

// CellMutation is one cell of a row mutation: a put of Value at
// (Family, Qualifier) or, when Del is set, a tombstone there.
type CellMutation struct {
	Family    string `json:"family"`
	Qualifier string `json:"qualifier"`
	Value     []byte `json:"value,omitempty"`
	Del       bool   `json:"del,omitempty"`
}

// Mutation is one table write in transportable form: puts and deletes
// on one row that share one version and take effect together — in the
// WAL, on every replica and in memory, all of Cells or none.
type Mutation struct {
	Row     string
	Version int64
	Cells   []CellMutation
}

// Mutation is the write that installs kv with its version preserved —
// how snapshots and checkpoints, whose cells each carry their own
// version, go back into a table.
func (kv KeyValue) Mutation() Mutation {
	return Mutation{Row: kv.Row, Version: kv.Version, Cells: []CellMutation{
		{Family: kv.Family, Qualifier: kv.Qualifier, Value: kv.Value, Del: kv.IsTombstone()},
	}}
}

// EncodeMutationFrame frames m as a checksummed WAL record carrying seq
// as its sequence number. The frame is self-validating: DecodeMutationFrame
// (and store recovery's scan) refuse it on any header, length, or
// checksum damage.
func EncodeMutationFrame(seq uint64, m Mutation) ([]byte, error) {
	payload, err := json.Marshal(newWALRec(seq, m))
	if err != nil {
		return nil, fmt.Errorf("pool: encoding replication frame: %w", err)
	}
	return wal.EncodeFrame(payload)
}

// DecodeMutationFrame validates and decodes one replication frame,
// returning the sequence number it was encoded with.
func DecodeMutationFrame(frame []byte) (uint64, Mutation, error) {
	payload, err := wal.DecodeFrame(frame)
	if err != nil {
		return 0, Mutation{}, fmt.Errorf("pool: replication frame: %w", err)
	}
	rec, err := decodeWALRec(payload)
	if err != nil {
		return 0, Mutation{}, fmt.Errorf("pool: replication frame: %w", err)
	}
	return rec.LSN, rec.mutation(), nil
}

// ApplyReplicated applies a mutation that carries a coordinator-assigned
// version: the table's logical clock is advanced past it (so locally
// minted versions can never collide with replicated ones) and the cells
// are stored with that version preserved — replicas converge to identical
// state regardless of apply order, because latest-wins resolves by
// version. When the table has a durable store attached the mutation is
// journaled to the local WAL before this call returns, exactly like a
// local Mutate.
func (t *Table) ApplyReplicated(m Mutation) error {
	t.advanceClock(m.Version)
	return t.commit(m)
}

// VersionClock returns the table's current logical version clock. A
// cluster coordinator seeds its global clock from the maximum across its
// nodes on startup, so versions keep ascending across restarts.
func (t *Table) VersionClock() int64 { return t.seq.Load() }
