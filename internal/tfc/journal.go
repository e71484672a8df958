package tfc

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"dra4wfms/internal/pool"
)

// The persisted forwarding log is one row per record in one column
// family, keyed by append index so scan order is append order. A TFC with
// a local data dir keeps it in its own JournalTable; on a clustered pool
// it shares the drapool fleet's table with the portal's document rows,
// apart under the "rec|" prefix.
const (
	JournalTable  = "tfcstate"
	journalQual   = "json"
	journalPrefix = "rec|"
)

// JournalFamily is the column family every table holding a forwarding log
// declares.
var JournalFamily = pool.FamilySpec{Name: "rec", MaxVersions: 1}

func journalRow(n uint64) string { return fmt.Sprintf(journalPrefix+"%020d", n) }

// Journal makes the server's forwarding log — and with it the replay
// guard — durable in tab: it appends every persisted record to s's log and
// re-arms the replay guard for it, so an intermediate document processed
// before a restart is still rejected with ErrReplay afterwards, then
// installs OnRecord so each new record is written before Process
// acknowledges it. It returns the number of records restored. Call it
// before the server takes traffic.
//
// The next row index comes from the highest restored index, not the row
// count: a failed Put leaves a gap in the sequence, and counting rows
// across a gap would make a later record overwrite a persisted row
// (JournalFamily keeps one version) and silently drop its replay-guard
// entry. An undecodable row is an error, never a skipped record.
func Journal(s *Server, tab pool.DocTable) (int, error) {
	var restored []ForwardRecord
	var next atomic.Uint64
	// The prefix matters on a clustered pool, where other rows share the table.
	for _, kv := range tab.Scan(pool.ScanOptions{Prefix: journalPrefix, Family: JournalFamily.Name}) {
		idx, err := strconv.ParseUint(strings.TrimPrefix(kv.Row, journalPrefix), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("tfc: persisted record key %q: %w", kv.Row, err)
		}
		var rec ForwardRecord
		if err := json.Unmarshal(kv.Value, &rec); err != nil {
			return 0, fmt.Errorf("tfc: decoding persisted record %s: %w", kv.Row, err)
		}
		restored = append(restored, rec)
		if idx >= next.Load() {
			next.Store(idx + 1)
		}
	}
	s.mu.Lock()
	s.records = append(s.records, restored...)
	for _, rec := range restored {
		s.seen[fmt.Sprintf("%s|%s|%d", rec.ProcessID, rec.Activity, rec.Iteration)] = true
	}
	s.mu.Unlock()
	s.OnRecord = func(rec ForwardRecord) error {
		raw, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("encoding forwarding record: %w", err)
		}
		return tab.Put(journalRow(next.Add(1)-1), JournalFamily.Name, journalQual, raw)
	}
	return len(restored), nil
}
