package tfc

import (
	"bytes"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"dra4wfms/internal/document"
	"dra4wfms/internal/pool"
	"dra4wfms/internal/wfdef"
)

// A notarization is one row in one column family:
//
//	tfc|<process>|<activity>|<iteration, 10 digits>
//	rec:json    = the ForwardRecord
//	rec:digest  = SHA-256 of the intermediate CER's canonical bytes
//	rec:final   = the final CER, as a document.Delta's wire form
//
// '%' and '|' in the process and activity IDs are percent-escaped, so no
// ID ends early, no two notarizations share a key, and tfc|<process>|
// selects one instance's rows. A TFC with a local data dir keeps them in
// its own JournalTable; on a clustered pool it shares the drapool fleet's
// table with the portal's document rows, apart under the prefix. The
// earlier layout, one rec:json per append index under rec|<20 digits>,
// is rekeyed by Journal.
const (
	JournalTable                      = "tfcstate"
	rowPrefix, legacyPrefix           = "tfc|", "rec|"
	recordQual, digestQual, finalQual = "json", "digest", "final"
)

// JournalFamily is the column family every table holding notarizations
// declares.
var JournalFamily = pool.FamilySpec{Name: "rec"}

var keyEscaper = strings.NewReplacer("%", "%25", "|", "%7C")

func instancePrefix(processID string) string {
	return rowPrefix + keyEscaper.Replace(processID) + "|"
}

func rowKey(processID, activity string, iteration int) string {
	return fmt.Sprintf("%s%s|%010d", instancePrefix(processID), keyEscaper.Replace(activity), iteration)
}

// answer answers a submission from the notarization in row, byte for byte
// as it was first answered. It returns nil when there is no row, ErrReplay
// when the row was written for another intermediate CER or holds no final
// CER (a rekeyed legacy row), and an error when the row does not decode.
func (s *Server) answer(row string, digest []byte, work *document.Document, nsigs int, verifyStart time.Time) (*Outcome, error) {
	cells := map[string][]byte{}
	for _, kv := range s.table.GetRow(row) {
		cells[kv.Qualifier] = kv.Value
	}
	if len(cells) == 0 {
		return nil, nil
	}
	var rec ForwardRecord
	if err := json.Unmarshal(cells[recordQual], &rec); err != nil {
		return nil, fmt.Errorf("tfc: decoding the record of %s: %w", row, err)
	}
	if _, ok := cells[finalQual]; !ok || subtle.ConstantTimeCompare(cells[digestQual], digest) != 1 {
		mReplayRejections.Inc()
		return nil, fmt.Errorf("%w: %s %s iteration %d", ErrReplay, rec.ProcessID, rec.Activity, rec.Iteration)
	}
	// ParseDelta parses in place, and the cell is the table's.
	final, err := document.ParseDelta(bytes.Clone(cells[finalQual]))
	if err != nil || len(final.CERs) != 1 {
		return nil, fmt.Errorf("tfc: decoding the final CER of %s (%d CERs): %v", row, len(final.CERs), err)
	}
	return &Outcome{Doc: work.With(final.CERs), CER: final.CERs[0], Next: rec.Next,
		Completed: slices.Contains(rec.Next, wfdef.EndID), VerifiedSignatures: nsigs,
		Timestamp: rec.Timestamp, VerifyDuration: time.Since(verifyStart)}, nil
}

// RecordsFor returns the forwarding log entries of one process instance,
// or the whole log when processID is empty, in timestamp order: the data
// source for workflow monitoring in the advanced model.
func (s *Server) RecordsFor(processID string) ([]ForwardRecord, error) {
	prefix := rowPrefix
	if processID != "" {
		prefix = instancePrefix(processID)
	}
	var out []ForwardRecord
	for _, kv := range s.table.Scan(pool.ScanOptions{Prefix: prefix, Family: JournalFamily.Name,
		Filter: func(kv pool.KeyValue) bool { return kv.Qualifier == recordQual }}) {
		var rec ForwardRecord
		if err := json.Unmarshal(kv.Value, &rec); err != nil {
			return nil, fmt.Errorf("tfc: decoding the record of %s: %w", kv.Row, err)
		}
		out = append(out, rec)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Timestamp.Before(out[j].Timestamp) })
	return out, nil
}

// Journal points s at tab, a table declaring JournalFamily, so that its
// notarizations outlive the process: a restarted server answers or
// refuses a resubmission from the row as the first one did. Call it
// before the server takes traffic.
//
// Rows of the earlier layout are rekeyed first: each becomes its
// notarization's row holding the record alone, which refuses a
// resubmission but cannot answer it, and is then deleted. A crash between
// the two steps leaves both rows, and the next call writes the same
// keyed row again. A damaged legacy row is an error, and s keeps its
// table. It returns the number of rows rekeyed.
func Journal(s *Server, tab pool.DocTable) (int, error) {
	legacy := tab.Scan(pool.ScanOptions{Prefix: legacyPrefix, Family: JournalFamily.Name})
	for _, kv := range legacy {
		var rec ForwardRecord
		err := json.Unmarshal(kv.Value, &rec)
		if idx := strings.TrimPrefix(kv.Row, legacyPrefix); len(idx) != 20 || strings.Trim(idx, "0123456789") != "" {
			err = errors.New("the key is not rec|<20 digits>")
		}
		if err != nil {
			return 0, fmt.Errorf("tfc: damaged legacy record %s: %w", kv.Row, err)
		}
		if err := tab.Put(rowKey(rec.ProcessID, rec.Activity, rec.Iteration), JournalFamily.Name, recordQual, kv.Value); err != nil {
			return 0, fmt.Errorf("tfc: rekeying legacy record %s: %w", kv.Row, err)
		}
		if err := tab.Delete(kv.Row, kv.Family, kv.Qualifier); err != nil {
			return 0, fmt.Errorf("tfc: deleting rekeyed legacy record %s: %w", kv.Row, err)
		}
	}
	s.table = tab
	return len(legacy), nil
}
