package tfc

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"dra4wfms/internal/aea"
	"dra4wfms/internal/document"
	"dra4wfms/internal/pool"
)

func journalTable(t *testing.T, extra ...pool.FamilySpec) *pool.Table {
	t.Helper()
	tab, err := pool.NewTable(JournalTable, append(extra, JournalFamily)...)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

var errMutate = errors.New("mutate refused")

// failingMutates is a DocTable whose Mutate fails while fail is set.
type failingMutates struct {
	pool.DocTable
	fail bool
}

func (f *failingMutates) Mutate(ctx context.Context, row string, cells []pool.CellMutation) error {
	if f.fail {
		return errMutate
	}
	return f.DocTable.Mutate(ctx, row, cells)
}

// restart is what a daemon reboot does to the TFC: a fresh server over
// the same table.
func (f *fixture) restart(t *testing.T, tab pool.DocTable) int {
	t.Helper()
	f.server = New(f.env.KeyOf("tfc@cloud"), f.env.Registry, clock())
	n, err := Journal(f.server, tab)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func (f *fixture) intermediate(t *testing.T, doc *document.Document, activity string, inputs aea.Inputs) *document.Document {
	t.Helper()
	interm, err := f.agents[activity].ExecuteToTFC(doc, activity, inputs)
	if err != nil {
		t.Fatal(err)
	}
	return interm
}

// reexecute runs activity again on a fresh AEA of its participant, which
// has no memory of the first execution: another intermediate CER for the
// same step.
func (f *fixture) reexecute(t *testing.T, doc *document.Document, activity string, inputs aea.Inputs) *document.Document {
	t.Helper()
	fresh := aea.New(f.env.KeyOf(f.agents[activity].Keys.Owner), f.env.Registry)
	interm, err := fresh.ExecuteToTFC(doc, activity, inputs)
	if err != nil {
		t.Fatal(err)
	}
	return interm
}

// resubmit sends interm again as a retry does, parsed from its bytes.
func (f *fixture) resubmit(t *testing.T, interm *document.Document) *Outcome {
	t.Helper()
	again, err := document.Parse(interm.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	out, err := f.server.Process(again)
	if err != nil {
		t.Fatalf("resubmitted intermediate: %v", err)
	}
	return out
}

// sameAnswer checks that got is, byte for byte, the answer first was.
func sameAnswer(t *testing.T, first, got *Outcome) {
	t.Helper()
	if !bytes.Equal(first.CER.El.Canonical(), got.CER.El.Canonical()) {
		t.Fatal("the resubmission got another final CER")
	}
	if !bytes.Equal(first.Doc.Bytes(), got.Doc.Bytes()) {
		t.Fatal("the resubmission got another document")
	}
	if !first.Timestamp.Equal(got.Timestamp) || strings.Join(first.Next, ",") != strings.Join(got.Next, ",") || first.Completed != got.Completed {
		t.Fatalf("the resubmission got %v %v %v, the first answer was %v %v %v",
			got.Timestamp, got.Next, got.Completed, first.Timestamp, first.Next, first.Completed)
	}
}

// TestLostResponseAnsweredFromRow: a participant whose response was lost
// resubmits the same intermediate and gets the first answer from the row,
// with no second timestamp or signature.
func TestLostResponseAnsweredFromRow(t *testing.T) {
	f := newFig9B(t)
	interm := f.intermediate(t, f.doc, "A", aea.Inputs{"request": "req"})
	stamps := mTimestamps.Value()
	first, err := f.server.Process(interm)
	if err != nil {
		t.Fatal(err)
	}
	got := f.resubmit(t, interm)
	sameAnswer(t, first, got)
	if n := mTimestamps.Value() - stamps; n != 1 {
		t.Fatalf("%d notarizations, want 1", n)
	}
	if recs, err := f.server.RecordsFor(f.doc.ProcessID()); err != nil || len(recs) != 1 {
		t.Fatalf("records = %+v, %v; want one", recs, err)
	}
	if n, err := got.Doc.VerifyAll(f.env.Registry); err != nil || n != 3 {
		t.Fatalf("answer from the row: VerifyAll = %d, %v", n, err)
	}
	// The answered document goes on like the first one: B1's hop is notarized.
	f.step(t, got.Doc, "B1", aea.Inputs{"techReview": "ok"})
}

// TestDifferentIntermediateRefused: a fresh AEA execution for a notarized
// step is another intermediate CER, and is refused as a replay.
func TestDifferentIntermediateRefused(t *testing.T) {
	f := newFig9B(t)
	f.step(t, f.doc, "A", aea.Inputs{"request": "req"})
	other := f.reexecute(t, f.doc, "A", aea.Inputs{"request": "req"})
	rejections := mReplayRejections.Value()
	if _, err := f.server.Process(other); !errors.Is(err, ErrReplay) {
		t.Fatalf("a different intermediate for A iteration 0 = %v, want ErrReplay", err)
	}
	if mReplayRejections.Value() != rejections+1 {
		t.Fatal("the refusal was not counted")
	}
}

// TestConcurrentIdenticalSubmissions: a submission and its duplicate
// arriving together are notarized once and get the same bytes.
func TestConcurrentIdenticalSubmissions(t *testing.T) {
	f := newFig9B(t)
	interm := f.intermediate(t, f.doc, "A", aea.Inputs{"request": "req"})
	stamps := mTimestamps.Value()
	var outs [2]*Outcome
	var errs [2]error
	var wg sync.WaitGroup
	for i := range outs {
		doc, err := document.Parse(interm.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i], errs[i] = f.server.Process(doc)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := mTimestamps.Value() - stamps; n != 1 {
		t.Fatalf("%d notarizations, want 1", n)
	}
	sameAnswer(t, outs[0], outs[1])
}

// TestJournalRestartRearmsReplayGuard: a second server on the first one's
// table answers the same intermediate from the first one's row and
// refuses a different one.
func TestJournalRestartRearmsReplayGuard(t *testing.T) {
	f := newFig9B(t)
	tab := journalTable(t)
	if n := f.restart(t, tab); n != 0 {
		t.Fatalf("rekeyed %d rows of an empty table", n)
	}
	interm := f.intermediate(t, f.doc, "A", aea.Inputs{"request": "req"})
	first, err := f.server.Process(interm)
	if err != nil {
		t.Fatal(err)
	}

	if n := f.restart(t, tab); n != 0 {
		t.Fatalf("rekeyed %d rows of a table in the current layout", n)
	}
	stamps := mTimestamps.Value()
	sameAnswer(t, first, f.resubmit(t, interm))
	if mTimestamps.Value() != stamps {
		t.Fatal("the restarted server notarized the step again")
	}
	other := f.reexecute(t, f.doc, "A", aea.Inputs{"request": "req"})
	if _, err := f.server.Process(other); !errors.Is(err, ErrReplay) {
		t.Fatalf("a different intermediate after restart = %v, want ErrReplay", err)
	}
	if recs, err := f.server.RecordsFor(""); err != nil || len(recs) != 1 || recs[0].Activity != "A" {
		t.Fatalf("records after restart = %+v, %v", recs, err)
	}
}

// putLegacy writes rec the way the earlier layout did: rec|<index>.
func putLegacy(t *testing.T, tab pool.DocTable, index int, rec ForwardRecord) {
	t.Helper()
	raw, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Put(fmt.Sprintf("rec|%020d", index), JournalFamily.Name, recordQual, raw); err != nil {
		t.Fatal(err)
	}
}

// TestJournalRekeysLegacyRows: rows of the earlier layout become keyed
// rows holding the record alone, which list as before and refuse the
// intermediate they recorded; a second run, or one after a crash between
// the write and the delete, changes nothing.
func TestJournalRekeysLegacyRows(t *testing.T) {
	f := newFig9B(t)
	interm := f.intermediate(t, f.doc, "A", aea.Inputs{"request": "req"})
	pid := f.doc.ProcessID()
	tab := journalTable(t)
	recA := ForwardRecord{ProcessID: pid, Activity: "A", Participant: f.agents["A"].Keys.Owner, Timestamp: base, Next: []string{"B1", "B2"}, Size: 1}
	recB := ForwardRecord{ProcessID: "other|instance", Activity: "B1", Iteration: 2, Timestamp: base.Add(-1)}
	putLegacy(t, tab, 0, recA)
	putLegacy(t, tab, 2, recB) // a gap, as a failed write left one

	if n := f.restart(t, tab); n != 2 {
		t.Fatalf("rekeyed %d rows, want 2", n)
	}
	if left := tab.Scan(pool.ScanOptions{Prefix: legacyPrefix}); len(left) != 0 {
		t.Fatalf("legacy rows left: %v", left)
	}
	recs, err := f.server.RecordsFor("")
	if err != nil || len(recs) != 2 || recs[0].ProcessID != recB.ProcessID || recs[1].ProcessID != pid {
		t.Fatalf("records = %+v, %v; want B1's then A's, in timestamp order", recs, err)
	}
	if recs, err := f.server.RecordsFor(pid); err != nil || len(recs) != 1 || recs[0].Activity != "A" {
		t.Fatalf("records for %s = %+v, %v", pid, recs, err)
	}
	if _, err := f.server.Process(interm); !errors.Is(err, ErrReplay) {
		t.Fatalf("an intermediate a legacy row recorded = %v, want ErrReplay", err)
	}

	// A crash after the keyed write and before the delete leaves the
	// legacy row beside its keyed one; the next boot rewrites the same row.
	putLegacy(t, tab, 0, recA)
	if n := f.restart(t, tab); n != 1 {
		t.Fatalf("rekeyed %d rows after the crash, want 1", n)
	}
	if n := f.restart(t, tab); n != 0 {
		t.Fatalf("a second run rekeyed %d rows", n)
	}
	if recs, err := f.server.RecordsFor(""); err != nil || len(recs) != 2 {
		t.Fatalf("records after the reruns = %+v, %v", recs, err)
	}
	if _, err := f.server.Process(interm); !errors.Is(err, ErrReplay) {
		t.Fatalf("after the reruns = %v, want ErrReplay", err)
	}
}

func TestJournalRefusesDamagedRows(t *testing.T) {
	cases := map[string]struct{ row, value string }{
		"undecodable value": {"rec|00000000000000000000", "{not json"},
		"malformed key":     {legacyPrefix + "seven", "{}"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			tab := journalTable(t)
			if err := tab.Put(tc.row, JournalFamily.Name, recordQual, []byte(tc.value)); err != nil {
				t.Fatal(err)
			}
			s := New(nil, nil, nil)
			if _, err := Journal(s, tab); err == nil {
				t.Fatal("Journal skipped a damaged row instead of failing")
			}
			if s.table == pool.DocTable(tab) {
				t.Fatal("Journal pointed the server at a table it could not rekey")
			}
		})
	}
}

// TestUndecodableRowIsAnError: a row for the submitted intermediate that
// does not decode fails the submission; it is neither a replay nor
// notarized again.
func TestUndecodableRowIsAnError(t *testing.T) {
	f := newFig9B(t)
	interm := f.intermediate(t, f.doc, "A", aea.Inputs{"request": "req"})
	pending, err := pendingIntermediate(interm)
	if err != nil {
		t.Fatal(err)
	}
	digest := sha256.Sum256(pending.El.Canonical())
	for qual, value := range map[string]string{recordQual: "{not json", finalQual: "<Delta/>"} {
		tab := journalTable(t)
		f.restart(t, tab)
		row := rowKey(f.doc.ProcessID(), "A", 0)
		for _, cell := range []pool.CellMutation{
			{Family: JournalFamily.Name, Qualifier: recordQual, Value: []byte("{}")},
			{Family: JournalFamily.Name, Qualifier: digestQual, Value: digest[:]},
			{Family: JournalFamily.Name, Qualifier: finalQual, Value: []byte("<Delta><CER/></Delta>")},
			{Family: JournalFamily.Name, Qualifier: qual, Value: []byte(value)},
		} {
			if err := tab.Put(row, cell.Family, cell.Qualifier, cell.Value); err != nil {
				t.Fatal(err)
			}
		}
		stamps := mTimestamps.Value()
		if _, err := f.server.Process(interm); err == nil || errors.Is(err, ErrReplay) {
			t.Fatalf("damaged %s cell: Process = %v, want a decoding error", qual, err)
		}
		if mTimestamps.Value() != stamps {
			t.Fatalf("damaged %s cell: the step was notarized again", qual)
		}
	}
}

// On a clustered pool the table is shared with the portal's rows; only
// rows under the legacy prefix are rekeyed, and only rows under the
// notarization prefix are the forwarding log.
func TestJournalReadsOnlyItsPrefix(t *testing.T) {
	tab := journalTable(t, pool.FamilySpec{Name: "doc"})
	for _, put := range [][3]string{
		{"proc-1", "doc", "<xml/>"},
		{"proc-1", JournalFamily.Name, "not a record"},
		{"tpl#fig9a", JournalFamily.Name, "not a record"},
		{"rec|00000000000000000004", JournalFamily.Name, `{"ProcessID":"p","Activity":"A","Iteration":1}`},
	} {
		if err := tab.Put(put[0], put[1], recordQual, []byte(put[2])); err != nil {
			t.Fatal(err)
		}
	}
	s := New(nil, nil, nil)
	n, err := Journal(s, tab)
	if err != nil || n != 1 {
		t.Fatalf("Journal = %d, %v; want the one rec| row", n, err)
	}
	if recs, err := s.RecordsFor(""); err != nil || len(recs) != 1 || recs[0].ProcessID != "p" {
		t.Fatalf("records %+v, %v", recs, err)
	}
}

// TestRowKeysDoNotCollide: process and activity IDs are not charset
// checked, so '|' and '%' in them must not make two steps share a row or
// one instance's prefix select another's rows.
func TestRowKeysDoNotCollide(t *testing.T) {
	steps := [][2]string{{"a|b", "c"}, {"a", "b|c"}, {"a%7Cb", "c"}, {"a", "b%7Cc"}, {"a", "b"}}
	keys := map[string]bool{}
	for _, st := range steps {
		k := rowKey(st[0], st[1], 0)
		if keys[k] {
			t.Fatalf("two steps share the row %q", k)
		}
		keys[k] = true
		for _, other := range steps {
			if other[0] != st[0] && strings.HasPrefix(k, instancePrefix(other[0])) {
				t.Fatalf("instance %q's prefix selects %q's row %q", other[0], st[0], k)
			}
		}
	}
}
