package tfc

import (
	"errors"
	"strings"
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

// failingPuts is a DocTable whose Put fails while fail is set.
type failingPuts struct {
	pool.DocTable
	fail bool
}

func (f *failingPuts) Put(row, family, qualifier string, value []byte) error {
	if f.fail {
		return errors.New("put refused")
	}
	return f.DocTable.Put(row, family, qualifier, value)
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

func journalRows(tab pool.DocTable) []string {
	var rows []string
	for _, kv := range tab.Scan(pool.ScanOptions{Family: JournalFamily.Name}) {
		rows = append(rows, kv.Row)
	}
	return rows
}

func TestJournalRestartRearmsReplayGuard(t *testing.T) {
	f := newFig9B(t)
	tab := journalTable(t)
	if n := f.restart(t, tab); n != 0 {
		t.Fatalf("restored %d records from an empty table", n)
	}
	interm := f.intermediate(t, f.doc, "A", aea.Inputs{"request": "req"})
	if _, err := f.server.Process(interm); err != nil {
		t.Fatal(err)
	}

	if n := f.restart(t, tab); n != 1 {
		t.Fatalf("restored %d records, want 1", n)
	}
	if _, err := f.server.Process(interm); !errors.Is(err, ErrReplay) {
		t.Fatalf("second Process of the same intermediate after restart = %v, want ErrReplay", err)
	}
	if recs := f.server.Records(); len(recs) != 1 || recs[0].Activity != "A" {
		t.Fatalf("restored log = %+v", recs)
	}
}

// A Put that fails once consumes its index and leaves a gap. After a
// restart the next record must land past the highest restored index, not
// at the row count, or it would overwrite a persisted row and drop that
// row's replay-guard entry.
func TestJournalWritesPastAGap(t *testing.T) {
	f := newFig9B(t)
	tab := &failingPuts{DocTable: journalTable(t)}
	f.restart(t, tab)

	outA := f.step(t, f.doc, "A", aea.Inputs{"request": "req"}) // row 0
	b1 := f.intermediate(t, outA.Routed["B1"], "B1", aea.Inputs{"techReview": "ok"})
	tab.fail = true
	if _, err := f.server.Process(b1); err == nil { // index 1 is lost
		t.Fatal("Process acknowledged a record its journal refused")
	}
	tab.fail = false
	if _, err := f.server.Process(b1); err != nil { // row 2
		t.Fatalf("retry after the journal recovered: %v", err)
	}
	want := []string{journalRow(0), journalRow(2)}
	if got := journalRows(tab); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("rows = %v, want %v", got, want)
	}

	if n := f.restart(t, tab); n != 2 {
		t.Fatalf("restored %d records, want 2", n)
	}
	f.step(t, outA.Routed["B2"], "B2", aea.Inputs{"budgetReview": "ok"})
	want = append(want, journalRow(3))
	if got := journalRows(tab); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("rows after restart = %v, want %v (row 2 must not be overwritten)", got, want)
	}
	// Row 2's guard entry survived: B1 is still a replay after another restart.
	f.restart(t, tab)
	if _, err := f.server.Process(b1); !errors.Is(err, ErrReplay) {
		t.Fatalf("B1 after the second restart = %v, want ErrReplay", err)
	}
}

func TestJournalRefusesDamagedRows(t *testing.T) {
	cases := map[string]struct{ row, value string }{
		"undecodable value": {journalRow(0), "{not json"},
		"malformed key":     {journalPrefix + "seven", "{}"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			tab := journalTable(t)
			if err := tab.Put(tc.row, JournalFamily.Name, journalQual, []byte(tc.value)); err != nil {
				t.Fatal(err)
			}
			s := New(nil, nil, nil)
			if _, err := Journal(s, tab); err == nil {
				t.Fatal("Journal skipped a damaged row instead of failing")
			}
			if s.OnRecord != nil {
				t.Fatal("Journal installed OnRecord over a log it could not restore")
			}
		})
	}
}

// On a clustered pool the table is shared with the portal's rows; only
// rows under the journal prefix are the forwarding log.
func TestJournalReadsOnlyItsPrefix(t *testing.T) {
	tab := journalTable(t, pool.FamilySpec{Name: "doc"})
	for _, put := range [][3]string{
		{"proc-1", "doc", "<xml/>"},
		{"proc-1", JournalFamily.Name, "not a record"},
		{"tpl#fig9a", JournalFamily.Name, "not a record"},
		{journalRow(4), JournalFamily.Name, `{"ProcessID":"p","Activity":"A","Iteration":1}`},
	} {
		if err := tab.Put(put[0], put[1], journalQual, []byte(put[2])); err != nil {
			t.Fatal(err)
		}
	}
	s := New(nil, nil, nil)
	n, err := Journal(s, tab)
	if err != nil || n != 1 {
		t.Fatalf("Journal = %d, %v; want the one rec| row", n, err)
	}
	if recs := s.Records(); len(recs) != 1 || recs[0].ProcessID != "p" {
		t.Fatalf("restored %+v", recs)
	}
}
