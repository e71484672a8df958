package pool

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

// newTable returns an empty table with the portal's doc and meta
// families. The int is unused; every call site passes 0.
func newTable(t *testing.T, _ int) *Table {
	t.Helper()
	tbl, err := NewTable("documents", FamilySpec{Name: "doc"}, FamilySpec{Name: "meta"})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func (kv KeyValue) coordLess(other KeyValue) bool {
	if kv.Row != other.Row {
		return kv.Row < other.Row
	}
	if kv.Family != other.Family {
		return kv.Family < other.Family
	}
	return kv.Qualifier < other.Qualifier
}

func TestPutGetDelete(t *testing.T) {
	tbl := newTable(t, 0)
	if err := tbl.Put("row1", "doc", "content", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	got, ok := tbl.Get("row1", "doc", "content")
	if !ok || string(got) != "v1" {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	if _, ok := tbl.Get("missing", "doc", "content"); ok {
		t.Fatal("missing row found")
	}
	if _, ok := tbl.Get("row1", "doc", "other"); ok {
		t.Fatal("missing qualifier found")
	}
	if err := tbl.Delete("row1", "doc", "content"); err != nil {
		t.Fatal(err)
	}
	if _, ok := tbl.Get("row1", "doc", "content"); ok {
		t.Fatal("deleted cell still visible")
	}
}

func TestValidationErrors(t *testing.T) {
	tbl := newTable(t, 0)
	if err := tbl.Put("", "doc", "q", []byte("x")); err == nil {
		t.Fatal("empty row accepted")
	}
	if err := tbl.Put("r", "nofam", "q", []byte("x")); err == nil {
		t.Fatal("unknown family accepted")
	}
	if err := tbl.Delete("", "doc", "q"); err == nil {
		t.Fatal("empty row delete accepted")
	}
	if err := tbl.Delete("r", "nofam", "q"); err == nil {
		t.Fatal("unknown family delete accepted")
	}
	if _, ok := tbl.Get("", "doc", "q"); ok {
		t.Fatal("empty row get succeeded")
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := NewTable(""); err == nil {
		t.Fatal("empty table name accepted")
	}
	if _, err := NewTable("t"); err == nil {
		t.Fatal("table without families accepted")
	}
	if _, err := NewTable("t", FamilySpec{Name: "f"}); err != nil {
		t.Fatal(err)
	}
	// The Cluster shim builds the same table and validates the same way.
	c, err := NewCluster(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTable("t"); err == nil {
		t.Fatal("table without families accepted by the shim")
	}
	if tbl, err := c.CreateTable("t", FamilySpec{Name: "f"}); err != nil || tbl.Name() != "t" {
		t.Fatalf("shim CreateTable = %v, %v", tbl, err)
	}
}

func TestOverwriteLatestWins(t *testing.T) {
	tbl := newTable(t, 0)
	for i := 1; i <= 5; i++ {
		if err := tbl.Put("r", "doc", "q", []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	got, _ := tbl.Get("r", "doc", "q")
	if string(got) != "v5" {
		t.Fatalf("latest = %q", got)
	}
}

func TestGetRow(t *testing.T) {
	tbl := newTable(t, 0)
	tbl.Put("r", "doc", "a", []byte("1"))
	tbl.Put("r", "doc", "b", []byte("2"))
	tbl.Put("r", "meta", "c", []byte("3"))
	tbl.Put("other", "doc", "a", []byte("x"))
	kvs := tbl.GetRow("r")
	if len(kvs) != 3 {
		t.Fatalf("GetRow = %d cells", len(kvs))
	}
	// Sorted by (family, qualifier) within the row.
	if kvs[0].Qualifier != "a" || kvs[1].Qualifier != "b" || kvs[2].Family != "meta" {
		t.Fatalf("order wrong: %v", kvs)
	}
}

func TestScanOrderingAndFilters(t *testing.T) {
	tbl := newTable(t, 0)
	rows := []string{"wf#p3", "wf#p1", "todo#u1", "wf#p2", "todo#u2"}
	for i, r := range rows {
		tbl.Put(r, "doc", "content", []byte(fmt.Sprintf("%d", i)))
		tbl.Put(r, "meta", "state", []byte("open"))
	}

	all := tbl.Scan(ScanOptions{})
	if len(all) != 10 {
		t.Fatalf("full scan = %d cells", len(all))
	}
	if !sort.SliceIsSorted(all, func(i, j int) bool { return all[i].coordLess(all[j]) }) {
		t.Fatal("scan not ordered")
	}

	pre := tbl.Scan(ScanOptions{Prefix: "wf#"})
	if len(pre) != 6 {
		t.Fatalf("prefix scan = %d", len(pre))
	}
	fam := tbl.Scan(ScanOptions{Family: "meta"})
	if len(fam) != 5 {
		t.Fatalf("family scan = %d", len(fam))
	}
	lim := tbl.Scan(ScanOptions{Limit: 3})
	if len(lim) != 3 {
		t.Fatalf("limited scan = %d", len(lim))
	}
	rng := tbl.Scan(ScanOptions{StartRow: "todo#u2", EndRow: "wf#p2"})
	for _, kv := range rng {
		if kv.Row < "todo#u2" || kv.Row >= "wf#p2" {
			t.Fatalf("range scan leaked row %q", kv.Row)
		}
	}
	filtered := tbl.Scan(ScanOptions{Filter: func(kv KeyValue) bool { return kv.Qualifier == "state" }})
	if len(filtered) != 5 {
		t.Fatalf("filtered scan = %d", len(filtered))
	}
}

func TestConcurrentClients(t *testing.T) {
	tbl := newTable(t, 0)
	const goroutines = 8
	const perG = 100
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perG; i++ {
				row := fmt.Sprintf("proc-%02d-%03d", g, i)
				if err := tbl.Put(row, "doc", "content", []byte(fmt.Sprintf("%d", i))); err != nil {
					t.Error(err)
					return
				}
				if r.Intn(4) == 0 {
					tbl.Get(row, "doc", "content")
				}
				if r.Intn(16) == 0 {
					tbl.Scan(ScanOptions{Prefix: fmt.Sprintf("proc-%02d-", g), Limit: 5})
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		for i := 0; i < perG; i++ {
			row := fmt.Sprintf("proc-%02d-%03d", g, i)
			if _, ok := tbl.Get(row, "doc", "content"); !ok {
				t.Fatalf("row %s not readable", row)
			}
		}
	}
	kvs := tbl.Scan(ScanOptions{})
	if len(kvs) != goroutines*perG {
		t.Fatalf("scan = %d cells, want %d", len(kvs), goroutines*perG)
	}
}

// TestScansDuringRowCreation: writers keep creating rows at random places
// in the key order while scanners run. Every scan must come back strictly
// ordered, so no coordinate twice, and hold each row's two cells together.
// Meant for -race.
func TestScansDuringRowCreation(t *testing.T) {
	tbl := newTable(t, 0)
	scans := []ScanOptions{{}, {Prefix: "b"}, {StartRow: "a5", EndRow: "c5"}, {Family: "meta", Limit: 50}}
	stop := make(chan struct{})
	var writers, scanners sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 500; i++ {
				row := fmt.Sprintf("%c%04d", 'a'+r.Intn(4), r.Intn(10000))
				v := []byte(row)
				cells := []CellMutation{{Family: "doc", Qualifier: "q", Value: v}, {Family: "meta", Qualifier: "q", Value: v}}
				if err := tbl.Mutate(context.Background(), row, cells); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for _, opts := range scans {
		scanners.Add(1)
		go func(opts ScanOptions) {
			defer scanners.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				kvs := tbl.Scan(opts)
				for i := 1; i < len(kvs); i++ {
					if !kvs[i-1].coordLess(kvs[i]) {
						t.Errorf("scan %+v: %s/%s/%s then %s/%s/%s", opts,
							kvs[i-1].Row, kvs[i-1].Family, kvs[i-1].Qualifier, kvs[i].Row, kvs[i].Family, kvs[i].Qualifier)
						return
					}
				}
				if opts.Family != "" {
					continue
				}
				for i := 0; i < len(kvs); i += 2 {
					if i+1 == len(kvs) || kvs[i+1].Row != kvs[i].Row {
						t.Errorf("scan %+v: row %s returned without its second cell", opts, kvs[i].Row)
						return
					}
				}
			}
		}(opts)
	}
	writers.Wait()
	close(stop)
	scanners.Wait()
}

// TestPropScanEqualsModel: random puts and deletes over row keys that
// share prefixes, in two families, against a flat model map. Every tenth
// operation a random scan must return exactly the model's cells inside
// its bounds, in coordinate order.
func TestPropScanEqualsModel(t *testing.T) {
	tbl := newTable(t, 0)
	model := map[[3]string]string{}
	r := rand.New(rand.NewSource(2026))
	pick := func(xs ...string) string { return xs[r.Intn(len(xs))] }
	rows := []string{"a", "ab", "abc", "abd", "b", "ba", "bab", "c"}
	bounds := []string{"", "", "a", "aa", "ab", "abc", "abz", "b", "bb", "c", "d"}
	prefixes := []string{"", "", "a", "ab", "abc", "b", "ba", "x"}
	for i := 0; i < 3000; i++ {
		k := [3]string{pick(rows...), pick("doc", "meta"), pick("q1", "q2")}
		if r.Intn(10) == 0 {
			tbl.Delete(k[0], k[1], k[2])
			delete(model, k)
		} else {
			v := fmt.Sprintf("v%d", i)
			tbl.Put(k[0], k[1], k[2], []byte(v))
			model[k] = v
		}
		if i%10 != 0 {
			continue
		}
		opts := ScanOptions{
			StartRow: pick(bounds...), EndRow: pick(bounds...), Prefix: pick(prefixes...),
			Family: pick("", "doc", "meta"), Limit: []int{0, 0, 1, 3, 8}[r.Intn(5)],
		}
		var want []KeyValue
		for k, v := range model {
			if k[0] >= opts.StartRow && (opts.EndRow == "" || k[0] < opts.EndRow) &&
				strings.HasPrefix(k[0], opts.Prefix) && (opts.Family == "" || k[1] == opts.Family) {
				want = append(want, KeyValue{Row: k[0], Family: k[1], Qualifier: k[2], Cell: Cell{Value: []byte(v)}})
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i].coordLess(want[j]) })
		if opts.Limit > 0 && len(want) > opts.Limit {
			want = want[:opts.Limit]
		}
		got := tbl.Scan(opts)
		if len(got) != len(want) {
			t.Fatalf("op %d scan %+v: %d cells, model %d", i, opts, len(got), len(want))
		}
		for j := range got {
			if got[j].coordLess(want[j]) || want[j].coordLess(got[j]) || !bytes.Equal(got[j].Value, want[j].Value) {
				t.Fatalf("op %d scan %+v, cell %d: got %s/%s/%s=%q, model %s/%s/%s=%q", i, opts, j,
					got[j].Row, got[j].Family, got[j].Qualifier, got[j].Value,
					want[j].Row, want[j].Family, want[j].Qualifier, want[j].Value)
			}
		}
	}
	if got := tbl.Scan(ScanOptions{}); len(got) != len(model) {
		t.Fatalf("full scan = %d cells, model = %d", len(got), len(model))
	}
}

// TestLatestVersionWinsWhateverTheOrder: each cell keeps one version, the
// highest it was ever given, tombstones included, however late or often
// the writes arrive.
func TestLatestVersionWinsWhateverTheOrder(t *testing.T) {
	tbl := newTable(t, 0)
	apply := func(version int64, cell CellMutation) {
		t.Helper()
		if err := tbl.ApplyReplicated(Mutation{Row: "r", Version: version, Cells: []CellMutation{cell}}); err != nil {
			t.Fatal(err)
		}
	}
	put := func(v string) CellMutation { return CellMutation{Family: "doc", Qualifier: "q", Value: []byte(v)} }
	del := CellMutation{Family: "doc", Qualifier: "q", Del: true}
	read := func() string {
		v, ok := tbl.Get("r", "doc", "q")
		if !ok {
			return "<none>"
		}
		return string(v)
	}
	for _, step := range []struct {
		version int64
		cell    CellMutation
		want    string
	}{
		{5, put("v5"), "v5"},
		{3, put("v3"), "v5"},     // older write delivered late
		{5, put("v5"), "v5"},     // duplicate delivery
		{7, del, "<none>"},       // tombstone
		{6, put("v6"), "<none>"}, // older than the tombstone: stays deleted
		{8, put("v8"), "v8"},     // newer than the tombstone
		{4, del, "v8"},           // stale tombstone
	} {
		apply(step.version, step.cell)
		if got := read(); got != step.want {
			t.Fatalf("after version %d: %s, want %s", step.version, got, step.want)
		}
	}
	if row := tbl.GetRow("r"); len(row) != 1 || row[0].Version != 8 {
		t.Fatalf("row = %+v, want one cell at version 8", row)
	}
	if tbl.VersionClock() != 8 {
		t.Fatalf("version clock = %d, want 8", tbl.VersionClock())
	}
}

func TestEmptyValueStoredNotNil(t *testing.T) {
	tbl := newTable(t, 0)
	tbl.Put("r", "doc", "q", nil)
	got, ok := tbl.Get("r", "doc", "q")
	if !ok || got == nil || len(got) != 0 {
		t.Fatalf("nil value put: got %v, %v (a nil value would read as a tombstone)", got, ok)
	}
}

func TestSnapshotExportImport(t *testing.T) {
	src := newTable(t, 0)
	for i := 0; i < 40; i++ {
		src.Put(fmt.Sprintf("r%02d", i), "doc", "content", []byte(fmt.Sprintf("doc %d", i)))
		src.Put(fmt.Sprintf("r%02d", i), "meta", "state", []byte("running"))
	}
	src.Delete("r00", "doc", "content") // tombstones are not exported

	var buf bytes.Buffer
	if err := src.Export(&buf); err != nil {
		t.Fatal(err)
	}

	dst := newTable(t, 0)
	n, err := dst.Import(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n != 79 { // 80 cells minus the deleted one
		t.Fatalf("imported %d cells", n)
	}
	if _, ok := dst.Get("r00", "doc", "content"); ok {
		t.Fatal("tombstoned cell resurrected by snapshot")
	}
	got, ok := dst.Get("r07", "doc", "content")
	if !ok || string(got) != "doc 7" {
		t.Fatalf("r07 = %q, %v", got, ok)
	}
	if len(dst.Scan(ScanOptions{})) != 79 {
		t.Fatal("scan count mismatch after import")
	}

	// Corrupt snapshots fail cleanly.
	if _, err := dst.Import(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage snapshot accepted")
	}
	truncated := buf.String()[:buf.Len()/2]
	if _, err := newTable(t, 0).Import(strings.NewReader(truncated)); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
}
