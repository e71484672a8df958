package pool

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

func newTable(t *testing.T, split int) *Table {
	t.Helper()
	c, err := NewCluster([]string{"rs1", "rs2", "rs3"}, split)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := c.CreateTable("documents",
		FamilySpec{Name: "doc", MaxVersions: 3},
		FamilySpec{Name: "meta", MaxVersions: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
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
	if _, err := NewCluster(nil, 0); err == nil {
		t.Fatal("empty cluster accepted")
	}
	c, _ := NewCluster([]string{"rs1"}, 0)
	if _, err := c.CreateTable(""); err == nil {
		t.Fatal("empty table name accepted")
	}
	if _, err := c.CreateTable("t"); err == nil {
		t.Fatal("table without families accepted")
	}
	if _, err := c.CreateTable("t", FamilySpec{Name: "f"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTable("t", FamilySpec{Name: "f"}); err == nil {
		t.Fatal("duplicate table accepted")
	}
	if _, err := c.Table("t"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Table("nope"); err == nil {
		t.Fatal("unknown table found")
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

func TestRegionSplitAndRouting(t *testing.T) {
	tbl := newTable(t, 4096)
	val := make([]byte, 256)
	for i := 0; i < 64; i++ {
		row := fmt.Sprintf("row-%03d", i)
		if err := tbl.Put(row, "doc", "content", val); err != nil {
			t.Fatal(err)
		}
	}
	regions := tbl.Regions()
	if len(regions) < 2 {
		t.Fatalf("no split happened: %d region(s)", len(regions))
	}
	// Regions must tile the key space.
	if regions[0].Start() != "" || regions[len(regions)-1].End() != "" {
		t.Fatal("regions do not cover the key space")
	}
	for i := 1; i < len(regions); i++ {
		if regions[i].Start() != regions[i-1].End() {
			t.Fatalf("gap between regions %d and %d", i-1, i)
		}
	}
	// Every row remains readable after splits.
	for i := 0; i < 64; i++ {
		row := fmt.Sprintf("row-%03d", i)
		if _, ok := tbl.Get(row, "doc", "content"); !ok {
			t.Fatalf("row %s lost after split", row)
		}
	}
	// Scans still return everything in order.
	kvs := tbl.Scan(ScanOptions{})
	if len(kvs) != 64 {
		t.Fatalf("scan after splits = %d", len(kvs))
	}
	// Splits were recorded.
	if tbl.cluster.Splits("documents") == 0 {
		t.Fatal("no splits recorded")
	}
}

func TestConcurrentClients(t *testing.T) {
	tbl := newTable(t, 8192)
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
	kvs := tbl.Scan(ScanOptions{})
	if len(kvs) != goroutines*perG {
		t.Fatalf("scan = %d cells, want %d", len(kvs), goroutines*perG)
	}
}

// TestPropScanEqualsModel: random operations against the store and a flat
// model map must agree.
func TestPropScanEqualsModel(t *testing.T) {
	tbl := newTable(t, 0)
	model := map[[3]string]string{}
	r := rand.New(rand.NewSource(2026))
	rows := []string{"a", "b", "c", "d", "e"}
	quals := []string{"q1", "q2"}
	for i := 0; i < 2000; i++ {
		row := rows[r.Intn(len(rows))]
		qual := quals[r.Intn(len(quals))]
		switch r.Intn(10) {
		case 0:
			tbl.Delete(row, "doc", qual)
			delete(model, [3]string{row, "doc", qual})
		default:
			v := fmt.Sprintf("v%d", i)
			tbl.Put(row, "doc", qual, []byte(v))
			model[[3]string{row, "doc", qual}] = v
		}
	}
	got := tbl.Scan(ScanOptions{})
	if len(got) != len(model) {
		t.Fatalf("scan = %d cells, model = %d", len(got), len(model))
	}
	for _, kv := range got {
		want, ok := model[[3]string{kv.Row, kv.Family, kv.Qualifier}]
		if !ok || want != string(kv.Value) {
			t.Fatalf("divergence at %s/%s/%s: got %q want %q", kv.Row, kv.Family, kv.Qualifier, kv.Value, want)
		}
	}
}

func TestMaxVersionsBound(t *testing.T) {
	tbl := newTable(t, 0)
	region := tbl.Regions()[0]
	for i := 0; i < 10; i++ {
		tbl.Put("r", "doc", "q", []byte(fmt.Sprintf("v%d", i)))
	}
	region.mu.RLock()
	nVersions := len(region.rows["r"]["doc"]["q"])
	region.mu.RUnlock()
	if nVersions != 3 { // doc family declares MaxVersions 3
		t.Fatalf("retained versions = %d, want 3", nVersions)
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

func TestGetVersions(t *testing.T) {
	tbl := newTable(t, 0) // doc family keeps 3 versions
	for i := 1; i <= 5; i++ {
		tbl.Put("r", "doc", "q", []byte(fmt.Sprintf("v%d", i)))
	}
	vs := tbl.GetVersions("r", "doc", "q")
	if len(vs) != 3 {
		t.Fatalf("versions = %d, want 3", len(vs))
	}
	if string(vs[0].Value) != "v5" || string(vs[2].Value) != "v3" {
		t.Fatalf("version order: %q ... %q", vs[0].Value, vs[2].Value)
	}
	tbl.Put("r", "doc", "q", []byte("v6"))
	vs = tbl.GetVersions("r", "doc", "q")
	if len(vs) < 2 || string(vs[0].Value) != "v6" || string(vs[1].Value) != "v5" {
		t.Fatalf("after one more put: %v", vs)
	}
	// A tombstone cuts history.
	tbl.Delete("r", "doc", "q")
	if vs := tbl.GetVersions("r", "doc", "q"); len(vs) != 0 {
		t.Fatalf("versions after delete = %v", vs)
	}
	if vs := tbl.GetVersions("", "doc", "q"); vs != nil {
		t.Fatal("empty row returned versions")
	}
	if vs := tbl.GetVersions("ghost", "doc", "q"); len(vs) != 0 {
		t.Fatal("ghost row returned versions")
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
