package monitor

import (
	"reflect"
	"strconv"
	"testing"

	"dra4wfms/internal/document"
	"dra4wfms/internal/mapreduce"
	"dra4wfms/internal/pool"
	"dra4wfms/internal/testenv"
	"dra4wfms/internal/wfdef"
)

// threeScanStatistics is Statistics as it was before the portal derived
// meta:bytes: two counting scans of the meta family and an unfiltered scan
// that ships every document to take its length. It is the oracle the
// one-scan fold must agree with.
func threeScanStatistics(table pool.DocTable) (*Statistics, error) {
	count := func(qualifier string) (map[string]int, error) {
		return mapreduce.Count(table, pool.ScanOptions{Family: "meta"}, func(kv pool.KeyValue) string {
			if kv.Qualifier != qualifier {
				return ""
			}
			return string(kv.Value)
		})
	}
	byState, err := count("state")
	if err != nil {
		return nil, err
	}
	byDef, err := count("definition")
	if err != nil {
		return nil, err
	}
	sums := &mapreduce.Job{
		Table: table,
		Scan:  pool.ScanOptions{},
		Map: func(kv pool.KeyValue, emit func(string, string)) {
			switch {
			case kv.Family == "meta" && kv.Qualifier == "cers":
				emit("cers", string(kv.Value))
			case kv.Family == "doc" && kv.Qualifier == "content":
				emit("bytes", strconv.Itoa(len(kv.Value)))
				emit("docs", "1")
			}
		},
		Reduce: func(key string, values []string) string {
			total := 0
			for _, v := range values {
				n, _ := strconv.Atoi(v)
				total += n
			}
			return strconv.Itoa(total)
		},
	}
	res, err := sums.Run()
	if err != nil {
		return nil, err
	}
	stats := &Statistics{InstancesByState: byState, InstancesByDefinition: byDef}
	stats.TotalFinalCERs, _ = strconv.Atoi(res["cers"])
	totalBytes, _ := strconv.Atoi(res["bytes"])
	if docs, _ := strconv.Atoi(res["docs"]); docs > 0 {
		stats.MeanDocumentBytes = totalBytes / docs
	}
	return stats, nil
}

// readCounter is a DocTable recording what Statistics asks of it.
type readCounter struct {
	pool.DocTable
	scans    []pool.ScanOptions
	docCells int // doc-family cells returned by any read
	gets     int
}

func (c *readCounter) Scan(opts pool.ScanOptions) []pool.KeyValue {
	c.scans = append(c.scans, opts)
	kvs := c.DocTable.Scan(opts)
	for _, kv := range kvs {
		if kv.Family == "doc" {
			c.docCells++
		}
	}
	return kvs
}

func (c *readCounter) Get(row, family, qualifier string) ([]byte, bool) {
	c.gets++
	if family == "doc" {
		c.docCells++
	}
	return c.DocTable.Get(row, family, qualifier)
}

// TestStatisticsReadsDerivedColumnsOnly: over rows the portal wrote, the
// statistics are one meta-family scan that never touches a document, and
// they equal the three-scan result; rows from before meta:bytes cost one
// document read each and still agree.
func TestStatisticsReadsDerivedColumnsOnly(t *testing.T) {
	w := newWorld(t)
	old := w.runBasic(t)
	w.runAdvanced(t)
	running, err := document.New(wfdef.Fig9A(), w.env.KeyOf("designer@acme"), testenv.ProcessID(), base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.portal.StoreInitial(running); err != nil {
		t.Fatal(err)
	}
	// A catalog row: meta cells, no instance.
	tpl, err := document.SignTemplate(wfdef.Fig9A(), w.env.KeyOf("designer@acme"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.portal.StoreTemplate(tpl); err != nil {
		t.Fatal(err)
	}

	check := func(wantGets int) {
		t.Helper()
		want, err := threeScanStatistics(w.table)
		if err != nil {
			t.Fatal(err)
		}
		counted := &readCounter{DocTable: w.table}
		got, err := New(counted).Statistics()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("statistics = %+v, the three-scan oracle says %+v", got, want)
		}
		if len(counted.scans) != 1 || counted.scans[0].Family != "meta" {
			t.Fatalf("statistics scanned %+v, want one scan of the meta family", counted.scans)
		}
		if counted.gets != wantGets || counted.docCells != wantGets {
			t.Fatalf("statistics made %d gets and read %d doc cells, want %d of each", counted.gets, counted.docCells, wantGets)
		}
	}
	check(0)

	// One row as an older binary left it: no meta:bytes.
	if err := w.table.Delete(old, "meta", "bytes"); err != nil {
		t.Fatal(err)
	}
	check(1)
}
