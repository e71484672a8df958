package mapreduce

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"dra4wfms/internal/pool"
)

func seedTable(t *testing.T, rows int) *pool.Table {
	t.Helper()
	tbl, err := pool.NewTable("docs", pool.FamilySpec{Name: "meta"})
	if err != nil {
		t.Fatal(err)
	}
	states := []string{"running", "completed", "completed", "running", "completed"}
	for i := 0; i < rows; i++ {
		row := fmt.Sprintf("proc-%04d", i)
		tbl.Put(row, "meta", "state", []byte(states[i%len(states)]))
		tbl.Put(row, "meta", "cers", []byte(strconv.Itoa(i%7)))
	}
	return tbl
}

func TestCountByState(t *testing.T) {
	tbl := seedTable(t, 100)
	counts, err := Count(tbl, pool.ScanOptions{Family: "meta"}, func(kv pool.KeyValue) string {
		if kv.Qualifier != "state" {
			return ""
		}
		return string(kv.Value)
	})
	if err != nil {
		t.Fatal(err)
	}
	if counts["running"] != 40 || counts["completed"] != 60 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestSumJob(t *testing.T) {
	tbl := seedTable(t, 70) // cers cycle 0..6: sum = 10 * (0+..+6) = 210
	job := &Job{
		Table: tbl,
		Scan:  pool.ScanOptions{Family: "meta"},
		Map: func(kv pool.KeyValue, emit func(string, string)) {
			if kv.Qualifier == "cers" {
				emit("total", string(kv.Value))
			}
		},
		Reduce: func(key string, values []string) string {
			sum := 0
			for _, v := range values {
				n, _ := strconv.Atoi(v)
				sum += n
			}
			return strconv.Itoa(sum)
		},
	}
	res, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res["total"] != "210" {
		t.Fatalf("sum = %q", res["total"])
	}
}

func TestParallelismConfigurations(t *testing.T) {
	tbl := seedTable(t, 200)
	var baseline map[string]string
	for _, cfg := range []struct{ m, r int }{{1, 1}, {4, 2}, {16, 8}, {1000, 3}} {
		job := &Job{
			Table:    tbl,
			Scan:     pool.ScanOptions{Family: "meta"},
			Mappers:  cfg.m,
			Reducers: cfg.r,
			Map: func(kv pool.KeyValue, emit func(string, string)) {
				emit(kv.Qualifier+"|"+string(kv.Value), kv.Row)
			},
			Reduce: func(key string, values []string) string {
				return strconv.Itoa(len(values))
			},
		}
		res, err := job.Run()
		if err != nil {
			t.Fatalf("m=%d r=%d: %v", cfg.m, cfg.r, err)
		}
		if baseline == nil {
			baseline = res
			continue
		}
		if len(res) != len(baseline) {
			t.Fatalf("m=%d r=%d: %d keys, baseline %d", cfg.m, cfg.r, len(res), len(baseline))
		}
		for k, v := range baseline {
			if res[k] != v {
				t.Fatalf("m=%d r=%d: key %q = %q, baseline %q", cfg.m, cfg.r, k, res[k], v)
			}
		}
	}
}

func TestEmptyInput(t *testing.T) {
	tbl := seedTable(t, 0)
	res, err := Count(tbl, pool.ScanOptions{}, func(kv pool.KeyValue) string { return "x" })
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("res = %v", res)
	}
}

func TestValidation(t *testing.T) {
	tbl := seedTable(t, 1)
	if _, err := (&Job{Table: tbl}).Run(); err == nil {
		t.Fatal("job without map/reduce ran")
	}
	if _, err := (&Job{Map: func(pool.KeyValue, func(string, string)) {}, Reduce: func(string, []string) string { return "" }}).Run(); err == nil {
		t.Fatal("job without table ran")
	}
}

func TestMapperPanicSurfaces(t *testing.T) {
	tbl := seedTable(t, 10)
	job := &Job{
		Table:  tbl,
		Map:    func(kv pool.KeyValue, emit func(string, string)) { panic("mapper boom") },
		Reduce: func(key string, values []string) string { return "" },
	}
	_, err := job.Run()
	if err == nil || !strings.Contains(err.Error(), "mapper boom") {
		t.Fatalf("err = %v", err)
	}
}

func TestReducerPanicSurfaces(t *testing.T) {
	tbl := seedTable(t, 10)
	job := &Job{
		Table:  tbl,
		Map:    func(kv pool.KeyValue, emit func(string, string)) { emit("k", "v") },
		Reduce: func(key string, values []string) string { panic("reducer boom") },
	}
	_, err := job.Run()
	if err == nil || !strings.Contains(err.Error(), "reducer boom") {
		t.Fatalf("err = %v", err)
	}
}

func TestMultiEmitGrouping(t *testing.T) {
	// A mapper may emit several pairs per cell; grouping must see them all.
	tbl := seedTable(t, 10)
	job := &Job{
		Table: tbl,
		Scan:  pool.ScanOptions{Family: "meta"},
		Map: func(kv pool.KeyValue, emit func(string, string)) {
			emit("all", kv.Row)
			emit("fam:"+kv.Family, kv.Row)
		},
		Reduce:   func(key string, values []string) string { return strconv.Itoa(len(values)) },
		Reducers: 2,
	}
	res, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res["all"] != "20" || res["fam:meta"] != "20" {
		t.Fatalf("res = %v", res)
	}
}
