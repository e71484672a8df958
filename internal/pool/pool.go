// Package pool implements the pool of DRA4WfMS documents: a versioned,
// column-oriented key-value store with the data model of the HBase table
// the paper's prototype kept its documents in (Section 4.2). A DRA4WfMS
// document is stored as a cell in a row of a table; portals perform
// random reads and writes by row key and prefix scans for worklists, and
// the mapreduce package runs statistics over scans.
//
// What the package provides is what those callers use:
//
//   - tables with declared column families, one version per cell;
//   - delete tombstones and latest-version-wins writes;
//   - ordered scans with range/family/prefix/limit filtering.
//
// A Table is in-memory. Durability is Store (store.go): a write-ahead log
// on internal/wal plus checkpoints, attached with Open. Distribution,
// replication and failover across processes — HBase's regions — are
// internal/poolcluster. Nothing in this package emulates either.
package pool

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"dra4wfms/internal/telemetry"
)

// Runtime telemetry: latency histograms for the three access patterns
// portals exercise (random get/put, ordered scan) plus scan volume — the
// pool-tier half of the paper's scalability claim.
var (
	tel           = telemetry.Default()
	mScannedCells = tel.Counter("pool_scan_cells_total")
)

// Cell is one versioned value.
type Cell struct {
	// Value is the stored bytes; nil marks a delete tombstone.
	Value []byte
	// Version is the cell's logical timestamp; higher is newer.
	Version int64
}

// IsTombstone reports whether the cell marks a deletion.
func (c Cell) IsTombstone() bool { return c.Value == nil }

// KeyValue is one cell with its full coordinates, the unit scans return.
type KeyValue struct {
	Row       string
	Family    string
	Qualifier string
	Cell
}

// FamilySpec declares one column family.
type FamilySpec struct {
	// Name is the family name, e.g. "doc".
	Name string
}

// Errors.
var (
	// ErrNoFamily is returned for writes to undeclared column families.
	ErrNoFamily = errors.New("pool: no such column family")
	// ErrEmptyRow is returned for operations with an empty row key.
	ErrEmptyRow = errors.New("pool: empty row key")
	// ErrNoCells is returned for a mutation that carries no cell.
	ErrNoCells = errors.New("pool: mutation without cells")
)

// --- row ---------------------------------------------------------------------

// row is one row's cells sorted by (family, qualifier), one version each.
// A tombstone stays in place, so an older write delivered late (replay,
// replication) cannot revive a deleted cell.
type row struct {
	key   string
	mu    sync.RWMutex
	cells []KeyValue
}

// apply installs every cell of m under one acquisition of the row's lock,
// so a concurrent reader sees all of the mutation or none of it. Latest
// wins by version, whatever the apply order.
func (r *row) apply(m Mutation) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range m.Cells {
		kv := KeyValue{Row: m.Row, Family: c.Family, Qualifier: c.Qualifier, Cell: Cell{Value: c.Value, Version: m.Version}}
		switch {
		case c.Del:
			kv.Value = nil
		case kv.Value == nil:
			kv.Value = []byte{} // nil is the tombstone; a put of nothing stores empty bytes
		}
		switch i, found := r.find(c.Family, c.Qualifier); {
		case !found:
			r.cells = slices.Insert(r.cells, i, kv)
		case r.cells[i].Version <= kv.Version:
			r.cells[i] = kv
		}
	}
}

// find returns the index of (family, qualifier) in r.cells, or where it
// would be inserted.
func (r *row) find(family, qualifier string) (int, bool) {
	return slices.BinarySearchFunc(r.cells, KeyValue{Family: family, Qualifier: qualifier}, func(a, b KeyValue) int {
		return cmp.Or(strings.Compare(a.Family, b.Family), strings.Compare(a.Qualifier, b.Qualifier))
	})
}

// get returns the live cell at (family, qualifier).
func (r *row) get(family, qualifier string) (Cell, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	i, found := r.find(family, qualifier)
	if !found || r.cells[i].IsTombstone() {
		return Cell{}, false
	}
	return r.cells[i].Cell, true
}

// live appends the row's live cells, in order, to out.
func (r *row) live(out []KeyValue) []KeyValue {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, kv := range r.cells {
		if !kv.IsTombstone() {
			out = append(out, kv)
		}
	}
	return out
}

// RowLocks is a striped lock keyed by row, for callers that read a row
// and write it back: writers of one row exclude each other, writers of
// different rows mostly do not. Rows hashing to the same stripe share
// it, which costs concurrency, never correctness.
type RowLocks [64]sync.Mutex

// For returns the mutex of row's stripe.
func (l *RowLocks) For(row string) *sync.Mutex {
	h := fnv.New32a()
	h.Write([]byte(row))
	return &l[h.Sum32()%uint32(len(l))]
}

// --- table -------------------------------------------------------------------

// Table is a named table with declared families: a map of rows plus the
// row keys in order.
type Table struct {
	name     string
	families map[string]bool
	seq      atomic.Int64          // logical version clock
	store    atomic.Pointer[Store] // durable backing; nil while memory-only

	mu     sync.RWMutex
	rows   map[string]*row
	sorted []*row // by key; a row joins on its first write
}

// NewTable declares a table with its column families.
func NewTable(name string, families ...FamilySpec) (*Table, error) {
	if name == "" {
		return nil, errors.New("pool: empty table name")
	}
	if len(families) == 0 {
		return nil, errors.New("pool: table needs at least one column family")
	}
	t := &Table{name: name, families: map[string]bool{}, rows: map[string]*row{}}
	for _, f := range families {
		t.families[f.Name] = true
	}
	return t, nil
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// attachStore binds a durable store to the table; every subsequent
// mutation is journaled to its WAL before being acknowledged.
func (t *Table) attachStore(s *Store) error {
	if !t.store.CompareAndSwap(nil, s) {
		return fmt.Errorf("pool: table %s already has a durable store", t.name)
	}
	return nil
}

// Durable reports whether the table is backed by a Store.
func (t *Table) Durable() bool { return t.store.Load() != nil }

// advanceClock moves the version clock to at least v, so versions minted
// here afterwards stay above every version installed from elsewhere.
func (t *Table) advanceClock(v int64) {
	for cur := t.seq.Load(); v > cur && !t.seq.CompareAndSwap(cur, v); cur = t.seq.Load() {
	}
}

// applyReplay reinstalls a recovered mutation with its original version
// and advances the table's version clock past it. Recovery-only: the
// mutation is not re-journaled, and re-applying cells that are already
// present is idempotent because latest-wins resolves by version, not
// apply order.
func (t *Table) applyReplay(m Mutation) {
	t.advanceClock(m.Version)
	t.applyMem(m)
}

// commit is the one write path: validate m, journal it as one record
// (when a store is attached) and install its cells together. Nothing is
// journaled or installed unless every cell is valid.
func (t *Table) commit(m Mutation) error {
	if m.Row == "" {
		return ErrEmptyRow
	}
	if len(m.Cells) == 0 {
		return ErrNoCells
	}
	for _, c := range m.Cells {
		if !t.families[c.Family] {
			return fmt.Errorf("%w: %s.%s", ErrNoFamily, t.name, c.Family)
		}
	}
	if s := t.store.Load(); s != nil {
		return s.logMutation(m)
	}
	t.applyMem(m)
	return nil
}

// applyMem installs m in memory, creating its row on first write.
func (t *Table) applyMem(m Mutation) {
	r := t.lookup(m.Row)
	if r == nil {
		t.mu.Lock()
		if r = t.rows[m.Row]; r == nil {
			r = &row{key: m.Row}
			t.rows[m.Row] = r
			i := sort.Search(len(t.sorted), func(i int) bool { return t.sorted[i].key >= m.Row })
			t.sorted = slices.Insert(t.sorted, i, r)
		}
		t.mu.Unlock()
	}
	r.apply(m)
}

// lookup returns the row at key, nil if it was never written.
func (t *Table) lookup(key string) *row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rows[key]
}

// Mutate applies puts and deletes on one row as one atomic write: the
// cells share a fresh version, are journaled as one WAL record and become
// visible together. Inside a sampled distributed trace the write lands as
// a pool-tier span.
func (t *Table) Mutate(ctx context.Context, row string, cells []CellMutation) error {
	_, span := tel.StartSpan(ctx, "pool_put_seconds")
	defer span.End()
	return t.commit(Mutation{Row: row, Version: t.seq.Add(1), Cells: cells})
}

// Put stores value at (row, family, qualifier) with a fresh version.
func (t *Table) Put(row, family, qualifier string, value []byte) error {
	return t.PutCtx(context.Background(), row, family, qualifier, value)
}

// PutCtx is Put carrying the caller's trace context: a one-cell Mutate.
func (t *Table) PutCtx(ctx context.Context, row, family, qualifier string, value []byte) error {
	return t.Mutate(ctx, row, []CellMutation{{Family: family, Qualifier: qualifier, Value: value}})
}

// Delete writes a tombstone for (row, family, qualifier): a one-cell
// Mutate.
func (t *Table) Delete(row, family, qualifier string) error {
	return t.Mutate(context.Background(), row, []CellMutation{{Family: family, Qualifier: qualifier, Del: true}})
}

// Get returns the live value at (row, family, qualifier).
func (t *Table) Get(row, family, qualifier string) ([]byte, bool) {
	return t.GetCtx(context.Background(), row, family, qualifier)
}

// GetCtx is Get carrying the caller's trace context (see PutCtx).
func (t *Table) GetCtx(ctx context.Context, row, family, qualifier string) ([]byte, bool) {
	_, span := tel.StartSpan(ctx, "pool_get_seconds")
	defer span.End()
	r := t.lookup(row)
	if r == nil {
		return nil, false
	}
	c, ok := r.get(family, qualifier)
	return c.Value, ok
}

// GetRow returns every live cell of a row.
func (t *Table) GetRow(row string) []KeyValue {
	r := t.lookup(row)
	if r == nil {
		return nil
	}
	return r.live(nil)
}

// ScanOptions filter a Scan.
type ScanOptions struct {
	// StartRow is the inclusive scan start ("" = table start).
	StartRow string
	// EndRow is the exclusive scan end ("" = table end).
	EndRow string
	// Prefix restricts to rows with the given prefix.
	Prefix string
	// Family restricts to one column family ("" = all).
	Family string
	// Limit bounds the number of returned cells (0 = unlimited).
	Limit int
	// Filter, when non-nil, keeps only cells for which it returns true.
	Filter func(KeyValue) bool
}

// Scan returns live cells in (row, family, qualifier) order, applying the
// options.
func (t *Table) Scan(opts ScanOptions) []KeyValue {
	return t.ScanCtx(context.Background(), opts)
}

// ScanCtx is Scan carrying the caller's trace context (see PutCtx). The
// table lock is held only to find the rows in range; each row is then
// read under its own lock, so a scan sees every mutation of a row whole
// and never stalls writers to other rows.
func (t *Table) ScanCtx(ctx context.Context, opts ScanOptions) []KeyValue {
	_, span := tel.StartSpan(ctx, "pool_scan_seconds")
	defer span.End()
	var out, buf []KeyValue
	scanned := 0
	defer func() { mScannedCells.Add(int64(scanned)) }()
	for _, r := range t.rowsInRange(opts) {
		buf = r.live(buf[:0])
		scanned += len(buf)
		for _, kv := range buf {
			if opts.Family != "" && kv.Family != opts.Family {
				continue
			}
			if opts.Filter != nil && !opts.Filter(kv) {
				continue
			}
			out = append(out, kv)
			if opts.Limit > 0 && len(out) >= opts.Limit {
				return out
			}
		}
	}
	return out
}

// rowsInRange copies, in key order, the rows at or past max(StartRow,
// Prefix) that are below EndRow and carry Prefix. Those form one run of
// t.sorted: every key past the run is out of range for good.
func (t *Table) rowsInRange(opts ScanOptions) []*row {
	start := max(opts.StartRow, opts.Prefix)
	inRange := func(key string) bool {
		return (opts.EndRow == "" || key < opts.EndRow) && strings.HasPrefix(key, opts.Prefix)
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	i := sort.Search(len(t.sorted), func(i int) bool { return t.sorted[i].key >= start })
	n := sort.Search(len(t.sorted)-i, func(j int) bool { return !inRange(t.sorted[i+j].key) })
	return slices.Clone(t.sorted[i : i+n])
}

// --- shims -------------------------------------------------------------------

// Cluster is a stateless shim: benchmarks/system/replay.go builds its
// tables with NewCluster and CreateTable (or portal.CreateTable). Delete
// it with the next change to benchmarks/; everything else calls NewTable.
type Cluster struct{}

// NewCluster returns the stateless Cluster shim; both arguments are
// ignored. Only benchmarks/system/replay.go calls it.
func NewCluster([]string, int) (*Cluster, error) { return &Cluster{}, nil }

// CreateTable is NewTable. Only benchmarks/system/replay.go calls it,
// through portal.CreateTable.
func (*Cluster) CreateTable(name string, families ...FamilySpec) (*Table, error) {
	return NewTable(name, families...)
}
