// Package pool implements the pool of DRA4WfMS documents: a versioned,
// column-oriented key-value store with the data model of the HBase table
// the paper's prototype kept its documents in (Section 4.2). A DRA4WfMS
// document is stored as a cell in a row of a table; portals perform
// random reads and writes by row key and prefix scans for worklists, and
// the mapreduce package runs statistics over scans.
//
// What the package provides is what those callers use:
//
//   - tables with declared column families and bounded cell versions;
//   - delete tombstones and latest-version-wins reads;
//   - ordered scans with family/prefix/limit filtering;
//   - range regions — contiguous key ranges of one table, each a versioned
//     in-memory map under its own lock — that split at their median row
//     when they grow past a threshold.
//
// A Table is in-memory. Durability is Store (store.go): a write-ahead log
// on internal/wal plus checkpoints, attached with Open. Distribution,
// replication and failover across processes are internal/poolcluster.
// Nothing in this package emulates either.
package pool

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"dra4wfms/internal/telemetry"
)

// Runtime telemetry: latency histograms for the three access patterns
// portals exercise (random get/put, ordered scan) plus scan volume and
// region-split counters — the pool-tier half of the paper's scalability
// claim.
var (
	tel           = telemetry.Default()
	mScannedCells = tel.Counter("pool_scan_cells_total")
	mSplits       = tel.Counter("pool_region_splits_total")
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

func (kv KeyValue) coordLess(other KeyValue) bool {
	if kv.Row != other.Row {
		return kv.Row < other.Row
	}
	if kv.Family != other.Family {
		return kv.Family < other.Family
	}
	return kv.Qualifier < other.Qualifier
}

// FamilySpec configures one column family.
type FamilySpec struct {
	// Name is the family name, e.g. "doc".
	Name string
	// MaxVersions bounds retained versions per cell (default 1).
	MaxVersions int
}

// Errors.
var (
	// ErrNoTable is returned for operations on undeclared tables.
	ErrNoTable = errors.New("pool: no such table")
	// ErrNoFamily is returned for writes to undeclared column families.
	ErrNoFamily = errors.New("pool: no such column family")
	// ErrEmptyRow is returned for operations with an empty row key.
	ErrEmptyRow = errors.New("pool: empty row key")
	// ErrNoCells is returned for a mutation that carries no cell.
	ErrNoCells = errors.New("pool: mutation without cells")
)

// --- region ------------------------------------------------------------------

// versions is a cell's version list, newest first.
type versions []Cell

func (v versions) insert(c Cell, max int) versions {
	i := sort.Search(len(v), func(i int) bool { return v[i].Version <= c.Version })
	if i < len(v) && v[i].Version == c.Version {
		v[i] = c
		return v
	}
	v = append(v, Cell{})
	copy(v[i+1:], v[i:])
	v[i] = c
	if len(v) > max {
		v = v[:max]
	}
	return v
}

// rowCells holds a region's cells: row -> family -> qualifier -> versions.
type rowCells map[string]map[string]map[string]versions

// Region is one contiguous key range [Start, End) of a table. End == ""
// means unbounded.
type Region struct {
	mu      sync.RWMutex
	table   *Table
	start   string
	end     string
	rows    rowCells
	bytes   int  // approximate bytes written to the region
	offline bool // set while the region is being split; writes must retry
}

// Start returns the inclusive start key of the region's range.
func (r *Region) Start() string { return r.start }

// End returns the exclusive end key ("" = unbounded).
func (r *Region) End() string { return r.end }

// apply installs every cell of m under one acquisition of the region's
// lock, so a concurrent reader sees all of the mutation or none of it. It
// reports false when the region has been taken offline by a split — the
// caller must re-route and retry.
func (r *Region) apply(m Mutation) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.offline {
		return false
	}
	fams, ok := r.rows[m.Row]
	if !ok {
		fams = map[string]map[string]versions{}
		r.rows[m.Row] = fams
	}
	for _, c := range m.Cells {
		quals, ok := fams[c.Family]
		if !ok {
			quals = map[string]versions{}
			fams[c.Family] = quals
		}
		cell := Cell{Value: c.Value, Version: m.Version}
		switch {
		case c.Del:
			cell.Value = nil
		case cell.Value == nil:
			cell.Value = []byte{} // nil is the tombstone; a put of nothing stores empty bytes
		}
		quals[c.Qualifier] = quals[c.Qualifier].insert(cell, r.table.maxVersions(c.Family))
		r.bytes += len(m.Row) + len(c.Family) + len(c.Qualifier) + len(c.Value) + 16
	}
	return true
}

// get returns the newest live cell for the coordinate.
func (r *Region) get(row, family, qualifier string) (Cell, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	vs := r.rows[row][family][qualifier]
	if len(vs) == 0 || vs[0].IsTombstone() {
		return Cell{}, false
	}
	return vs[0], true
}

// row returns the latest live cells of one row, sorted.
func (r *Region) row(row string) []KeyValue {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []KeyValue
	for family, quals := range r.rows[row] {
		for qual, vs := range quals {
			if len(vs) > 0 && !vs[0].IsTombstone() {
				out = append(out, KeyValue{Row: row, Family: family, Qualifier: qual, Cell: vs[0]})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].coordLess(out[j]) })
	return out
}

// snapshot returns the latest live cells of the region, sorted.
func (r *Region) snapshot() []KeyValue {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.snapshotLocked()
}

func (r *Region) snapshotLocked() []KeyValue {
	var out []KeyValue
	for row, fams := range r.rows {
		for family, quals := range fams {
			for qual, vs := range quals {
				if len(vs) == 0 || vs[0].IsTombstone() {
					continue
				}
				out = append(out, KeyValue{Row: row, Family: family, Qualifier: qual, Cell: vs[0]})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].coordLess(out[j]) })
	return out
}

// SizeBytes returns the approximate size of the region: the bytes written
// to it since it was created (by CreateTable or a split).
func (r *Region) SizeBytes() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.bytes
}

// --- table -------------------------------------------------------------------

// Table is a named table with declared families and its region map.
type Table struct {
	name     string
	families map[string]FamilySpec

	mu      sync.RWMutex
	regions []*Region // sorted by start key, covering ["", "")
	cluster *Cluster
	seq     int64  // logical version clock
	store   *Store // durable backing; nil while the table is memory-only
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

func (t *Table) maxVersions(family string) int {
	if f, ok := t.families[family]; ok && f.MaxVersions > 0 {
		return f.MaxVersions
	}
	return 1
}

func (t *Table) nextVersion() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	return t.seq
}

// attachStore binds a durable store to the table; every subsequent
// mutation is journaled to its WAL before being acknowledged.
func (t *Table) attachStore(s *Store) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.store != nil {
		return fmt.Errorf("pool: table %s already has a durable store", t.name)
	}
	t.store = s
	return nil
}

// durableStore returns the attached store, if any.
func (t *Table) durableStore() *Store {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.store
}

// Durable reports whether the table is backed by a Store.
func (t *Table) Durable() bool { return t.durableStore() != nil }

// advanceClock moves the version clock to at least v, so versions minted
// here afterwards stay above every version installed from elsewhere.
func (t *Table) advanceClock(v int64) {
	t.mu.Lock()
	if v > t.seq {
		t.seq = v
	}
	t.mu.Unlock()
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
// (when a store is attached), install its cells together, and split the
// region if it outgrew the threshold. Nothing is journaled or installed
// unless every cell is valid.
func (t *Table) commit(m Mutation) error {
	if m.Row == "" {
		return ErrEmptyRow
	}
	if len(m.Cells) == 0 {
		return ErrNoCells
	}
	for _, c := range m.Cells {
		if _, ok := t.families[c.Family]; !ok {
			return fmt.Errorf("%w: %s.%s", ErrNoFamily, t.name, c.Family)
		}
	}
	var region *Region
	if s := t.durableStore(); s != nil {
		var err error
		if region, err = s.logMutation(m); err != nil {
			return err
		}
	} else {
		region = t.applyMem(m)
	}
	t.maybeSplit(region)
	return nil
}

// regionFor routes a row key to its region.
func (t *Table) regionFor(row string) *Region {
	t.mu.RLock()
	defer t.mu.RUnlock()
	i := sort.Search(len(t.regions), func(i int) bool {
		r := t.regions[i]
		return r.end == "" || row < r.end
	})
	return t.regions[i]
}

// Regions returns the current regions in key order.
func (t *Table) Regions() []*Region {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]*Region, len(t.regions))
	copy(out, t.regions)
	return out
}

// Mutate applies puts and deletes on one row as one atomic write: the
// cells share a fresh version, are journaled as one WAL record and become
// visible together. Inside a sampled distributed trace the write lands as
// a pool-tier span.
func (t *Table) Mutate(ctx context.Context, row string, cells []CellMutation) error {
	_, span := tel.StartSpan(ctx, "pool_put_seconds")
	defer span.End()
	return t.commit(Mutation{Row: row, Version: t.nextVersion(), Cells: cells})
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

// applyMem routes m and installs it in memory, retrying when the target
// region goes offline mid-flight because of a concurrent split.
func (t *Table) applyMem(m Mutation) *Region {
	for {
		region := t.regionFor(m.Row)
		if region.apply(m) {
			return region
		}
		runtime.Gosched()
	}
}

// Get returns the newest live value at (row, family, qualifier).
func (t *Table) Get(row, family, qualifier string) ([]byte, bool) {
	return t.GetCtx(context.Background(), row, family, qualifier)
}

// GetCtx is Get carrying the caller's trace context (see PutCtx).
func (t *Table) GetCtx(ctx context.Context, row, family, qualifier string) ([]byte, bool) {
	_, span := tel.StartSpan(ctx, "pool_get_seconds")
	defer span.End()
	if row == "" {
		return nil, false
	}
	c, ok := t.regionFor(row).get(row, family, qualifier)
	if !ok {
		return nil, false
	}
	return c.Value, true
}

// GetVersions returns up to the family's retained versions of a cell,
// newest first, stopping at the first tombstone (older versions are
// logically deleted).
func (t *Table) GetVersions(row, family, qualifier string) []Cell {
	if row == "" {
		return nil
	}
	r := t.regionFor(row)
	r.mu.RLock()
	defer r.mu.RUnlock()
	var live []Cell
	for _, c := range r.rows[row][family][qualifier] {
		if c.IsTombstone() {
			break
		}
		live = append(live, c)
	}
	return live
}

// GetRow returns every live cell of a row.
func (t *Table) GetRow(row string) []KeyValue {
	return t.regionFor(row).row(row)
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

// Scan returns live cells in (row, family, qualifier) order across all
// regions, applying the options.
func (t *Table) Scan(opts ScanOptions) []KeyValue {
	return t.ScanCtx(context.Background(), opts)
}

// ScanCtx is Scan carrying the caller's trace context (see PutCtx).
func (t *Table) ScanCtx(ctx context.Context, opts ScanOptions) []KeyValue {
	_, span := tel.StartSpan(ctx, "pool_scan_seconds")
	defer span.End()
	var scanned int64
	defer func() { mScannedCells.Add(scanned) }()
	var out []KeyValue
	for _, r := range t.Regions() {
		if opts.EndRow != "" && r.start >= opts.EndRow {
			break
		}
		for _, kv := range r.snapshot() {
			scanned++
			if kv.Row < opts.StartRow {
				continue
			}
			if opts.EndRow != "" && kv.Row >= opts.EndRow {
				continue
			}
			if opts.Prefix != "" && !strings.HasPrefix(kv.Row, opts.Prefix) {
				continue
			}
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

// maybeSplit splits the region at its median row when it exceeds the
// cluster's split threshold.
func (t *Table) maybeSplit(r *Region) {
	if t.cluster == nil || t.cluster.SplitThresholdBytes <= 0 {
		return
	}
	if r.SizeBytes() < t.cluster.SplitThresholdBytes {
		return
	}
	split := false
	defer func() {
		if split {
			t.cluster.noteSplit(t.name)
		}
	}()
	r.mu.Lock()
	if r.offline {
		r.mu.Unlock()
		return
	}
	if len(r.rows) < 2 {
		r.mu.Unlock()
		return
	}
	sorted := make([]string, 0, len(r.rows))
	for row := range r.rows {
		sorted = append(sorted, row)
	}
	sort.Strings(sorted)
	mid := sorted[len(sorted)/2]
	if mid == r.start {
		r.mu.Unlock()
		return
	}

	// Take the parent offline: concurrent writers bounce and retry against
	// the daughters once the region map is swapped. Reads keep hitting the
	// parent's (now frozen) state until then.
	r.offline = true
	all := r.snapshotLocked()
	left := &Region{table: t, start: r.start, end: mid, rows: rowCells{}}
	right := &Region{table: t, start: mid, end: r.end, rows: rowCells{}}
	r.mu.Unlock()
	for _, kv := range all {
		if kv.Row < mid {
			left.apply(kv.Mutation())
		} else {
			right.apply(kv.Mutation())
		}
	}
	t.mu.Lock()
	for i, reg := range t.regions {
		if reg == r {
			t.regions = append(t.regions[:i], append([]*Region{left, right}, t.regions[i+1:]...)...)
			split = true
			break
		}
	}
	t.mu.Unlock()
}

// --- cluster -----------------------------------------------------------------

// Cluster is the set of tables of one document pool, with the split
// threshold they share.
type Cluster struct {
	// SplitThresholdBytes triggers a region split when a region grows past
	// it (0 disables splitting).
	SplitThresholdBytes int

	mu     sync.RWMutex
	tables map[string]*Table
	splits map[string]int
}

// NewCluster creates a cluster with the given split threshold. servers
// must be non-empty and is otherwise unused: it named the emulated region
// servers this package no longer has, and the parameter leaves with the
// next benchmark PR (benchmarks/ is frozen in this one).
func NewCluster(servers []string, splitThreshold int) (*Cluster, error) {
	if len(servers) == 0 {
		return nil, errors.New("pool: cluster needs at least one region server")
	}
	return &Cluster{
		SplitThresholdBytes: splitThreshold,
		tables:              map[string]*Table{},
		splits:              map[string]int{},
	}, nil
}

// CreateTable declares a table with its column families. The table starts
// with a single region covering the whole key space.
func (c *Cluster) CreateTable(name string, families ...FamilySpec) (*Table, error) {
	if name == "" {
		return nil, errors.New("pool: empty table name")
	}
	if len(families) == 0 {
		return nil, errors.New("pool: table needs at least one column family")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.tables[name]; exists {
		return nil, fmt.Errorf("pool: table %q already exists", name)
	}
	t := &Table{
		name:     name,
		families: map[string]FamilySpec{},
		cluster:  c,
	}
	for _, f := range families {
		t.families[f.Name] = f
	}
	t.regions = []*Region{{table: t, rows: rowCells{}}}
	c.tables[name] = t
	return t, nil
}

// Table returns a declared table.
func (c *Cluster) Table(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoTable, name)
	}
	return t, nil
}

func (c *Cluster) noteSplit(table string) {
	mSplits.Inc()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.splits[table]++
}

// Splits reports how many region splits the table has undergone.
func (c *Cluster) Splits(table string) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.splits[table]
}

// Equal reports whether two values are byte-identical (test helper).
func Equal(a, b []byte) bool { return bytes.Equal(a, b) }
