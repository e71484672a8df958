package pool

import "context"

// DocTable is the read/write surface the upper tiers (portal, monitor,
// mapreduce, the daemons) need from a document table. Both the
// in-process *Table and a clustered session (internal/poolcluster)
// implement it, so a portal can be pointed at a local pool or a multi-node
// clustered pool without changing any call site.
type DocTable interface {
	// Mutate applies puts and deletes on one row as one atomic, durable
	// write; Put, PutCtx and Delete are its one-cell forms.
	Mutate(ctx context.Context, row string, cells []CellMutation) error
	Put(row, family, qualifier string, value []byte) error
	PutCtx(ctx context.Context, row, family, qualifier string, value []byte) error
	Delete(row, family, qualifier string) error
	Get(row, family, qualifier string) ([]byte, bool)
	GetCtx(ctx context.Context, row, family, qualifier string) ([]byte, bool)
	GetVersions(row, family, qualifier string) []Cell
	GetRow(row string) []KeyValue
	Scan(opts ScanOptions) []KeyValue
	ScanCtx(ctx context.Context, opts ScanOptions) []KeyValue
}

var _ DocTable = (*Table)(nil)
