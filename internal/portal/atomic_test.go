package portal

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"dra4wfms/internal/aea"
	"dra4wfms/internal/document"
	"dra4wfms/internal/pool"
	"dra4wfms/internal/poolcluster"
	"dra4wfms/internal/relay"
	"dra4wfms/internal/wfdef"
)

var errInjected = errors.New("injected write failure")

// cellFault is a DocTable that lets the first k-1 cells handed to it
// through (counting every cell of every Mutate, Put and Delete from arm)
// and fails the call carrying the k-th as a whole: the fault hook runs —
// the process, store or primary dying at that point — and nothing of the
// call is forwarded. Through a per-cell API that leaves k-1 cells of the
// hop behind; through Mutate the table gets the hop whole or not at all.
type cellFault struct {
	pool.DocTable
	fault    func() // nil: the call just fails
	k, cells int
	fired    bool
}

func (f *cellFault) arm(k int, fault func()) { f.k, f.cells, f.fired, f.fault = k, 0, false, fault }

// fire runs the fault hook once.
func (f *cellFault) fire() {
	if !f.fired && f.fault != nil {
		f.fault()
	}
	f.fired = true
}

func (f *cellFault) Mutate(ctx context.Context, row string, cells []pool.CellMutation) error {
	before := f.cells
	f.cells += len(cells)
	if before < f.k && f.k <= f.cells {
		f.fire()
		return errInjected
	}
	return f.DocTable.Mutate(ctx, row, cells)
}

func (f *cellFault) PutCtx(ctx context.Context, row, family, qualifier string, value []byte) error {
	return f.Mutate(ctx, row, []pool.CellMutation{{Family: family, Qualifier: qualifier, Value: value}})
}

func (f *cellFault) Put(row, family, qualifier string, value []byte) error {
	return f.PutCtx(context.Background(), row, family, qualifier, value)
}

func (f *cellFault) Delete(row, family, qualifier string) error {
	return f.Mutate(context.Background(), row, []pool.CellMutation{{Family: family, Qualifier: qualifier, Del: true}})
}

// hopRow renders everything a row says about the hop it holds: the
// document (by digest), the meta cells derived from it and the worklist
// index. Two rows render alike iff they hold the same hop.
func hopRow(kvs []pool.KeyValue) string {
	var b strings.Builder
	for _, kv := range kvs {
		if kv.Family == "doc" {
			fmt.Fprintf(&b, "%s:%s=sha256:%x (%d bytes)\n", kv.Family, kv.Qualifier, sha256.Sum256(kv.Value), len(kv.Value))
		} else {
			fmt.Fprintf(&b, "%s:%s=%q\n", kv.Family, kv.Qualifier, kv.Value)
		}
	}
	return b.String()
}

// hopBackend is one kind of documents table a hop is stored on, with the
// way it dies and the way its row is read back afterwards.
type hopBackend struct {
	table pool.DocTable
	// fault kills what the table stands on, mid-store.
	fault func()
	// reread returns the process row as a reader finds it after the fault.
	reread func(pid string) []pool.KeyValue
}

func memoryBackend(t *testing.T, _ string) hopBackend {
	table, err := pool.NewTable(TableName, Families...)
	if err != nil {
		t.Fatal(err)
	}
	return hopBackend{table: table, fault: func() {}, reread: table.GetRow}
}

// durableBackend is a local table on a WAL: the fault abandons the store
// like a kill -9, and the row is read from a fresh table recovered from
// the data dir.
func durableBackend(t *testing.T, _ string) hopBackend {
	dir := t.TempDir()
	open := func() (*pool.Table, *pool.Store) {
		b := memoryBackend(t, "")
		table := b.table.(*pool.Table)
		store, rep, err := pool.Open(table, dir, pool.StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Damaged() {
			t.Fatalf("recovery found damage: %s", rep.Summary())
		}
		return table, store
	}
	table, store := open()
	return hopBackend{
		table: table,
		fault: func() {
			if err := store.Abandon(); err != nil {
				t.Error(err)
			}
		},
		reread: func(pid string) []pool.KeyValue {
			reopened, store := open()
			t.Cleanup(func() { _ = store.Abandon() })
			return reopened.GetRow(pid)
		},
	}
}

// clusterBackend is a three-node in-process clustered pool: the fault
// downs the primary of the process's region, and the row is read through
// the session after failover — from the promoted backup, which holds
// only what reached it as replicated records.
func clusterBackend(t *testing.T, pid string) hopBackend {
	nodes := map[string]*poolcluster.Node{}
	var refs []poolcluster.NodeRef
	for _, id := range []string{"n1", "n2", "n3"} {
		node := poolcluster.NewNode(id, memoryBackend(t, "").table.(*pool.Table))
		nodes[id] = node
		refs = append(refs, node)
	}
	c, err := poolcluster.New(refs, poolcluster.Config{
		Replicas: 2,
		Relay: relay.Config{
			Backoff: relay.BackoffPolicy{Base: 2 * time.Millisecond, Cap: 20 * time.Millisecond},
			Breaker: relay.BreakerPolicy{Threshold: 1000, Cooldown: 10 * time.Millisecond},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	session := c.NewSession()
	_, primary := c.PrimaryFor(pid)
	return hopBackend{
		table: session,
		fault: nodes[primary].Down,
		reread: func(pid string) []pool.KeyValue {
			kvs := session.GetRow(pid)
			if _, promoted := c.PrimaryFor(pid); promoted == primary {
				t.Errorf("row read from the downed primary %s, want a promoted backup", primary)
			}
			return kvs
		},
	}
}

// TestStoreReportsEveryFailedWrite: wherever in a hop's cells the table —
// or the process, the data dir's owner, the region's primary — dies, the
// store fails and the row holds all of the previous hop; when it dies
// right after the last cell, the row holds all of the new one. No reader,
// recovered data dir or promoted replica ever finds doc:content of one
// hop beside meta or idx cells of another. On the memory table a repeated
// store then converges the row to what a store that never failed writes.
func TestStoreReportsEveryFailedWrite(t *testing.T) {
	c := newCloud(t)
	initial := c.initial(t)
	pid := initial.ProcessID()
	afterA, err := c.agents["A"].Execute(initial, "A", aea.Inputs{"request": "r"}, now)
	if err != nil {
		t.Fatal(err)
	}

	// hop stores the initial document cleanly, then the A result with the
	// call carrying cell k failing (0 = none), and fires the fault after
	// the store if it has not struck yet.
	hop := func(t *testing.T, b hopBackend, k int) (tab *cellFault, p *Portal, before string, storeErr error) {
		tab = &cellFault{DocTable: b.table}
		p = New("portal", c.env.Registry, tab, func() time.Time { return now })
		if _, err := p.StoreInitial(initial); err != nil {
			t.Fatal(err)
		}
		before = hopRow(b.table.GetRow(pid))
		tab.arm(k, b.fault)
		_, storeErr = p.Store(afterA.Doc)
		tab.fire()
		return tab, p, before, storeErr
	}

	// Reference rows from a hop nothing interrupts.
	ref := memoryBackend(t, pid)
	tab, _, prev, err := hop(t, ref, 0)
	if err != nil {
		t.Fatal(err)
	}
	next := hopRow(ref.table.GetRow(pid))
	// doc:content, four meta cells, A's stale idx cell deleted, B1's and
	// B2's written.
	cells := tab.cells
	if cells != 8 {
		t.Fatalf("an unfailed hop handed over %d cells, want 8", cells)
	}
	for _, want := range []string{"idx:" + wfdef.Fig9Participants["B1"] + `="` + wfdef.Fig9A().Name + `\x00B1"`, `meta:cers="1"`} {
		if !strings.Contains(next, want) || strings.Contains(prev, want) {
			t.Fatalf("reference rows: want %s after the hop only\nbefore:\n%s\nafter:\n%s", want, prev, next)
		}
	}
	if strings.Contains(next, "idx:"+wfdef.Fig9Participants["A"]) {
		t.Fatalf("reference row keeps A's stale index cell:\n%s", next)
	}

	for name, open := range map[string]func(*testing.T, string) hopBackend{
		"memory": memoryBackend, "durable": durableBackend, "cluster": clusterBackend,
	} {
		t.Run(name, func(t *testing.T) {
			for k := 1; k <= cells+1; k++ {
				b := open(t, pid)
				tab, p, before, err := hop(t, b, k)
				if before != prev {
					t.Fatalf("row after the initial store:\n%s\nwant:\n%s", before, prev)
				}
				want := prev
				if k > cells { // the fault came after the whole hop
					want = next
					if err != nil {
						t.Errorf("store with no cell failing: %v", err)
					}
				} else if !errors.Is(err, errInjected) {
					t.Errorf("store with cell %d of %d failing = %v, want the write's error", k, cells, err)
				}
				if got := hopRow(b.reread(pid)); got != want {
					t.Errorf("row after a fault at cell %d of %d is neither hop whole:\n%s\nwant:\n%s", k, cells, got, want)
				}
				if name == "memory" {
					tab.arm(0, nil)
					if _, err := p.Store(afterA.Doc); err != nil {
						t.Fatalf("re-store after failing cell %d: %v", k, err)
					}
					if got := hopRow(b.table.GetRow(pid)); got != next {
						t.Errorf("row after healing cell %d:\n%s\nwant:\n%s", k, got, next)
					}
				}
			}
		})
	}
}

func TestStoreTemplateReportsFailedDesignerWrite(t *testing.T) {
	c := newCloud(t)
	tab := &cellFault{DocTable: c.table}
	p := New("portal", c.env.Registry, tab, nil)
	tpl, err := document.SignTemplate(wfdef.Fig9A(), c.env.KeyOf("designer@acme"))
	if err != nil {
		t.Fatal(err)
	}
	tab.arm(2, nil) // meta:designer is refused
	if _, err := p.StoreTemplate(tpl); !errors.Is(err, errInjected) {
		t.Fatalf("StoreTemplate with a failed designer write = %v", err)
	}
	if _, ok := c.table.Get(templateRowPrefix+wfdef.Fig9A().Name, "doc", "template"); ok {
		t.Fatal("doc:template landed without its meta:designer")
	}
}

// blockRow is a DocTable whose Mutate on one row parks until released.
type blockRow struct {
	pool.DocTable
	row     string
	entered chan struct{}
	release chan struct{}
}

func (b *blockRow) Mutate(ctx context.Context, row string, cells []pool.CellMutation) error {
	if row == b.row {
		close(b.entered)
		<-b.release
	}
	return b.DocTable.Mutate(ctx, row, cells)
}

// TestStoresOfDifferentInstancesDoNotWait: while one instance's store is
// stuck in the pool, stores of other instances complete and every
// instance — the stuck one included — can be read. Under the portal-wide
// mutex all of them queued behind the stuck write.
func TestStoresOfDifferentInstancesDoNotWait(t *testing.T) {
	c := newCloud(t)
	// Three instances on three different lock stripes (the stripe is a
	// function of the process ID, the same on every portal).
	var docs []*document.Document
	for len(docs) < 3 {
		doc := c.initial(t)
		distinct := true
		for _, d := range docs {
			if c.portal.stripes.For(d.ProcessID()) == c.portal.stripes.For(doc.ProcessID()) {
				distinct = false
			}
		}
		if distinct {
			docs = append(docs, doc)
		}
	}
	stuck := docs[0].ProcessID()
	tab := &blockRow{DocTable: c.table, row: stuck, entered: make(chan struct{}), release: make(chan struct{})}
	p := New("portal", c.env.Registry, tab, nil)

	stuckDone := make(chan error, 1)
	go func() {
		_, err := p.StoreInitial(docs[0])
		stuckDone <- err
	}()
	<-tab.entered

	others := make(chan error, 1)
	go func() {
		var errs []error
		for _, doc := range docs[1:] {
			_, err := p.StoreInitial(doc)
			errs = append(errs, err)
		}
		for _, doc := range docs[1:] {
			_, err := p.RetrieveCtx(context.Background(), wfdef.Fig9Participants["A"], doc.ProcessID())
			errs = append(errs, err)
		}
		if _, err := p.RetrieveCtx(context.Background(), wfdef.Fig9Participants["A"], stuck); !errors.Is(err, ErrUnknownProcess) {
			errs = append(errs, fmt.Errorf("retrieve of the instance whose store is stuck = %v, want ErrUnknownProcess", err))
		}
		if _, err := p.WorklistCtx(context.Background(), wfdef.Fig9Participants["A"]); err != nil {
			errs = append(errs, err)
		}
		others <- errors.Join(errs...)
	}()
	select {
	case err := <-others:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(10 * time.Second):
		t.Error("stores and reads of other instances waited for the stuck one")
	}
	close(tab.release)
	if err := <-stuckDone; err != nil {
		t.Fatal(err)
	}
	if _, err := p.Retrieve(wfdef.Fig9Participants["A"], stuck); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentStoresOfOneInstanceMerge: B1 and B2 store their branch
// documents at the same moment; whichever order the instance's lock
// grants them, the row ends up with both CERs.
func TestConcurrentStoresOfOneInstanceMerge(t *testing.T) {
	c := newCloud(t)
	doc := c.initial(t)
	pid := doc.ProcessID()
	if _, err := c.portal.StoreInitial(doc); err != nil {
		t.Fatal(err)
	}
	c.run(t, pid, "A", aea.Inputs{"request": "r"})
	postA, err := c.portal.Retrieve(wfdef.Fig9Participants["B1"], pid)
	if err != nil {
		t.Fatal(err)
	}
	var branches []*document.Document
	for act, in := range map[string]aea.Inputs{"B1": {"techReview": "x"}, "B2": {"budgetReview": "y"}} {
		out, err := c.agents[act].Execute(postA.Clone(), act, in, now)
		if err != nil {
			t.Fatal(err)
		}
		branches = append(branches, out.Doc)
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for _, b := range branches {
		wg.Add(1)
		go func(b *document.Document) {
			defer wg.Done()
			<-start
			if _, err := c.portal.Store(b); err != nil {
				t.Error(err)
			}
		}(b)
	}
	close(start)
	wg.Wait()
	stored, err := c.portal.Retrieve(wfdef.Fig9Participants["C"], pid)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(stored.FinalCERs()); n != 3 {
		t.Fatalf("merged CERs = %d, want 3", n)
	}
	if cers, _ := c.table.Get(pid, "meta", "cers"); string(cers) != "3" {
		t.Fatalf("meta:cers = %q beside a 3-CER document", cers)
	}
}

// getCounter is a DocTable counting single-cell reads.
type getCounter struct {
	pool.DocTable
	gets int
}

func (g *getCounter) GetCtx(ctx context.Context, row, family, qualifier string) ([]byte, bool) {
	g.gets++
	return g.DocTable.GetCtx(ctx, row, family, qualifier)
}

func (g *getCounter) Get(row, family, qualifier string) ([]byte, bool) {
	return g.GetCtx(context.Background(), row, family, qualifier)
}

// TestWorklistReadsTheIndexOnly: the definition name rides in the idx
// cell, so a worklist over N instances is one scan and no per-row read;
// an idx cell written before that still resolves through meta:definition.
func TestWorklistReadsTheIndexOnly(t *testing.T) {
	c := newCloud(t)
	tab := &getCounter{DocTable: c.table}
	p := New("portal", c.env.Registry, tab, nil)
	const n = 6
	var legacy string
	for i := 0; i < n; i++ {
		doc := c.initial(t)
		if _, err := p.StoreInitial(doc); err != nil {
			t.Fatal(err)
		}
		legacy = doc.ProcessID()
	}
	tab.gets = 0
	alice := wfdef.Fig9Participants["A"]
	items, err := p.Worklist(alice)
	if err != nil || len(items) != n {
		t.Fatalf("worklist = %d items, %v; want %d", len(items), err, n)
	}
	for _, it := range items {
		if it.Definition != wfdef.Fig9A().Name || it.Activity != "A" {
			t.Fatalf("work item %+v", it)
		}
	}
	if tab.gets != 0 {
		t.Fatalf("worklist over %d fresh rows issued %d gets, want 0", n, tab.gets)
	}

	// The cell as the previous layout wrote it: activities only.
	if err := c.table.Put(legacy, "idx", alice, []byte("A")); err != nil {
		t.Fatal(err)
	}
	items, err = p.Worklist(alice)
	if err != nil || len(items) != n {
		t.Fatalf("worklist with a legacy cell = %d items, %v", len(items), err)
	}
	for _, it := range items {
		if it.Definition != wfdef.Fig9A().Name || it.Activity != "A" {
			t.Fatalf("work item %+v", it)
		}
	}
	if tab.gets != 1 {
		t.Fatalf("worklist with one legacy cell issued %d gets, want 1", tab.gets)
	}
}
