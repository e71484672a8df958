package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"dra4wfms/internal/document"
	"dra4wfms/internal/dsig"
	"dra4wfms/internal/httpapi"
	"dra4wfms/internal/monitor"
	"dra4wfms/internal/pool"
	"dra4wfms/internal/poolcluster"
	"dra4wfms/internal/portal"
	"dra4wfms/internal/relay"
	"dra4wfms/internal/secpol"
	"dra4wfms/internal/telemetry"
	"dra4wfms/internal/tfc"
	"dra4wfms/internal/wfdef"
	"dra4wfms/internal/xmlenc"
	"dra4wfms/internal/xmltree"
)

// layerRow is one line of the layer ledger.
type layerRow struct {
	Calls    int     `json:"calls"`
	MedianMs float64 `json:"median_ms"`
	BytesIn  int64   `json:"bytes_in"`
	Failures int     `json:"failures"`
}

// Every replayed layer gets the same small budget: the ledger wants a
// median per layer, not a long run of any one of them.
const (
	replayBudget   = 250 * time.Millisecond
	replayMaxCalls = 300
	replayMinCalls = 5
)

// call times one invocation of a layer's public function. It returns the
// time spent inside the function alone (set-up such as cloning is done by
// the closure before it starts the clock), the bytes handed in, and the
// function's error.
type call func(c capturedHop) (time.Duration, int, error)

// timeLayer runs fn over the captured hops, in a seeded shuffled order so a
// budget-limited pass still sees every depth, until the budget is spent.
func timeLayer(caps []capturedHop, order []int, fn call) layerRow {
	var row layerRow
	var ms []float64
	var spent time.Duration
	for n := 0; n < replayMaxCalls && (spent < replayBudget || n < replayMinCalls); n++ {
		c := caps[order[n%len(order)]]
		d, b, err := fn(c)
		row.Calls++
		row.BytesIn += int64(b)
		spent += d
		if err != nil {
			row.Failures++
			continue
		}
		ms = append(ms, float64(d)/1e6)
	}
	if len(ms) > 0 {
		row.MedianMs = median(ms)
	}
	return row
}

// since runs f and returns how long it took.
func since(f func() error) (time.Duration, error) {
	t := time.Now()
	err := f()
	return time.Since(t), err
}

// replayLayers times calls into the public functions of each layer over
// the documents the traced run captured at every hop. It runs in this
// process, after the fleet is gone; dir is a scratch directory.
func replayLayers(w workloadDef, t *trust, caps []capturedHop, seed int64, dir string) (map[string]layerRow, map[string]float64, error) {
	if len(caps) == 0 {
		return nil, nil, errors.New("the traced run captured no documents")
	}
	ctx := context.Background()
	order := rand.New(rand.NewSource(seed)).Perm(len(caps))
	rows := map[string]layerRow{}
	extra := map[string]float64{}
	reg := t.Registry
	def := wfdef.Fig9A()
	if w.Model == "fig9b" {
		def = wfdef.Fig9B()
	}
	reader := t.Keys[participantOf("C")] // every participant reads every field
	parse := func(b []byte) *document.Document {
		d, err := document.Parse(b)
		if err != nil {
			panic(fmt.Sprintf("a captured document no longer parses: %v", err))
		}
		return d
	}

	rows["xmltree.parse_ms"] = timeLayer(caps, order, func(c capturedHop) (time.Duration, int, error) {
		d, err := since(func() error { _, err := xmltree.ParseBytes(c.Out); return err })
		return d, len(c.Out), err
	})
	rows["xmltree.canonical_ms"] = timeLayer(caps, order, func(c capturedHop) (time.Duration, int, error) {
		fresh := parse(c.Out).Root.Clone()
		d, _ := since(func() error { fresh.Canonical(); return nil })
		return d, len(c.Out), nil
	})
	rows["dsig.verify_cold_ms"] = timeLayer(caps, order, func(c capturedHop) (time.Duration, int, error) {
		doc := parse(c.Out)
		cold := &dsig.Verifier{Cache: dsig.NewCache(dsig.DefaultCacheSize)}
		d, err := since(func() error { _, err := doc.VerifyAllWith(cold, reg); return err })
		return d, len(c.Out), err
	})
	for _, c := range caps { // fill the default verifier's cache
		if _, err := parse(c.Out).VerifyAll(reg); err != nil {
			return nil, nil, fmt.Errorf("a captured document no longer verifies: %w", err)
		}
	}
	rows["dsig.verify_warm_ms"] = timeLayer(caps, order, func(c capturedHop) (time.Duration, int, error) {
		doc := parse(c.Out)
		d, err := since(func() error { _, err := doc.VerifyAllWith(dsig.DefaultVerifier(), reg); return err })
		return d, len(c.Out), err
	})
	// Hit ratio of one cache fed the hops in the order they happened, as a
	// daemon's is.
	hits := telemetry.Default().Counter("dsig_verify_cache_hits_total")
	misses := telemetry.Default().Counter("dsig_verify_cache_misses_total")
	h0, m0 := hits.Value(), misses.Value()
	sequential := &dsig.Verifier{Cache: dsig.NewCache(dsig.DefaultCacheSize)}
	for _, c := range caps {
		if _, err := parse(c.Out).VerifyAllWith(sequential, reg); err != nil {
			return nil, nil, err
		}
	}
	if h, m := hits.Value()-h0, misses.Value()-m0; h+m > 0 {
		extra["dsig.cache_hit_ratio"] = float64(h) / float64(h+m)
	}

	rows["dsig.sign_ms"] = timeLayer(caps, order, func(c capturedHop) (time.Duration, int, error) {
		doc := parse(c.Out)
		d, err := since(func() error {
			_, err := dsig.Sign(doc.Root, []string{document.HeaderID}, reader, "sig-replay")
			return err
		})
		return d, len(c.Out), err
	})
	recipients, err := secpol.Recipients(def, reg, "summary")
	if err != nil {
		return nil, nil, err
	}
	rows["xmlenc.encrypt_ms"] = timeLayer(caps, order, func(c capturedHop) (time.Duration, int, error) {
		field := document.Field("summary", "both positive 0123abcd")
		d, err := since(func() error { _, err := xmlenc.Encrypt(field, "enc-replay", recipients...); return err })
		return d, len(field.Canonical()), err
	})
	rows["xmlenc.decrypt_ms"] = timeLayer(caps, order, func(c capturedHop) (time.Duration, int, error) {
		view := parse(c.Out)
		d, err := since(func() error { _, err := xmlenc.DecryptVisible(view.Root, reader); return err })
		return d, len(c.Out), err
	})
	rows["document.merge_ms"] = timeLayer(caps, order, func(c capturedHop) (time.Duration, int, error) {
		a, b := parse(c.In), parse(c.Out)
		d, err := since(func() error { _, err := document.Merge(a, b); return err })
		return d, len(c.In) + len(c.Out), err
	})
	auth := httpapi.NewAuthenticator(reg, nil)
	rows["httpapi.auth_ms"] = timeLayer(caps, order, func(c capturedHop) (time.Duration, int, error) {
		req, err := http.NewRequest(http.MethodPost, "http://portal.invalid/v1/documents", nil)
		if err != nil {
			return 0, 0, err
		}
		d, err := since(func() error {
			if err := httpapi.SignRequest(req, c.Out, reader, time.Now()); err != nil {
				return err
			}
			_, err := auth.Verify(req, c.Out)
			return err
		})
		return d, len(c.Out), err
	})

	// portal over an in-memory table: put the hop's input where the portal
	// would find it, then time the store of its output.
	memTable := func(id string) (*pool.Table, error) {
		cl, err := pool.NewCluster([]string{id}, 1<<20)
		if err != nil {
			return nil, err
		}
		return portal.CreateTable(cl)
	}
	ptable, err := memTable("rs-replay")
	if err != nil {
		return nil, nil, err
	}
	prt := portal.New("replay", reg, ptable, nil)
	rows["portal.store_ms"] = timeLayer(caps, order, func(c capturedHop) (time.Duration, int, error) {
		out := parse(c.Out)
		if err := ptable.Put(out.ProcessID(), "doc", "content", c.In); err != nil {
			return 0, 0, err
		}
		d, err := since(func() error { _, err := prt.StoreCtx(ctx, out); return err })
		return d, len(c.Out), err
	})
	rows["portal.retrieve_ms"] = timeLayer(caps, order, func(c capturedHop) (time.Duration, int, error) {
		pid := parse(c.Out).ProcessID()
		d, err := since(func() error { _, err := prt.RetrieveCtx(ctx, reader.Owner, pid); return err })
		return d, len(c.Out), err
	})
	rows["monitor.stats_ms"] = timeLayer(caps, order, func(c capturedHop) (time.Duration, int, error) {
		d, err := since(func() error { _, err := monitor.New(ptable).Statistics(); return err })
		return d, 0, err
	})

	// pool WAL with fsync on.
	wtable, err := memTable("rs-wal")
	if err != nil {
		return nil, nil, err
	}
	walDir := filepath.Join(dir, "wal")
	store, _, err := pool.Open(wtable, walDir, pool.StoreOptions{})
	if err != nil {
		return nil, nil, err
	}
	n := 0
	rows["pool.wal_put_ms"] = timeLayer(caps, order, func(c capturedHop) (time.Duration, int, error) {
		n++
		row := fmt.Sprintf("row-%06d", n)
		d, err := since(func() error { return wtable.PutCtx(ctx, row, "doc", "content", c.Out) })
		return d, len(c.Out), err
	})
	if put := rows["pool.wal_put_ms"].BytesIn; put > 0 {
		extra["pool.wal_write_amp"] = float64(dirSize(walDir)) / float64(put)
	}
	if err := store.Close(); err != nil {
		return nil, nil, err
	}

	// poolcluster: three in-process nodes, two replicas.
	var refs []poolcluster.NodeRef
	for i := 1; i <= 3; i++ {
		id := fmt.Sprintf("n%d", i)
		tbl, err := memTable(id + "-rs")
		if err != nil {
			return nil, nil, err
		}
		refs = append(refs, poolcluster.NewNode(id, tbl))
	}
	pc, err := poolcluster.New(refs, poolcluster.Config{Replicas: 2, RelayDir: filepath.Join(dir, "replication-outbox.wal")})
	if err != nil {
		return nil, nil, err
	}
	sess := pc.NewSession()
	rows["poolcluster.put_ms"] = timeLayer(caps, order, func(c capturedHop) (time.Duration, int, error) {
		n++
		row := fmt.Sprintf("row-%06d", n)
		d, err := since(func() error { return sess.PutCtx(ctx, row, "doc", "content", c.Out) })
		return d, len(c.Out), err
	})
	if err := pc.Close(); err != nil {
		return nil, nil, err
	}

	outbox, err := relay.OpenOutbox(filepath.Join(dir, "outbox.wal"))
	if err != nil {
		return nil, nil, err
	}
	rows["relay.append_ms"] = timeLayer(caps, order, func(c capturedHop) (time.Duration, int, error) {
		n++
		key := fmt.Sprintf("key-%06d", n)
		d, err := since(func() error { _, _, err := outbox.Append("replay", "store", key, "", c.Out); return err })
		return d, len(c.Out), err
	})
	if err := outbox.Close(); err != nil {
		return nil, nil, err
	}

	// The TFC refuses an intermediate it has seen, so every call gets a
	// server with an empty forwarding log.
	rows["tfc.process_ms"] = layerRow{}
	if caps[0].Interm != nil {
		rows["tfc.process_ms"] = timeLayer(caps, order, func(c capturedHop) (time.Duration, int, error) {
			srv := tfc.New(t.Keys["tfc@cloud"], reg, nil)
			interm := parse(c.Interm)
			d, err := since(func() error { _, err := srv.ProcessCtx(ctx, interm); return err })
			return d, len(c.Interm), err
		})
	}
	return rows, extra, nil
}

// dirSize sums the sizes of the regular files directly in dir.
func dirSize(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total
}
