// draportal runs a DRA4WfMS portal server over HTTP (Figure 7 of the
// paper): it hosts a document pool, the portal logic, and the monitoring
// endpoints, authenticating every request against the deployment's trust
// bundle (see drakeys).
//
// Usage:
//
//	draportal -listen :8080 -trust deploy/trust.json
//	          [-data-dir ./data] [-fsync=true] [-checkpoint-interval 5m]
//	          [-grace 15s]
//	          [-cluster-nodes n1=http://…,n2=http://…] [-replicas 2]
//	          [-cluster-wal FILE] [-cluster-status FILE]
//
// With -data-dir the document pool is crash-safe: every mutation is
// journaled to a checksummed WAL before it is acknowledged, checkpoints
// are written periodically, and on boot the pool recovers from the latest
// valid checkpoint plus the WAL suffix. GET /v1/readyz reports 200 only
// after recovery has completed. On SIGINT/SIGTERM the server drains
// in-flight requests, flushes the webhook outbox, writes a final
// checkpoint, and exits 0.
//
// By default each draportal process hosts its own pool. With
// -cluster-nodes the portal instead coordinates a fleet of drapool
// processes: writes replicate across -replicas nodes, the portal's reads
// are read-your-writes, and killing a pool node loses no acknowledged
// write (see DESIGN.md "Clustered pool"). -cluster-nodes is mutually
// exclusive with -data-dir — durability then lives on the drapool nodes.
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dra4wfms/internal/chaos"
	"dra4wfms/internal/dsig"
	"dra4wfms/internal/httpapi"
	"dra4wfms/internal/monitor"
	"dra4wfms/internal/pki"
	"dra4wfms/internal/pool"
	"dra4wfms/internal/poolcluster"
	"dra4wfms/internal/portal"
	"dra4wfms/internal/relay"
	"dra4wfms/internal/telemetry"
	"dra4wfms/internal/trace"
)

// maxRelayBacklog is the webhook outbox depth past which /v1/readyz
// reports unready (delivery is falling behind; stop routing new work).
const maxRelayBacklog = 10_000

// maxReplicaLag is the backup replication lag (in WAL records) past
// which /v1/readyz reports *degraded* — still 200, the primary serves,
// but the shrinking failover safety margin is surfaced.
const maxReplicaLag = 1_000

func main() {
	log.SetFlags(0)
	log.SetPrefix("draportal: ")
	listen := flag.String("listen", ":8080", "listen address")
	trust := flag.String("trust", "deploy/trust.json", "trust bundle path")
	keyPath := flag.String("key", "", "portal private-key PEM; enables signed webhook notifications")
	webhookWAL := flag.String("webhook-wal", "", "outbox WAL file for webhook deliveries; pending notifications survive restarts (requires -key)")
	dataDir := flag.String("data-dir", "", "durable pool directory (WAL + checkpoints); empty keeps the pool memory-only")
	clusterNodes := flag.String("cluster-nodes", "", "clustered pool: comma-separated id=url list of drapool nodes (mutually exclusive with -data-dir)")
	replicas := flag.Int("replicas", 2, "copies of each region across the drapool fleet, primary included (requires -cluster-nodes)")
	clusterWAL := flag.String("cluster-wal", "", "replication outbox WAL file; journaled replication intents survive portal restarts (requires -cluster-nodes)")
	clusterStatus := flag.String("cluster-status", "", "file receiving the region-directory snapshot on every topology change, for offline `dractl cluster status -data-dir` (requires -cluster-nodes)")
	fsync := flag.Bool("fsync", true, "fsync the pool WAL on every mutation (requires -data-dir; disable only for benchmarks)")
	ckInterval := flag.Duration("checkpoint-interval", 5*time.Minute, "periodic pool checkpoint interval (0 disables periodic checkpoints)")
	grace := flag.Duration("grace", 15*time.Second, "shutdown grace period for draining in-flight requests")
	pprofOn := flag.Bool("pprof", false, "serve /debug/pprof/* on the listen address")
	slowOps := flag.Duration("slowops", 0, "log spans slower than this duration (0 disables)")
	verifyWorkers := flag.Int("verify-workers", 0, "max concurrent signature verifications per document (0 = all cores, 1 = serial)")
	verifyCache := flag.Int("verify-cache", dsig.DefaultCacheSize, "verified-prefix cache entries (0 disables the cache)")
	suite := flag.String("suite", dsig.SignatureAlg, "signature suite for locally produced signatures; verification always honors each signature's recorded algorithm")
	traceOut := flag.String("trace-out", "", "append finished trace spans to this file as JSONL (empty disables the export; GET /v1/traces always serves the in-memory ring)")
	traceSample := flag.Float64("trace-sample", 1, "fraction of locally rooted traces to record, 0..1; hops continuing an inbound traceparent honor its sampled flag instead")
	maxInflight := flag.Int("max-inflight", 0, "admission control: shed requests beyond this many in flight with 429 (0 disables; probes always pass, writes shed before reads)")
	chaosOn := flag.Bool("chaos", false, "serve the "+chaos.AdminPath+" fault-injection control plane (TEST ONLY: unauthenticated)")
	chaosSeed := flag.Int64("chaos-seed", 42, "deterministic seed for the chaos fault PRNG (requires -chaos)")
	flag.Parse()

	dsig.Configure(*verifyWorkers, *verifyCache)
	if err := dsig.ConfigureSuite(*suite); err != nil {
		log.Fatalf("-suite: %v", err)
	}
	if *traceSample < 1 {
		trace.Default().SetSampler(trace.RatioSample(*traceSample))
		log.Printf("sampling %.0f%% of trace roots", *traceSample*100)
	}
	var traceFile *os.File
	if *traceOut != "" {
		f, err := os.OpenFile(*traceOut, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatalf("opening -trace-out: %v", err)
		}
		traceFile = f
		trace.Default().SetOutput(f)
		log.Printf("exporting trace spans to %s", *traceOut)
	}
	if *slowOps > 0 {
		telemetry.Default().SetSlowOpThreshold(*slowOps)
		telemetry.Default().SetSlowOpLogger(log.Default())
		log.Printf("logging operations slower than %s", *slowOps)
	}

	data, err := os.ReadFile(*trust)
	if err != nil {
		log.Fatal(err)
	}
	bundle, err := pki.ParseBundle(data)
	if err != nil {
		log.Fatal(err)
	}
	reg, err := bundle.BuildRegistry(time.Now())
	if err != nil {
		log.Fatal(err)
	}

	// The documents table: a local in-process pool (optionally durable via
	// -data-dir) or a read-your-writes session over a drapool fleet.
	var docs pool.DocTable
	var store *pool.Store
	var pc *poolcluster.Cluster
	if *clusterNodes != "" {
		if *dataDir != "" {
			log.Fatal("-cluster-nodes and -data-dir are mutually exclusive: with a clustered pool, durability lives on the drapool nodes")
		}
		refs, err := httpapi.ParseClusterNodes(*clusterNodes)
		if err != nil {
			log.Fatal(err)
		}
		pc, err = poolcluster.New(refs, poolcluster.Config{
			Replicas:   *replicas,
			RelayDir:   *clusterWAL,
			StatusPath: *clusterStatus,
		})
		if err != nil {
			log.Fatalf("joining pool cluster: %v", err)
		}
		docs = pc.NewSession()
		log.Printf("clustered pool: %d nodes, %d replicas per region", len(refs), pc.Replicas())
	} else {
		cluster, err := pool.NewCluster([]string{"local"}, 1<<20)
		if err != nil {
			log.Fatal(err)
		}
		table, err := portal.CreateTable(cluster)
		if err != nil {
			log.Fatal(err)
		}
		docs = table

		// Durable pool: recover before taking traffic, so readyz gates on
		// a fully replayed table.
		if *dataDir != "" {
			var rep *pool.RecoveryReport
			store, rep, err = pool.Open(table, *dataDir, pool.StoreOptions{
				NoFsync:            !*fsync,
				CheckpointInterval: *ckInterval,
			})
			if err != nil {
				log.Fatalf("opening durable pool in %s: %v", *dataDir, err)
			}
			log.Printf("durable pool in %s: %s", *dataDir, rep.Summary())
			if rep.Damaged() {
				log.Printf("WARNING: recovery quarantined damaged WAL data (%s); inspect %s", rep.DamageReason, rep.QuarantineFile)
			}
		}
	}

	p := portal.New("portal", reg, docs, time.Now)
	srv := httpapi.NewPortalServer(p, monitor.New(docs), httpapi.NewAuthenticator(reg, time.Now))
	srv.EnablePprof = *pprofOn
	srv.Cluster = pc
	probes := httpapi.NewProbes()
	srv.Probes = probes
	if pc != nil {
		// A region without a live primary cannot accept writes: unready.
		// A lagging backup still serves: degraded, stays in rotation.
		probes.AddCheck("cluster", pc.HealthCheck)
		probes.AddDegradedCheck("replication-lag", pc.LagCheck(maxReplicaLag))
	}
	if *keyPath != "" {
		keyPEM, err := os.ReadFile(*keyPath)
		if err != nil {
			log.Fatal(err)
		}
		keys, err := pki.DecodePrivateKeyPEM(keyPEM)
		if err != nil {
			log.Fatal(err)
		}
		srv.EnableWebhooksAt(keys, *webhookWAL)
		if *webhookWAL != "" {
			log.Printf("webhook notifications enabled, signing as %s, outbox WAL %s", keys.Owner, *webhookWAL)
		} else {
			log.Printf("webhook notifications enabled, signing as %s", keys.Owner)
		}
		probes.AddCheck("relay", httpapi.RelaySaturationCheck(func() *relay.Relay {
			return srv.Webhooks.Relay()
		}, maxRelayBacklog))
	} else if *webhookWAL != "" {
		log.Fatal("-webhook-wal requires -key")
	}

	// Admission control: bound the in-flight request count and shed the
	// excess with 429 before any RSA work is bought. Pressure signals —
	// verify-pool depth and webhook-relay backlog — shed writes early so
	// reads and probes stay responsive under overload.
	if *maxInflight > 0 {
		cfg := httpapi.AdmissionConfig{
			MaxInFlight: *maxInflight,
			VerifyDepth: dsig.PoolDepth,
		}
		if srv.Webhooks != nil {
			cfg.RelayPending = func() int {
				if r := srv.Webhooks.Relay(); r != nil {
					return int(r.Stats().Pending)
				}
				return 0
			}
		}
		srv.Admission = httpapi.NewAdmission(cfg)
		log.Printf("admission control: max %d in-flight requests", *maxInflight)
	}

	// Recovery is complete and all subsystems are wired: advertise ready.
	probes.SetReady(true)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	handler := http.Handler(srv.Handler())
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("listening on %s: %v", *listen, err)
	}
	if *chaosOn {
		// Chaos mode: partitions gate the handler, crash/slow wrap the
		// listener, and the control plane on AdminPath stays reachable so
		// drills can heal what they injected. Test-only.
		cnet := chaos.NewNetwork(*chaosSeed)
		mux := http.NewServeMux()
		mux.Handle(chaos.AdminPath, cnet.Handler())
		mux.Handle("/", handler)
		handler = cnet.Gate("portal", mux)
		ln = cnet.WrapListener("portal", ln)
		log.Printf("CHAOS MODE: fault injection enabled (seed %d, control plane on %s)", *chaosSeed, chaos.AdminPath)
	}

	log.Printf("serving %d principals on %s", len(reg.Principals()), *listen)
	if err := httpapi.ServeListener(ctx, ln, handler, *grace, func() {
		log.Printf("shutdown requested, draining in-flight requests (grace %s)", *grace)
		probes.StartDraining()
	}); err != nil {
		log.Fatalf("serving: %v", err)
	}

	// Drain order: webhook outbox first (it may still append relay state),
	// then the pool's final checkpoint.
	if srv.Webhooks != nil {
		if err := srv.Webhooks.Close(); err != nil {
			log.Printf("flushing webhook outbox: %v", err)
		}
	}
	if pc != nil {
		// Best-effort convergence before handoff; unjournaled nothing is
		// at stake (intents are already durable), this just shortens the
		// next coordinator's catch-up.
		qctx, qcancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := pc.Quiesce(qctx); err != nil {
			log.Printf("cluster quiesce: %v", err)
		}
		qcancel()
		if err := pc.Close(); err != nil {
			log.Printf("closing cluster coordinator: %v", err)
		}
	}
	if store != nil {
		if err := store.Close(); err != nil {
			log.Fatalf("final checkpoint: %v", err)
		}
		log.Printf("final checkpoint written to %s", store.Dir())
	}
	if traceFile != nil {
		trace.Default().SetOutput(nil)
		if err := traceFile.Close(); err != nil {
			log.Printf("closing trace export: %v", err)
		}
	}
	log.Print("shutdown complete")
}
