// Package daemon is the one place a DRA4WfMS server process is assembled
// and run. The three server roles of the paper's cloud tier (Figure 7) —
// Portal, TFC, PoolNode — differ in what they serve, not in how a server
// boots, recovers, reports ready, drains and stops, so that lifecycle
// exists once, here:
//
//	parse flags → refuse dependent flags set without their prerequisite
//	→ process setup (dsig, trace, trust, keys)
//	→ the role opens its table and builds its handler
//	→ listen → optional chaos gate → /v1/readyz ready → serve
//	→ on ctx cancel: /v1/readyz draining, in-flight requests get -grace
//	→ closers run in reverse order of registration — webhook outbox,
//	  cluster quiesce + close, store final checkpoint, trace export —
//	  whether or not the drain succeeded.
//
// A role (roles.go) holds nothing but its own wiring; cmd/draportal,
// cmd/dratfc and cmd/drapool are os.Exit(daemon.Main(role)), and a test
// boots the same code path in-process with Start.
package daemon

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"dra4wfms/internal/chaos"
	"dra4wfms/internal/dsig"
	"dra4wfms/internal/httpapi"
	"dra4wfms/internal/pki"
	"dra4wfms/internal/pool"
	"dra4wfms/internal/poolcluster"
	"dra4wfms/internal/trace"
)

// maxReplicaLag is the backup replication lag (in WAL records) past which
// /v1/readyz reports *degraded* — still 200, the primary serves, but the
// shrinking failover safety margin is surfaced.
const maxReplicaLag = 1_000

// Role is what is specific to one kind of server process.
type Role struct {
	// name is the binary's name: log prefix and usage header.
	name string
	// listen is the default -listen address.
	listen string
	// coordinator roles (portal, TFC) verify signed requests and may keep
	// their table on a drapool fleet: they get the trust/crypto/trace/
	// admission and cluster-client flag groups on top of serve and store.
	coordinator bool
	// required names the one flag the role cannot run without ("" = none).
	required string
	// wire declares the role-only flags on fs and returns the role's builder.
	wire func(fs *flag.FlagSet) builder
}

// builder assembles a role's handler once flags are parsed and process
// setup is done, opening its table and registering its closers on the way.
type builder func(*env) (http.Handler, error)

// env is one booting daemon: the shared flag values, what process setup
// loaded, and the closers registered during assembly.
type env struct {
	// serve group (all roles)
	listen    string
	grace     time.Duration
	pprof     bool
	slowOps   time.Duration
	chaos     bool
	chaosSeed int64
	// store group (all roles)
	dataDir    string
	fsync      bool
	checkpoint time.Duration
	// trust/crypto/trace/admission group (coordinators)
	trust, key      string
	suite, traceOut string
	traceSample     float64
	maxInflight     int
	// cluster-client group (coordinators)
	clusterNodes, clusterWAL string
	replicas                 int

	// node names this process to the chaos fault model.
	node string
	// clusterStatus is the portal's -cluster-status, read by openTable.
	clusterStatus string

	registry *pki.Registry        // coordinators
	keys     *pki.KeyPair         // when -key is set
	probes   *httpapi.Probes      // serves /v1/readyz
	cluster  *poolcluster.Cluster // set by openTable under -cluster-nodes

	closers []func() error
	closed  []string // names of the closers that ran, in order

	addr string       // bound listen address, once serving
	wait func() error // blocks until drained and closed
}

// onClose registers fn to run at shutdown under the given name. Closers
// run in reverse order of registration, all of them, whatever the earlier
// ones returned.
func (e *env) onClose(name string, fn func() error) {
	e.closers = append(e.closers, func() error {
		e.closed = append(e.closed, name)
		if err := fn(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	})
}

func (e *env) close() error {
	var errs []error
	for i := len(e.closers) - 1; i >= 0; i-- {
		errs = append(errs, e.closers[i]())
	}
	e.closers = nil
	return errors.Join(errs...)
}

// flagSet declares the role's whole command line — its shared flag groups,
// stored into e, and its role-only flags — and returns the role's builder.
func (role Role) flagSet(e *env) (*flag.FlagSet, builder) {
	fs := flag.NewFlagSet(role.name, flag.ContinueOnError)
	fs.StringVar(&e.listen, "listen", role.listen, "listen address")
	fs.DurationVar(&e.grace, "grace", 15*time.Second, "shutdown grace period for draining in-flight requests")
	fs.BoolVar(&e.pprof, "pprof", false, "serve /debug/pprof/* on the listen address")
	fs.DurationVar(&e.slowOps, "slowops", 0, "log spans slower than this duration (0 disables)")
	fs.BoolVar(&e.chaos, "chaos", false, "serve the "+chaos.AdminPath+" fault-injection control plane (TEST ONLY: unauthenticated)")
	fs.Int64Var(&e.chaosSeed, "chaos-seed", 42, "deterministic seed for the chaos fault PRNG (requires -chaos)")

	fs.StringVar(&e.dataDir, "data-dir", "", "durable table directory (WAL + checkpoints); empty keeps the table memory-only")
	fs.BoolVar(&e.fsync, "fsync", true, "fsync the WAL on every mutation (requires -data-dir; disable only for benchmarks)")
	fs.DurationVar(&e.checkpoint, "checkpoint-interval", 5*time.Minute, "periodic checkpoint interval (requires -data-dir; 0 disables periodic checkpoints)")

	if !role.coordinator {
		return fs, role.wire(fs)
	}
	fs.StringVar(&e.trust, "trust", "deploy/trust.json", "trust bundle path")
	fs.StringVar(&e.key, "key", "", "this server's private-key PEM (dratfc: required; draportal: enables signed webhook notifications)")
	fs.StringVar(&e.suite, "suite", dsig.SignatureAlg, "signature suite for locally produced signatures; verification always honors each signature's recorded algorithm")
	fs.StringVar(&e.traceOut, "trace-out", "", "append finished trace spans to this file as JSONL (empty disables the export; GET /v1/traces always serves the in-memory ring)")
	fs.Float64Var(&e.traceSample, "trace-sample", 1, "fraction of locally rooted traces to record, 0..1; hops continuing an inbound traceparent honor its sampled flag instead")
	fs.IntVar(&e.maxInflight, "max-inflight", 0, "admission control: shed requests beyond this many in flight with 429 (0 disables; probes always pass, writes shed before reads)")

	fs.StringVar(&e.clusterNodes, "cluster-nodes", "", "keep the table on a clustered pool: comma-separated id=url list of drapool nodes (mutually exclusive with -data-dir)")
	fs.IntVar(&e.replicas, "replicas", 2, "copies of each region across the drapool fleet, primary included (requires -cluster-nodes)")
	fs.StringVar(&e.clusterWAL, "cluster-wal", "", "replication outbox WAL file; journaled replication intents survive restarts (requires -cluster-nodes)")
	return fs, role.wire(fs)
}

// flagRule relates two flags: flag, when set explicitly, is refused unless
// (requires) or if (excludes) other is in effect.
type flagRule struct {
	flag, other string
	excludes    bool
}

func (r flagRule) String() string {
	if r.excludes {
		return fmt.Sprintf("-%s and -%s are mutually exclusive", r.flag, r.other)
	}
	return fmt.Sprintf("-%s requires -%s", r.flag, r.other)
}

// flagRules is every relation between flags. Rules naming a flag the role
// does not have never fire.
var flagRules = []flagRule{
	{flag: "cluster-wal", other: "cluster-nodes"},
	{flag: "cluster-status", other: "cluster-nodes"},
	{flag: "replicas", other: "cluster-nodes"},
	{flag: "fsync", other: "data-dir"},
	{flag: "checkpoint-interval", other: "data-dir"},
	{flag: "chaos-seed", other: "chaos"},
	{flag: "webhook-wal", other: "key"},
	{flag: "cluster-nodes", other: "data-dir", excludes: true},
}

// checkFlags applies flagRules to the explicitly set flags of a parsed
// fs (defaults never trip a rule) and insists on the role's required flag.
func checkFlags(fs *flag.FlagSet, required string) error {
	on := func(name string) bool {
		f := fs.Lookup(name)
		return f != nil && f.Value.String() != "" && f.Value.String() != "false"
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, r := range flagRules {
		violated := !on(r.other)
		if r.excludes {
			violated = on(r.flag) && on(r.other)
		}
		if set[r.flag] && violated {
			return errors.New(r.String())
		}
	}
	if required != "" && !on(required) {
		return fmt.Errorf("missing -%s", required)
	}
	return nil
}

// setup is the process-wide half of boot: signature suite, trace
// sampling and export, slow-operation logging, and for coordinators the
// trust registry and the server's own key.
func (e *env) setup(role Role) error {
	if e.slowOps > 0 {
		trace.Default().SetSlowOpThreshold(e.slowOps)
		trace.Default().SetSlowOpLogger(log.Default())
		log.Printf("logging operations slower than %s", e.slowOps)
	}
	if !role.coordinator {
		return nil
	}
	if err := dsig.ConfigureSuite(e.suite); err != nil {
		return fmt.Errorf("-suite: %w", err)
	}
	if e.traceSample < 1 {
		trace.Default().SetSampler(trace.RatioSample(e.traceSample))
		log.Printf("sampling %.0f%% of trace roots", e.traceSample*100)
	}
	if e.traceOut != "" {
		f, err := os.OpenFile(e.traceOut, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("opening -trace-out: %w", err)
		}
		trace.Default().SetOutput(f)
		e.onClose("trace export", func() error {
			trace.Default().SetOutput(nil)
			return f.Close()
		})
		log.Printf("exporting trace spans to %s", e.traceOut)
	}

	data, err := os.ReadFile(e.trust)
	if err != nil {
		return err
	}
	bundle, err := pki.ParseBundle(data)
	if err != nil {
		return fmt.Errorf("trust bundle %s: %w", e.trust, err)
	}
	if e.registry, err = bundle.BuildRegistry(time.Now()); err != nil {
		return fmt.Errorf("trust bundle %s: %w", e.trust, err)
	}
	if e.key != "" {
		keyPEM, err := os.ReadFile(e.key)
		if err != nil {
			return err
		}
		if e.keys, err = pki.DecodePrivateKeyPEM(keyPEM); err != nil {
			return fmt.Errorf("-key %s: %w", e.key, err)
		}
	}
	return nil
}

// openTable returns the role's table: under -cluster-nodes a
// read-your-writes session over the drapool fleet (with the cluster and
// replication-lag readiness checks registered), otherwise a local
// *pool.Table with the given name and families — crash-safe under
// -data-dir, and then fully recovered before openTable returns, so
// /v1/readyz gates on a replayed table.
func (e *env) openTable(name string, families ...pool.FamilySpec) (pool.DocTable, error) {
	if e.clusterNodes != "" {
		refs, err := httpapi.ParseClusterNodes(e.clusterNodes)
		if err != nil {
			return nil, err
		}
		pc, err := poolcluster.New(refs, poolcluster.Config{
			Replicas:   e.replicas,
			RelayDir:   e.clusterWAL,
			StatusPath: e.clusterStatus,
		})
		if err != nil {
			return nil, fmt.Errorf("joining pool cluster: %w", err)
		}
		e.cluster = pc
		e.onClose("cluster", func() error {
			// Best-effort convergence before handoff: intents are already
			// journaled, this only shortens the next coordinator's catch-up.
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			return errors.Join(pc.Quiesce(ctx), pc.Close())
		})
		// A region without a live primary cannot accept writes: unready.
		// A lagging backup still serves: degraded, stays in rotation.
		e.probes.AddCheck("cluster", pc.HealthCheck)
		e.probes.AddDegradedCheck("replication-lag", pc.LagCheck(maxReplicaLag))
		log.Printf("clustered pool: %d nodes, %d replicas per region", len(refs), pc.Replicas())
		return pc.NewSession(), nil
	}
	table, err := pool.NewTable(name, families...)
	if err != nil {
		return nil, err
	}
	if e.dataDir == "" {
		return table, nil
	}
	store, rep, err := pool.Open(table, e.dataDir, pool.StoreOptions{
		NoFsync:            !e.fsync,
		CheckpointInterval: e.checkpoint,
	})
	if err != nil {
		return nil, fmt.Errorf("opening durable table in %s: %w", e.dataDir, err)
	}
	e.onClose("store", func() error {
		if err := store.Close(); err != nil {
			return fmt.Errorf("final checkpoint: %w", err)
		}
		log.Printf("final checkpoint written to %s", store.Dir())
		return nil
	})
	log.Printf("durable table in %s: %s", e.dataDir, rep.Summary())
	if rep.Damaged() {
		log.Printf("WARNING: recovery quarantined damaged WAL data (%s); inspect %s", rep.DamageReason, rep.QuarantineFile)
	}
	return table, nil
}

// admission is the -max-inflight gate: nil (admit everything) when the
// flag is 0, otherwise a bound on in-flight requests that sheds the
// excess with 429 before any RSA work is bought, writes before reads.
// When given, the webhook relay's backlog is a pressure signal that
// sheds writes early.
func (e *env) admission(relayPending func() int) *httpapi.Admission {
	if e.maxInflight <= 0 {
		return nil
	}
	log.Printf("admission control: max %d in-flight requests", e.maxInflight)
	return httpapi.NewAdmission(httpapi.AdmissionConfig{
		MaxInFlight:  e.maxInflight,
		RelayPending: relayPending,
	})
}

// errUsage marks a command line already reported on the flag set's
// output.
var errUsage = errors.New("bad command line")

// Start boots role with the given command-line arguments (without the
// program name) and serves until ctx is canceled. It returns once the
// daemon is listening and /v1/readyz reports ready: addr is the bound
// address (-listen 127.0.0.1:0 picks a free port), and wait blocks until
// the daemon has drained and every closer has run, returning what went
// wrong on the way down — a drain that outlived -grace, a failed final
// checkpoint — or nil after a clean stop.
func Start(ctx context.Context, role Role, args []string) (addr string, wait func() error, err error) {
	e, err := boot(ctx, role, args)
	if err != nil {
		return "", nil, err
	}
	return e.addr, e.wait, nil
}

func boot(ctx context.Context, role Role, args []string) (_ *env, err error) {
	e := &env{probes: httpapi.NewProbes(), node: strings.TrimPrefix(role.name, "dra")}
	fs, build := role.flagSet(e)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil, err
		}
		return nil, fmt.Errorf("%w: %v", errUsage, err)
	}
	// A fraction outside [0, 1] is a bad command line (NaN fails both
	// comparisons), reported on the flag set's output like a parse error.
	if f := fs.Lookup("trace-sample"); f != nil && !(e.traceSample >= 0 && e.traceSample <= 1) {
		err := fmt.Errorf("invalid value %s for flag -trace-sample: outside [0, 1]", f.Value)
		fmt.Fprintln(fs.Output(), err)
		return nil, fmt.Errorf("%w: %v", errUsage, err)
	}
	if err := checkFlags(fs, role.required); err != nil {
		return nil, err
	}
	// From here on whatever was opened is closed again on failure.
	defer func() {
		if err != nil {
			err = errors.Join(err, e.close())
		}
	}()
	if err := e.setup(role); err != nil {
		return nil, err
	}
	handler, err := build(e)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", e.listen)
	if err != nil {
		return nil, fmt.Errorf("listening on %s: %w", e.listen, err)
	}
	if e.chaos {
		// Chaos mode: the daemon's own traffic passes through the fault
		// model (crash/slow at the listener, partitions at the handler
		// gate), and the control plane that drives it is served on
		// AdminPath — exempt from the gate so drills can heal what they
		// injected. Test-only: the control plane is unauthenticated.
		cnet := chaos.NewNetwork(e.chaosSeed)
		mux := http.NewServeMux()
		mux.Handle(chaos.AdminPath, cnet.Handler())
		mux.Handle("/", handler)
		handler = cnet.Gate(e.node, mux)
		ln = cnet.WrapListener(e.node, ln)
		log.Printf("CHAOS MODE: fault injection enabled (seed %d, control plane on %s)", e.chaosSeed, chaos.AdminPath)
	}
	// Recovery is complete and every subsystem is wired: advertise ready.
	e.probes.SetReady(true)
	log.Printf("serving on %s", ln.Addr())
	done := make(chan error, 1)
	go func() {
		err := httpapi.ServeListener(ctx, ln, handler, e.grace, func() {
			log.Printf("shutdown requested, draining in-flight requests (grace %s)", e.grace)
			e.probes.StartDraining()
		})
		if err != nil {
			err = fmt.Errorf("serving: %w", err)
		}
		done <- errors.Join(err, e.close())
	}()
	e.addr = ln.Addr().String()
	e.wait = sync.OnceValue(func() error { return <-done })
	return e, nil
}

// Main runs role as this process: flags from os.Args, stop on SIGINT or
// SIGTERM, and the exit code — 0 after a clean drain (or -h), 2 for an
// unparsable command line, 1 for anything else, cleanup included.
func Main(role Role) int {
	log.SetFlags(0)
	log.SetPrefix(role.name + ": ")
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	_, wait, err := Start(ctx, role, os.Args[1:])
	if err == nil {
		err = wait()
	}
	switch {
	case err == nil:
		log.Print("shutdown complete")
		return 0
	case errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errUsage):
		return 2
	}
	log.Print(err)
	return 1
}
