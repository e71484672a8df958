package main

import "time"

// This file is the benchmark's catalogue: every metric, workload and
// predicted interaction by name. BENCHMARK.json at the repository root
// repeats the metric and workload entries; TestCatalogueMatchesManifest
// keeps the two in step.

// defaultSeconds is the measured time of one run (BENCHMARK.json's
// run_seconds); it is split evenly over the run's rounds.
const defaultSeconds = 21

// defaultRounds is how many times one run sets the fleet up from nothing.
// Each round measures a third of the run, so setup_s is a median of three
// and fleet-to-fleet differences average out inside a run.
const defaultRounds = 3

// rsaBits is the key size of the generated trust bundle (the paper's).
const rsaBits = 2048

// metricDef describes one reported metric.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// Slack is an absolute allowance in the metric's unit on top of the
	// relative bound (setup_s: half a second), used by -repeat only.
	Slack float64 `json:"slack,omitempty"`
	What  string  `json:"what"`
}

// endToEnd lists what a participant or operator of the system sees. Every
// workload reports every one of them.
var endToEnd = []metricDef{
	{Name: "hop_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		What: "median hop latency, from when the hop was due to the portal's 2xx on store"},
	{Name: "hops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25,
		What: "completed, verified hops per second of measured time"},
	{Name: "read_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		What: "Worklist/Retrieve/Status/Processes calls from due time: the mean over the kinds of call of each kind's median"},
	{Name: "stats_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		What: "median of Client.Statistics(), the MapReduce over the whole pool"},
	{Name: "final_doc_bytes", Unit: "B", Better: "lower", Bound: 0.01,
		What: "median size of a completed document (the paper's sigma)"},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Slack: 0.5,
		What: "first daemon spawn to all /v1/readyz 200, preload done and warm-up done; excludes go build and key generation"},
}

// loopKind says how load is offered.
type loopKind string

const (
	closedLoop loopKind = "closed" // a client starts its next instance when the last one ends
	openLoop   loopKind = "open"   // work arrives on a schedule whatever the system does
)

// fleetKind names a daemon topology.
type fleetKind string

const (
	fleetCluster fleetKind = "cluster" // 3 drapool + draportal -cluster-nodes -replicas 2 -cluster-wal
	fleetDurable fleetKind = "durable" // draportal -data-dir -fsync + dratfc -data-dir -fsync
	fleetMemory  fleetKind = "memory"  // draportal alone, memory-only pool
)

// workloadDef describes one workload. Counts and rates are frozen here:
// a later change that wants different ones is a change to the benchmark.
type workloadDef struct {
	Name    string    `json:"name"`
	Why     string    `json:"why"`
	Fleet   fleetKind `json:"fleet"`
	Model   string    `json:"model"` // fig9a or fig9b
	Loop    loopKind  `json:"loop"`
	Clients int       `json:"clients"`
	// Rate is the offered rate of an open loop: instances per second, or
	// operations per second for monitor-mixed.
	Rate float64 `json:"rate,omitempty"`
	// Rejects is how often activity D answers accept=false before it
	// accepts; each rejection adds one five-hop iteration.
	Rejects int `json:"rejects"`
	// Preload is how many instances are stored before measuring, half of
	// them completed and half stopped at a seeded hop.
	Preload int `json:"preload,omitempty"`
	// WarmInstances run to completion on the fresh fleet before measuring.
	WarmInstances int `json:"warm_instances"`
	// StatsEvery is the pause between two Statistics polls of one client
	// (the designer's dashboard); zero where Statistics calls are
	// scheduled operations instead.
	StatsEvery time.Duration `json:"stats_every_ns,omitempty"`
	Headline   []string      `json:"headline"`
}

var workloads = []workloadDef{
	{
		Name:  "basic-cluster",
		Why:   "Replicated-pool write path (poolcluster, relay outbox, portal lock held across a replication RTT) does its work here and nowhere else; TFC and fsync idle.",
		Fleet: fleetCluster, Model: "fig9a", Loop: closedLoop, Clients: 2,
		WarmInstances: 4, StatsEvery: time.Second,
		Headline: []string{"hops_per_s"},
	},
	{
		Name:  "advanced-durable",
		Why:   "TFC notarization, xmlenc to the TFC, the 10-CER two-signer cascade and WAL fsync carry the hop; poolcluster absent. Open loop: participants arrive on a schedule.",
		Fleet: fleetDurable, Model: "fig9b", Loop: openLoop, Clients: 2, Rate: 6,
		WarmInstances: 4, StatsEvery: time.Second,
		Headline: []string{"hop_p50_ms"},
	},
	{
		Name:  "deep-cascade",
		Why:   "D rejects 7 times: 40 CERs, ~200 KB. Storage is nearly free, so xmltree parse/canonicalize, dsig verify and httpapi body handling dominate and grow with depth.",
		Fleet: fleetMemory, Model: "fig9a", Loop: closedLoop, Clients: 1, Rejects: 7,
		WarmInstances: 1, StatsEvery: 500 * time.Millisecond,
		Headline: []string{"hop_p50_ms"},
	},
	{
		Name:  "monitor-mixed",
		Why:   "Same fleet as basic-cluster used differently: 60% reads, 5% full-pool Statistics, 35% hops over a preloaded pool, so a store gain that costs reads or stats shows.",
		Fleet: fleetCluster, Model: "fig9a", Loop: openLoop, Clients: 2, Rate: 40,
		Preload: 96, WarmInstances: 2,
		Headline: []string{"read_p50_ms", "stats_p50_ms"},
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// Operation mix of monitor-mixed, in parts of 20.
const (
	mixReads = 12 // 60 %
	mixStats = 1  // 5 %
	mixHops  = 7  // 35 %
)

// layerDef describes one per-layer metric of the traced run.
type layerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	What   string `json:"what"`
}

// perLayer is the layer ledger: client-boundary spans first, then the
// in-process replay of public functions over the documents the traced run
// captured, then call counts read from the daemons' /v1/metrics, then the
// two remainders.
var perLayer = []layerDef{
	{"span.worklist_ms", "ms", "lower", "client span httpapi.client.worklist, median"},
	{"span.retrieve_ms", "ms", "lower", "client span httpapi.client.retrieve, median"},
	{"span.aea_execute_ms", "ms", "lower", "client span aea.execute, median"},
	{"span.tfc_process_ms", "ms", "lower", "client span httpapi.client.tfc_process, median (0 without a TFC)"},
	{"span.store_ms", "ms", "lower", "client span httpapi.client.store, median"},
	{"span.hop_self_ms", "ms", "lower", "hop span minus the time its child spans cover, median"},
	{"xmltree.parse_ms", "ms", "lower", "xmltree.ParseBytes of a captured document"},
	{"xmltree.canonical_ms", "ms", "lower", "(*Node).Canonical on a fresh Clone()"},
	{"dsig.verify_cold_ms", "ms", "lower", "document.VerifyAllWith, verifier with an empty cache"},
	{"dsig.verify_warm_ms", "ms", "lower", "document.VerifyAllWith, cache already holding the cascade"},
	{"dsig.cache_hit_ratio", "ratio", "higher", "verified-prefix cache hits ÷ signatures over the replayed hops in order"},
	{"dsig.sign_ms", "ms", "lower", "dsig.Sign of one reference"},
	{"xmlenc.encrypt_ms", "ms", "lower", "xmlenc.Encrypt of one field for the workflow's readers"},
	{"xmlenc.decrypt_ms", "ms", "lower", "xmlenc.DecryptVisible over a captured document"},
	{"document.merge_ms", "ms", "lower", "document.Merge of a stored copy and its successor"},
	{"httpapi.auth_ms", "ms", "lower", "httpapi.SignRequest plus Authenticator.Verify"},
	{"portal.store_ms", "ms", "lower", "portal.StoreCtx over an in-memory pool.Table"},
	{"portal.retrieve_ms", "ms", "lower", "portal.RetrieveCtx over an in-memory pool.Table"},
	{"pool.wal_put_ms", "ms", "lower", "pool.Table.PutCtx on a pool.Open store with fsync on"},
	{"pool.wal_write_amp", "ratio", "lower", "WAL bytes written ÷ document bytes put"},
	{"poolcluster.put_ms", "ms", "lower", "poolcluster.Session.PutCtx, three in-process nodes, 2 replicas"},
	{"relay.append_ms", "ms", "lower", "relay.Outbox.Append to a journal file"},
	{"tfc.process_ms", "ms", "lower", "tfc.ProcessCtx of a captured intermediate document (0 without a TFC)"},
	{"monitor.stats_ms", "ms", "lower", "monitor.Statistics over an in-memory table holding the captured documents"},
	{"tfc.calls_per_hop", "count", "lower", "tfc_timestamps_total of the dratfc daemon ÷ hops (0 without a TFC)"},
	{"poolcluster.writes_per_hop", "count", "lower", "poolcluster_writes_total of the portal ÷ hops (0 without a cluster)"},
	{"pool.wal_appends_per_hop", "count", "lower", "pool_wal_appends_total of portal and TFC ÷ hops (0 without -data-dir)"},
	{"tracing_overhead_ms", "ms", "lower", "traced hop_p50_ms minus untraced hop_p50_ms on the same workload"},
	{"unattributed_ms", "ms", "lower", "untraced single-client hop_p50_ms minus the sum of calls-per-hop times median over the blocking-path layers"},
}

// prediction is one row of the table written before anything was measured.
type prediction struct {
	Layers  []string `json:"layers"`
	Moves   string   `json:"moves"`
	Nowhere string   `json:"not_on,omitempty"`
}

var predictions = []prediction{
	{
		Layers:  []string{"xmltree.parse_ms", "xmltree.canonical_ms", "dsig.verify_cold_ms", "dsig.verify_warm_ms", "portal.retrieve_ms"},
		Moves:   "hop_p50_ms on deep-cascade (they grow with depth); read_p50_ms on monitor-mixed",
		Nowhere: "small on basic-cluster",
	},
	{
		Layers: []string{"dsig.sign_ms", "httpapi.auth_ms"},
		Moves:  "a constant floor under hop_p50_ms on every workload (the paper's flat beta and gamma); httpapi.auth_ms is the largest share of read_p50_ms",
	},
	{
		Layers:  []string{"tfc.process_ms", "xmlenc.encrypt_ms", "xmlenc.decrypt_ms", "pool.wal_put_ms"},
		Moves:   "hop_p50_ms and the hop_p95_ms diagnostic on advanced-durable",
		Nowhere: "tfc and pool.wal_put have zero calls on basic-cluster and deep-cascade",
	},
	{
		Layers:  []string{"poolcluster.put_ms", "relay.append_ms"},
		Moves:   "hops_per_s on basic-cluster; two clients serialize behind one portal lock, so the saving under load exceeds the layer's share at one client",
		Nowhere: "zero calls on advanced-durable and deep-cascade",
	},
	{
		Layers:  []string{"monitor.stats_ms"},
		Moves:   "stats_p50_ms, and through CPU contention the hop_p95_ms diagnostic, on monitor-mixed",
		Nowhere: "every other workload polls Statistics once a second per client at most",
	},
}
