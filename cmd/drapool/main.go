// drapool runs one node of a clustered DRA4WfMS document pool: it hosts
// a single documents table and serves the cluster-internal replication
// and read endpoints (/v1/cluster/*) a draportal or dratfc coordinator
// drives through -cluster-nodes. See DESIGN.md "Clustered pool".
//
// Usage:
//
//	drapool -listen :9201 -node-id n1 [-data-dir ./pool-n1]
//	        [-fsync=true] [-checkpoint-interval 5m] [-grace 15s]
//
// The node's table declares the union of the families every coordinator
// uses — the portal's documents families (doc, meta, idx) plus the TFC's
// notarization family (rec). Portal rows ("proc-…", "tpl#…") and TFC
// rows ("tfc|…", one per notarization) share the clustered key space
// with disjoint prefixes, so one drapool fleet can back both tiers.
//
// The /v1/cluster/* endpoints are unauthenticated by design (see
// internal/httpapi): deploy drapool on the private cluster network only.
//
// With -data-dir the node's table is crash-safe (WAL + checkpoints, same
// machinery as draportal -data-dir); GET /v1/readyz reports 200 only
// after recovery completes. On SIGINT/SIGTERM the node drains, writes a
// final checkpoint, and exits 0 — rejoin is then just restarting it: the
// coordinator's repair loop replays whatever the node missed.
//
// Flags shared with the other daemons, boot order and shutdown order live
// in internal/daemon (README "Daemon flags"); -h lists every flag.
package main

import (
	"os"

	"dra4wfms/internal/daemon"
)

func main() { os.Exit(daemon.Main(daemon.PoolNode)) }
