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
//
// Flags shared with the other daemons, boot order and shutdown order live
// in internal/daemon (README "Daemon flags"); -h lists every flag.
package main

import (
	"os"

	"dra4wfms/internal/daemon"
)

func main() { os.Exit(daemon.Main(daemon.Portal)) }
