// dratfc runs a DRA4WfMS timestamp-and-flow-control server over HTTP (the
// advanced operational model's notary, Section 2.2 of the paper). It loads
// the deployment trust bundle plus its own private key (see drakeys).
//
// Usage:
//
//	dratfc -listen :8081 -trust deploy/trust.json -key deploy/keys/tfc@cloud.pem
//	       [-data-dir ./tfc-data] [-fsync=true] [-checkpoint-interval 5m]
//	       [-grace 15s]
//	       [-cluster-nodes n1=http://…,n2=http://…] [-replicas 2] [-cluster-wal FILE]
//
// Every notarization is one pool row — the forwarding record, the digest
// of the intermediate CER and the final CER — written before the process
// response. With -data-dir (or -cluster-nodes) the rows outlive the
// process, so a TFC hop is safe to retry across restarts: the same
// intermediate gets the first answer again, a different one for the same
// step is refused as a replay. GET /v1/readyz reports 200 only after the
// pool has recovered; on SIGINT/SIGTERM the server drains, writes a final
// checkpoint, and exits 0.
//
// Flags shared with the other daemons, boot order and shutdown order live
// in internal/daemon (README "Daemon flags"); -h lists every flag.
package main

import (
	"os"

	"dra4wfms/internal/daemon"
)

func main() { os.Exit(daemon.Main(daemon.TFC)) }
