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
// With -data-dir the forwarding log — and with it the replay guard — is
// persisted through the crash-safe pool store: every ForwardRecord is
// journaled before the process response is acknowledged, and on boot the
// log is restored so already-notarized intermediates stay rejected across
// restarts. GET /v1/readyz reports 200 only after restore completes; on
// SIGINT/SIGTERM the server drains, writes a final checkpoint, and exits 0.
//
// Flags shared with the other daemons, boot order and shutdown order live
// in internal/daemon (README "Daemon flags"); -h lists every flag.
package main

import (
	"os"

	"dra4wfms/internal/daemon"
)

func main() { os.Exit(daemon.Main(daemon.TFC)) }
