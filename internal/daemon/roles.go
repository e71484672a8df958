package daemon

import (
	"flag"
	"log"
	"net/http"
	"slices"
	"time"

	"dra4wfms/internal/httpapi"
	"dra4wfms/internal/monitor"
	"dra4wfms/internal/pool"
	"dra4wfms/internal/poolcluster"
	"dra4wfms/internal/portal"
	"dra4wfms/internal/tfc"
)

// maxRelayBacklog is the webhook outbox depth past which /v1/readyz
// reports unready (delivery is falling behind; stop routing new work).
const maxRelayBacklog = 10_000

// Portal is cmd/draportal: a document pool (local or clustered), the
// portal logic and the monitoring endpoints.
var Portal = Role{name: "draportal", listen: ":8080", coordinator: true, wire: wirePortal}

func wirePortal(fs *flag.FlagSet) builder {
	webhookWAL := fs.String("webhook-wal", "", "outbox WAL file for webhook deliveries; pending notifications survive restarts (requires -key)")
	clusterStatus := fs.String("cluster-status", "", "file receiving the region-directory snapshot on every topology change, for offline `dractl cluster status -data-dir` (requires -cluster-nodes)")
	return func(e *env) (http.Handler, error) {
		e.clusterStatus = *clusterStatus
		docs, err := e.openTable(portal.TableName, portal.Families...)
		if err != nil {
			return nil, err
		}
		p := portal.New("portal", e.registry, docs, time.Now)
		srv := httpapi.NewPortalServer(p, monitor.New(docs), httpapi.NewAuthenticator(e.registry, time.Now))
		srv.EnablePprof, srv.Probes, srv.Cluster = e.pprof, e.probes, e.cluster
		var relayPending func() int
		if e.keys != nil {
			webhooks := srv.EnableWebhooksAt(e.keys, *webhookWAL)
			// Registered after the table: the outbox is flushed first, while
			// the pool it may still append relay state to is open.
			e.onClose("webhooks", webhooks.Close)
			e.probes.AddCheck("relay", httpapi.RelaySaturationCheck(webhooks.Relay, maxRelayBacklog))
			relayPending = func() int {
				if r := webhooks.Relay(); r != nil {
					return int(r.Stats().Pending)
				}
				return 0
			}
			log.Printf("webhook notifications enabled, signing as %s, outbox WAL %q", e.keys.Owner, *webhookWAL)
		}
		srv.Admission = e.admission(relayPending)
		log.Printf("portal for %d principals", len(e.registry.Principals()))
		return srv.Handler(), nil
	}
}

// TFC is cmd/dratfc: the advanced model's notary. Given somewhere durable
// to keep it (-data-dir or -cluster-nodes), the forwarding log is
// journaled before each response and restored — replay guard included —
// on boot.
var TFC = Role{name: "dratfc", listen: ":8081", coordinator: true, required: "key", wire: wireTFC}

func wireTFC(*flag.FlagSet) builder {
	return func(e *env) (http.Handler, error) {
		server := tfc.New(e.keys, e.registry, time.Now)
		if e.dataDir != "" || e.clusterNodes != "" {
			tab, err := e.openTable(tfc.JournalTable, tfc.JournalFamily)
			if err != nil {
				return nil, err
			}
			n, err := tfc.Journal(server, tab)
			if err != nil {
				return nil, err
			}
			log.Printf("restored %d forwarding records (replay guard re-armed)", n)
		}
		srv := httpapi.NewTFCServer(server, httpapi.NewAuthenticator(e.registry, time.Now))
		srv.EnablePprof, srv.Probes = e.pprof, e.probes
		// The TFC's work is verify-bound: admission sheds notarizations
		// when the shared verify pool saturates, before the RSA is bought.
		srv.Admission = e.admission(nil)
		log.Printf("TFC %s", e.keys.Owner)
		return srv.Handler(), nil
	}
}

// PoolNode is cmd/drapool: one node of a clustered pool. Its table
// declares the union of the families every coordinator uses — the
// portal's documents families plus the TFC's forwarding-log family — so
// a fleet can back either tier.
var PoolNode = Role{name: "drapool", listen: ":9201", required: "node-id", wire: wirePoolNode}

func wirePoolNode(fs *flag.FlagSet) builder {
	nodeID := fs.String("node-id", "", "cluster-unique node ID (required; must match the coordinator's -cluster-nodes entry)")
	return func(e *env) (http.Handler, error) {
		e.node = *nodeID
		tab, err := e.openTable(portal.TableName, append(slices.Clone(portal.Families), tfc.JournalFamily)...)
		if err != nil {
			return nil, err
		}
		// A pool node has no -cluster-nodes: its table is always the local one.
		srv := httpapi.NewPoolNodeServer(poolcluster.NewNode(*nodeID, tab.(*pool.Table)))
		srv.EnablePprof, srv.Probes = e.pprof, e.probes
		log.Printf("pool node %s", *nodeID)
		return srv.Handler(), nil
	}
}
