package relay

import "dra4wfms/internal/telemetry"

// Relay observability, recorded into the process-wide registry and thus
// visible at GET /v1/metrics and through `dractl metrics`. Gauges are
// updated by delta so several relays in one process (webhook dispatcher,
// replication coordinator) compose into process totals.
var (
	tel = telemetry.Default()

	// mQueueDepth is the number of deliveries accepted but not yet
	// acknowledged or dead-lettered, across all relays in the process.
	mQueueDepth = tel.Gauge("relay_queue_depth")
	// mDLQSize is the number of dead-lettered deliveries awaiting an
	// operator (requeue or drop).
	mDLQSize = tel.Gauge("relay_dlq_size")
	// mBreakerState is the most recent breaker transition:
	// 0 closed, 1 half-open, 2 open.
	mBreakerState = tel.Gauge("relay_breaker_state")

	mDelivered    = tel.Counter("relay_delivered_total")
	mAttempts     = tel.Counter("relay_attempts_total")
	mRetries      = tel.Counter("relay_retries_total")
	mDeadletters  = tel.Counter("relay_deadletters_total")
	mDedup        = tel.Counter("relay_dedup_total")
	mBreakerOpens = tel.Counter("relay_breaker_open_total")
	// mBudgetDenied counts retries deferred because the destination's
	// retry budget was exhausted (budget.go).
	mBudgetDenied = tel.Counter("relay_budget_denied_total")
)
