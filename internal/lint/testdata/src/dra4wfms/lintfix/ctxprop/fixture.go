// Package ctxprop seeds trace-context threading violations for the
// ctxprop analyzer's golden test: call chains that derive a span context
// and then hand the stale parent context downstream while the span is
// still open, detaching the downstream spans from the trace subtree.
package ctxprop

import (
	"context"

	"dra4wfms/internal/chaos"
	"dra4wfms/internal/telemetry"
	"dra4wfms/internal/trace"
)

var tel = telemetry.Default()
var col = trace.Default()

func downstream(ctx context.Context) error { return nil }

func work() {}

func watchdog(ctx context.Context) {}

// goodShadowing rebinds the parent name to the derived context: the
// stale parent is unreachable below the start.
func goodShadowing(ctx context.Context) error {
	ctx, span := tel.StartSpan(ctx, "good_seconds")
	defer span.End()
	return downstream(ctx)
}

// goodLeaf discards the derived context but makes no downstream
// context-carrying call — the legitimate leaf-span idiom.
func goodLeaf(ctx context.Context) int {
	_, span := tel.StartSpan(ctx, "leaf_seconds")
	defer span.End()
	work()
	return 42
}

// goodSequentialSiblings starts the second span from the parent only
// after the first has ended: sequential siblings, not a lost level.
func goodSequentialSiblings(ctx context.Context) {
	_, s1 := col.StartSpan(ctx, "first", nil)
	work()
	s1.End()
	_, s2 := col.StartSpan(ctx, "second", nil)
	work()
	s2.End()
}

// goodEndedBeforeReuse ends the span before the parent context travels
// again.
func goodEndedBeforeReuse(ctx context.Context) error {
	_, span := tel.StartSpan(ctx, "early_seconds")
	work()
	span.End()
	return downstream(ctx)
}

// badStaleParent discards the derived context and passes the parent
// downstream with the span open: the downstream spans attach to the
// parent and this span's subtree is empty.
func badStaleParent(ctx context.Context) error {
	_, span := tel.StartSpan(ctx, "stale_seconds")
	defer span.End()
	return downstream(ctx) // want "receives the parent context ctx"
}

// badBranchLeak threads the derived context on one path but the stale
// parent on the other.
func badBranchLeak(ctx context.Context, fast bool) error {
	tctx, span := col.StartRoot(ctx, "portal_op_seconds", nil)
	defer span.End()
	if fast {
		return downstream(ctx) // want "receives the parent context ctx"
	}
	return downstream(tctx)
}

// badNestedStart starts a child span from the parent context while the
// first span is open: the "child" becomes a sibling.
func badNestedStart(ctx context.Context) {
	_, outer := col.StartSpan(ctx, "outer", nil)
	defer outer.End()
	_, inner := col.StartSpan(ctx, "inner", nil) // want "receives the parent context ctx"
	work()
	inner.End()
}

// badChaosHopStaleParent spans a fault-injected hop but hands the
// chaos transport the stale parent context: the injected latency and
// the real delivery attach outside the hop's span, and a drill replay
// cannot line its faults up against the trace. Deadline propagation
// breaks the same way — the hop escapes the span context's budget.
func badChaosHopStaleParent(ctx context.Context, n *chaos.Network) error {
	tctx, span := col.StartSpan(ctx, "chaos_hop", nil)
	defer span.End()
	_ = tctx
	return n.Deliver(ctx, "coord", "n2") // want "receives the parent context ctx"
}

// goodChaosHopThreaded threads the span context through the fault
// model, so injected faults and the deadline budget stay inside the
// hop's subtree.
func goodChaosHopThreaded(ctx context.Context, n *chaos.Network) error {
	tctx, span := col.StartSpan(ctx, "chaos_hop", nil)
	defer span.End()
	return n.Deliver(tctx, "coord", "n2")
}

// fanOutByDesign hands the parent to a goroutine that outlives the span
// on purpose — acknowledged with a reasoned suppression.
func fanOutByDesign(ctx context.Context) {
	_, span := tel.StartSpan(ctx, "fanout_seconds")
	defer span.End()
	//lint:ignore ctxprop fixture demo: the watchdog outlives this span by design
	go watchdog(ctx)
	work()
}
