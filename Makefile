GO ?= go

.PHONY: check fmt vet lint lintdefs build test race bench benchsmoke benchquick benchpairs faults crash smoke clustersmoke chaossmoke examples fuzzsmoke loc

# check is the CI gate: formatting, static analysis (go vet plus the
# repo's own dralint rules and the workflow-definition lint over every
# shipped definition), build, the benchmark smoke run for the
# verification fast path, the relay reliability gate, the pool
# crash-recovery gate, the daemon lifecycle smokes (single-node,
# clustered failover, and chaos partition), the examples and demo runs,
# one quick round of the system benchmark against real daemons, and the
# full test suite under the race detector.
check: fmt vet lint build lintdefs benchsmoke faults crash smoke clustersmoke chaossmoke examples benchquick race

# examples runs every examples/* main and `dractl demo -workflow
# fig9a|fig9b|fig4 -bits 1024`, and fails on a non-zero exit or on a
# missing completion or signature-count line.
examples:
	./scripts/examples_smoke.sh

# crash is the pool durability gate: kill-mid-write recovery (torn and
# bit-flipped WAL tails), checkpoint fallback, and concurrent
# mutations-during-checkpoint, all under the race detector. The race
# target covers these too; the split keeps the gate visible.
crash:
	$(GO) test -race -count=1 -run 'TestStore|TestSnapshot|TestServeGraceful|TestProbes' ./internal/pool/ ./internal/httpapi/

# smoke boots a real draportal with a durable data dir, waits for
# /v1/readyz, and asserts SIGTERM drains cleanly (exit 0) and writes a
# final checkpoint, then drives a workflow step and asserts the trace
# ring exposes a multi-tier trace at /v1/traces.
smoke:
	./scripts/probe_smoke.sh

# clustersmoke is the failover drill: three drapool nodes behind a
# clustered draportal (race builds), kill -9 the primary of an upcoming
# row's region mid-load, and assert no acknowledged write is lost, readyz
# converges back to ready-or-degraded, and shutdown stays clean.
clustersmoke:
	./scripts/cluster_smoke.sh

# chaossmoke is the partition drill: three drapool nodes in -chaos mode
# behind a clustered draportal with -max-inflight admission (race
# builds), the region leader isolated through its /v1/chaos control
# plane mid-load, and assertions that no acknowledged write is lost and
# the coordinator auto-rejoins the node after heal_node.
chaossmoke:
	./scripts/chaos_smoke.sh

# benchquick keeps the instrument that defends performance wired: the
# system benchmark's own tests, then one quick round of every workload
# against freshly built drapool/draportal/dratfc, which fails on any
# failed operation, unverifiable stored document or unclean daemon exit.
# Comparing two commits is `bash benchmarks/run.sh` on each (see
# benchmarks/system/README.md); this target only proves the loop runs.
benchquick:
	cd benchmarks/system && $(GO) test -short ./...
	bash benchmarks/run.sh -quick

# benchpairs measures a change against a base revision the way a gain has
# to be shown: alternating pairs of one workload, medians, quartiles and
# the win count per metric (scripts/benchpairs.sh). Minutes per pair, so
# not part of check.
#   make benchpairs BASE=HEAD~1 WORKLOAD=monitor-mixed [PAIRS=10]
benchpairs:
	./scripts/benchpairs.sh $(BASE) $(WORKLOAD) $(PAIRS)

# benchsmoke compiles and runs every dsig/xmltree/xmlenc/aea/httpapi/portal
# benchmark and every root benchmark once, so the fast-path benchmarks
# (BenchmarkVerifyAll, BenchmarkCanonicalMemo, BenchmarkOpenDeepCascade,
# BenchmarkHopDeepCascade — a whole 7-reject instance of participant hops,
# reporting unwraps/op, wraps/op and ms/hop —, BenchmarkStoreDeepCascade — the same
# instance stored through a portal, by delta as the client stores and as
# whole documents, each reporting ms/hop and canonical-memo misses per
# hop; both deep-cascade benchmarks run on 2048-bit keys, as the daemons
# do —, BenchmarkSignVerifyRequest per request suite,
# BenchmarkNonceRemember) and the root package's per-layer benchmarks
# (cascade depth, Algorithm 1, element-wise encryption, key wrapping per
# reader, the TFC hop, the pool's put/get/scan/parallel mix) cannot rot
# between perf-focused PRs. It then runs every drabench experiment once and
# checks the -json document: Table 1's 11 rows, Table 2's 21 rows, and the
# engine baseline's superuser tamper missed by the engine and caught by
# DRA4WfMS.
benchsmoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./internal/dsig/... ./internal/xmltree/... ./internal/xmlenc/... ./internal/aea/... ./internal/httpapi/... ./internal/portal/...
	$(GO) test -run=NONE -bench=. -benchtime=1x .
	$(GO) run ./cmd/drabench -experiment all -bits 1024 -reps 1 -json | \
		python3 -c 'import json, sys; d = json.load(sys.stdin); t1, t2, e = d["table1"], d["table2"], d["engine"]; assert len(t1) == 11, t1; assert len(t2) == 21, t2; assert e["EngineTamperCaught"] is False and e["DRATamperCaught"] is True, e; print("drabench: table1 %d rows, table2 %d rows, engine tamper caught by DRA4WfMS only" % (len(t1), len(t2)))'

# faults is the relay reliability gate: fault injection (20% of
# deliveries dropped/duplicated, 10% un-acked, judged by internal/chaos)
# in process, on webhook deliveries over HTTP and on the Fig. 9 document
# hops, whose duplicates are signed afresh so they reach the store
# handlers (the delta route included) and the TFC (Fig. 9B on seeds
# 1–30, a lost TFC response answered from the notarization's row),
# crash recovery from the outbox journal (torn tail, flipped byte,
# mid-file damage, compaction that loses its handle), a journaled
# webhook delivered when the portal boots, a callback registration kept
# across a restart, and the TFC's notarization rows (a resubmission
# answered, a concurrent duplicate notarized once, another intermediate
# refused, a failed write retried, rows kept across a restart and
# legacy rows rekeyed), all under the race detector. The race target
# covers these too; the split keeps the gate visible and fast to re-run.
faults:
	$(GO) test -race -count=1 -run 'TestFaultInjection|TestCrashRecovery|TestWebhookOutboxReplaysAtBoot|TestWebhookRegistrationSurvivesRestart|TestOutbox|TestLostResponseAnsweredFromRow|TestConcurrentIdenticalSubmissions|TestDifferentIntermediateRefused|TestMutateFailureFailsProcess|TestJournal' ./internal/relay/ ./internal/httpapi/ ./internal/wal/ ./internal/tfc/

# fuzzsmoke runs the log-format fuzz target, the pool's record-payload
# target, the XML parser's differential target (against encoding/xml),
# the traceparent parser's round-trip target, the request
# authenticator's target (accepts only genuinely signed header tuples),
# the client's Retry-After parser (never a negative wait), the
# condition language (no panic; evaluation looks up only the variables
# the expression reports) and the portal's delta store (no panic; an
# accepted delta leaves a row that verifies; its inputs are kilobytes of
# XML, so minimizing a new one is capped at 100 runs instead of 60 s) for
# ten seconds each; plain `go test` already replays their seed corpora on
# every run.
fuzzsmoke:
	$(GO) test -run=NONE -fuzz=FuzzOpen -fuzztime=10s ./internal/wal/
	$(GO) test -run=NONE -fuzz=FuzzDecodeWALRec -fuzztime=10s ./internal/pool/
	$(GO) test -run=NONE -fuzz=FuzzParse -fuzztime=10s ./internal/xmltree/
	$(GO) test -run=NONE -fuzz=FuzzParseTraceparent -fuzztime=10s ./internal/trace/
	$(GO) test -run=NONE -fuzz=FuzzVerifyRequest -fuzztime=10s ./internal/httpapi/
	$(GO) test -run=NONE -fuzz=FuzzParseRetryAfter -fuzztime=10s ./internal/httpapi/
	$(GO) test -run=NONE -fuzz=FuzzExpr -fuzztime=10s ./internal/expr/
	$(GO) test -run=NONE -fuzz=FuzzStoreDelta -fuzztime=10s -fuzzminimizetime=100x ./internal/portal/

# loc prints the non-test, non-comment Go line count ROADMAP tracks.
loc:
	@./scripts/loc.sh

# lint runs the project's domain analyzers (discarded crypto errors,
# variable-time digest comparisons, nondeterministic verification inputs,
# leaked telemetry spans, locks held across I/O). See README "Static
# analysis".
lint:
	$(GO) run ./cmd/dralint ./...

# lintdefs runs the workflow-definition lint — control-flow, security
# policy, and the information-flow (concealment) pass — over every
# definition shipped with the examples. Errors fail the gate.
lintdefs:
	$(GO) run ./cmd/dractl lint fig9a fig9b fig4 leave-request expense-approval

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...
