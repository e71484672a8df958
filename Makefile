GO ?= go

.PHONY: check fmt vet lint lintdefs build test race bench benchsmoke benchquick benchpairs faults crash smoke clustersmoke chaossmoke fuzzsmoke loc

# check is the CI gate: formatting, static analysis (go vet plus the
# repo's own dralint rules and the workflow-definition lint over every
# shipped definition), build, the benchmark smoke run for the
# verification fast path, the relay reliability gate, the pool
# crash-recovery gate, the daemon lifecycle smokes (single-node,
# clustered failover, and chaos partition), one quick round of the system
# benchmark against real daemons, and the full test suite under the race
# detector.
check: fmt vet lint build lintdefs benchsmoke faults crash smoke clustersmoke chaossmoke benchquick race

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
# benchmark and the root pool benchmark (BenchmarkPoolPutGetScan) once, so
# the fast-path benchmarks (BenchmarkVerifyAll, BenchmarkCanonicalMemo,
# BenchmarkOpenDeepCascade, BenchmarkHopDeepCascade — a whole 7-reject
# instance of participant hops, reporting unwraps/op —,
# BenchmarkStoreDeepCascade — the same instance stored through a portal,
# reporting ms/hop and canonical-memo misses per hop —,
# BenchmarkSignVerifyRequest per request suite, BenchmarkNonceRemember)
# and the pool's put/get/scan/parallel mix cannot rot between
# perf-focused PRs, then regenerates the paper's Table 1 with
# drabench and checks its -json document carries the table1 rows.
benchsmoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./internal/dsig/... ./internal/xmltree/... ./internal/xmlenc/... ./internal/aea/... ./internal/httpapi/... ./internal/portal/...
	$(GO) test -run=NONE -bench=BenchmarkPool -benchtime=1x .
	$(GO) run ./cmd/drabench -experiment table1 -bits 1024 -reps 1 -json | \
		python3 -c 'import json, sys; rows = json.load(sys.stdin)["table1"]; assert len(rows) == 11, rows; print("drabench table1: %d rows" % len(rows))'

# faults is the relay reliability gate: fault injection (20% of
# deliveries dropped/duplicated, 10% un-acked, judged by internal/chaos)
# in process and on webhook deliveries over HTTP, crash recovery from the
# outbox journal (torn tail, flipped byte, mid-file damage, compaction
# that loses its handle), a journaled webhook delivered when the portal
# boots and a callback registration kept across a restart, all under the
# race detector. The race target covers these
# too; the split keeps the gate visible and fast to re-run.
faults:
	$(GO) test -race -count=1 -run 'TestFaultInjection|TestCrashRecovery|TestWebhookOutboxReplaysAtBoot|TestWebhookRegistrationSurvivesRestart|TestOutbox' ./internal/relay/ ./internal/httpapi/ ./internal/wal/

# fuzzsmoke runs the log-format fuzz target, the pool's record-payload
# target, the XML parser's differential target (against encoding/xml),
# the traceparent parser's round-trip target, the request
# authenticator's target (accepts only genuinely signed header tuples),
# the client's Retry-After parser (never a negative wait) and the
# condition language (no panic; evaluation looks up only the variables
# the expression reports) for ten seconds each; plain `go test` already replays their seed corpora on
# every run.
fuzzsmoke:
	$(GO) test -run=NONE -fuzz=FuzzOpen -fuzztime=10s ./internal/wal/
	$(GO) test -run=NONE -fuzz=FuzzDecodeWALRec -fuzztime=10s ./internal/pool/
	$(GO) test -run=NONE -fuzz=FuzzParse -fuzztime=10s ./internal/xmltree/
	$(GO) test -run=NONE -fuzz=FuzzParseTraceparent -fuzztime=10s ./internal/trace/
	$(GO) test -run=NONE -fuzz=FuzzVerifyRequest -fuzztime=10s ./internal/httpapi/
	$(GO) test -run=NONE -fuzz=FuzzParseRetryAfter -fuzztime=10s ./internal/httpapi/
	$(GO) test -run=NONE -fuzz=FuzzExpr -fuzztime=10s ./internal/expr/

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
