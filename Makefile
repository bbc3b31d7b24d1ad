# Build/test entry points. `make tier1` is the acceptance gate every PR
# must keep green, every allocation ceiling among its tests; `make race`
# runs every package under the race detector (transport pool, CFP
# fan-out, read fetchers, live servers, telemetry scrapes, the live
# scenario slices), where the allocation tests skip; `make cover`
# enforces the per-package coverage floors; `make chaos` replays the
# deterministic fault-injection drills (scripted kill/error/torn-frame
# incidents over real TCP) plus the crash/liveness suites they build on;
# `make daemons-smoke` runs mmd, two rmd, dfsc and a dfsc -replay of a
# generated pattern together on loopback;
# `make bench` runs the benchmark harness; `make docs` keeps
# docs/OPERATIONS.md and the godoc surface in lock-step with the code.

GO ?= go

.PHONY: tier1 build test vet race cover chaos chaos-mm daemons-smoke bench scenarios scenarios-tenant fuzz-smoke fmt-check docs all

all: tier1 vet

tier1: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race -count=1 ./...

# chaos replays the self-healing drills: deterministic fault scripts
# (internal/faults) against live TCP deployments — mid-stream kill with
# lane failover, crash-restart liveness epochs, a scripted kill that
# silences the whole RM process, scripted Open errors, lease-sweeper
# keepalives — plus the older crash/redial suites.
chaos:
	$(GO) test -race -count=1 ./internal/faults/...
	$(GO) test -race -count=1 -run 'Chaos|Crash|Failover|Lease|Liveness|Heartbeat|Torn' ./internal/live/... ./internal/mm/... ./internal/rm/... ./internal/dfsc/... ./internal/wire/...

# chaos-mm drills the replicated metadata plane on its own: kill 1 of N
# live MM shards mid-workload (lease cache + successor failover keep
# opens green), stale-lease expiry racing the takeover handoff, the
# in-process replicated-shard kill/takeover/heal suite, the one
# metadata client answering alike over one MM and a shard group, and the
# liveness table both planes share (its reference model, the sweep that
# counts a silent RM's death in either shape, and a scripted kill whose
# member or RM falls silent as a whole) — race-enabled.
chaos-mm:
	$(GO) test -race -count=1 -run 'ShardChaos|Replicated|Liveness|Unreplicated|MMClient' ./internal/live/ ./internal/mm/

# daemons-smoke runs the three binaries together on loopback: one mmd with
# its monitor and RM liveness, two rmd with heartbeats and leases, then
# `dfsc -n 3`; it waits for mmd's /stats to report both RMs live and checks
# that all three accesses were admitted. It then replays a `workloadgen`
# pattern through `dfsc -replay` (the paper's request scheduler), which
# must exit 0 having sent every generated request, and checks that SIGTERM
# makes each daemon exit 0.
daemons-smoke:
	./scripts/daemons_smoke.sh

# cover writes one profile per gated package plus a merged coverage.out
# for the CI artifact, then enforces the floors via the gate script:
# 60% on the observability packages, 80% on the replicated metadata
# core (internal/mm carries the shard ring, health and handoff logic),
# on the QoS enforcement core (internal/blkio carries the
# work-conserving token tree every data stream throttles through), on
# the tenant quota ledger (internal/tenant is the multi-tenant
# admission arithmetic every RM trusts), on the event scheduler
# (internal/simtime fixes the order every simulated request runs in, so
# every table in EXPERIMENTS.md rests on it), and on the invariant
# checker (internal/invariants is what every DES and live test's verdict
# on the QoS promise rests on).
cover:
	mkdir -p coverage
	$(GO) test -coverprofile=coverage/telemetry.out ./internal/telemetry/
	$(GO) test -coverprofile=coverage/monitor.out ./internal/monitor/
	$(GO) test -coverprofile=coverage/faults.out ./internal/faults/
	$(GO) test -coverprofile=coverage/scenario.out ./internal/scenario/
	$(GO) test -coverprofile=coverage/mm.out ./internal/mm/
	$(GO) test -coverprofile=coverage/blkio.out ./internal/blkio/
	$(GO) test -coverprofile=coverage/tenant.out ./internal/tenant/
	$(GO) test -coverprofile=coverage/simtime.out ./internal/simtime/
	$(GO) test -coverprofile=coverage/invariants.out ./internal/invariants/
	$(GO) test -coverprofile=coverage/all.out -coverpkg=./... ./...
	./scripts/cover_gate.sh 60 coverage/telemetry.out coverage/monitor.out coverage/faults.out coverage/scenario.out
	./scripts/cover_gate.sh 80 coverage/mm.out coverage/blkio.out coverage/tenant.out coverage/simtime.out coverage/invariants.out

# bench runs the benchmark harness (bench/README.md): all seven workloads
# end to end, with their correctness checks. The allocation ceilings are
# tier-1 tests (`make test`), not part of this target.
bench:
	$(GO) run ./bench

# scenarios runs the million-client scenario engine with its SLO gates:
# every builtin scenario through the DES (10⁵–10⁶ simulated clients in
# full mode) plus a live-TCP slice each, reported into BENCH_7.json. Any
# SLO violation fails the target. SCEN_MODE=short runs the reduced CI
# shape; SCEN_SEED pins the master seed.
scenarios:
	./scripts/scenarios.sh BENCH_7.json

# scenarios-tenant runs the multi-tenant noisy-neighbor scenario alone:
# an abusive tenant storming past its per-RM bandwidth quota while the
# victim tenant's SLO gates — fail-rate ceiling, p99 ceiling, and the
# no-abuser-baseline fail-rate delta — prove quota isolation held. The
# abuser's own gate is a refusal floor: if the quota never bit, the run
# fails too. Reported into BENCH_10.json.
scenarios-tenant:
	SCEN_FLAGS="-scenario noisy-neighbor $(SCEN_FLAGS)" ./scripts/scenarios.sh BENCH_10.json

# fuzz-smoke gives each wire codec fuzz target, the event scheduler's
# order-against-a-reference target, the stripe segment geometry's
# layout-against-a-reference target, the virtual disk's two
# against-a-reference targets (synthesized content, and the block store a
# written file lives in), the access pattern's arrival sort (and its
# per-range sort-and-merge) against a stable comparison sort and the
# guided CDF sampler against a whole-table binary search a short
# randomized run on top of its seeded corpus — enough to catch decoder
# panics, round-trip divergence, an event fired out of (time, sequence)
# order, a segment layout that gaps, overlaps or overruns, a synthesized
# byte that moved, a stored byte that reads back other than it was
# written, a request sorted out of its stable arrival order and a
# popularity draw that picks another rank, without CI-hostile runtimes.
# Targets must run one at a time (go test allows a single -fuzz pattern
# per invocation).
FUZZ_TIME ?= 10s
fuzz-smoke:
	$(GO) test ./internal/wire/ -run '^$$' -fuzz '^FuzzRead$$' -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/wire/ -run '^$$' -fuzz '^FuzzBinaryChunkRoundTrip$$' -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/wire/ -run '^$$' -fuzz '^FuzzBinaryCtlRoundTrip$$' -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/simtime/ -run '^$$' -fuzz '^FuzzSchedulerOrder$$' -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/dfsc/ -run '^$$' -fuzz '^FuzzStripeGeometry$$' -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/vdisk/ -run '^$$' -fuzz '^FuzzFillSynthetic$$' -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/vdisk/ -run '^$$' -fuzz '^FuzzStoredBlocks$$' -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/workload/ -run '^$$' -fuzz '^FuzzSortByArrival$$' -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/rng/ -run '^$$' -fuzz '^FuzzCDFIndex$$' -fuzztime $(FUZZ_TIME)

# docs runs the documentation-consistency suite (internal/docscheck):
# every flag the daemons register and every dfsqos_* telemetry series
# the tree can construct must appear in docs/OPERATIONS.md, the
# godoc-surface packages must document every exported symbol (the
# revive-style comment-presence check, implemented on go/ast), and every
# exported name under internal/ must have a non-test caller or an
# allowlisted ROADMAP reason (the type-checked export scan,
# TestEveryExportHasACaller).
docs:
	$(GO) test -count=1 ./internal/docscheck/

fmt-check:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
