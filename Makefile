# Development targets. Every CI job (.github/workflows/ci.yml) runs one
# or more of these targets and nothing else, so each gate command is
# written once, here. `make verify` runs them all: formatting, build,
# vet, the project's own dsmlint analyzers, the test suite with fuzz and
# benchmark smokes, the race-enabled suite, invariant-checked simulator
# and live runs, and the live-runtime soak gates.
#
# Summary tables (dsmlint findings, consensus and serving counters) go
# to $(SUMMARY): the CI job summary there, the terminal here.

GO ?= go
SUMMARY ?= $(or $(GITHUB_STEP_SUMMARY),/dev/stdout)

.PHONY: fmt build vet lint test fuzz bench-smoke sim-footprint race check-smoke live chaos recover failover scale-smoke serve endurance bench-live bench-scale bench-serve bench-node bench-sim loc verify

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

lint:
	@status=0; $(GO) run ./cmd/dsmlint -json ./... > dsmlint.json || status=$$?; \
	count=$$(jq .count dsmlint.json); \
	echo "### dsmlint: $${count} finding(s)" >> $(SUMMARY); \
	if [ "$$count" -gt 0 ]; then \
		jq -r '.findings[] | "- `\(.file):\(.line)` **\(.analyzer)**: \(.message)"' dsmlint.json >> $(SUMMARY); \
	fi; \
	exit $$status

test:
	$(GO) test ./...

# fuzz: each binary format's fuzz target for a few seconds beyond its
# committed corpus — the wire codec, the snapshot files, the consensus
# slot and the manager state.
fuzz:
	$(GO) test -run '^$$' -fuzz=FuzzDecode -fuzztime=20s ./internal/live/wire
	$(GO) test -run '^$$' -fuzz=FuzzDecodeSnapshot -fuzztime=10s ./internal/live/recover
	$(GO) test -run '^$$' -fuzz=FuzzDecodeSlot -fuzztime=10s ./internal/live/consensus
	$(GO) test -run '^$$' -fuzz=FuzzRestoreState -fuzztime=10s ./internal/live/node

# bench-smoke runs every committed microbenchmark once, so none rots.
bench-smoke:
	$(GO) test -run '^$$' -bench=MakeDiff -benchtime=1x ./internal/page/
	$(GO) test -run '^$$' -bench='HotPageApply|NewSystem|CloseInterval' -benchtime=1x ./internal/core/
	$(GO) test -run '^$$' -bench='Interact|Dispatch' -benchtime=1x ./internal/sim/
	$(GO) test -run '^$$' -bench='CaptureCheckpoint|SnapPush' -benchtime=1x -benchmem ./internal/live/node/
	$(GO) test -run '^$$' -bench='Do(Get|Put)' -benchtime=1x -benchmem ./internal/serve/

# sim-footprint: the simulator's Table 3 sweep under a 1 GiB heap limit.
sim-footprint:
	GOMEMLIMIT=1GiB timeout 120 $(GO) run ./cmd/experiments -only t3 -parallel 2

race:
	$(GO) test -race ./...

check-smoke:
	$(GO) run ./cmd/dsmsim -app water -protocol LH -procs 4 -scale test -check
	$(GO) run ./cmd/dsmsim -app tsp -protocol EI -procs 4 -scale test -check

# live: the live DSM runtime's gate — the whole live tree under -race
# (all four apps on 2- and 4-node in-proc clusters, held to the
# invariant checker and checked against a 1-node reference), the
# ordering-sensitive node tests (the in-place request path's and every
# snapshot push and pull fault schedule and a far-behind requester's
# grant among them) repeated x5 and x20
# under -race (the page package in its own command: beside another race
# binary TestDroppedCarrierRetransmits flakes), then a 2-node jacobi and a
# 2-node cholesky (both protocols) over real TCP loopback sockets, a
# 3-node LH cholesky (third-party homes: one grant carries some pages'
# diffs and leaves others to pulls), and cholesky at bench scale on one
# P, which only finishes in time if idle pollers park. Every dsmd -check
# line holds the run to the invariant checker too.
live:
	$(GO) test -race -count=1 -timeout 300s ./internal/live/...
	$(GO) test -race -count=5 -timeout 300s \
		-run 'TestAtomicWord|TestQuickApplyAtomic|TestReadHitThenInvalidation|TestWriteHitRetwinsAfterRelease|TestHomeSpinsOnUnlockedRead|TestLaneWritesSurviveSiblingRelease|TestLaneConcurrentAcquires|TestHitCountsSurviveUnwinding|TestOddAddresses|TestDuplicatedForwardsReserveGrants|TestAccessCountsAreExact|TestKilledIncarnationKeepsItsAccessCounts' \
		./internal/page/ ./internal/live/node/ ./internal/live/
	$(GO) test -race -count=20 -timeout 300s \
		-run 'TestGrantOvertakesFlush|TestDroppedFlushIsRetransmitted|TestOwnFlushHeldDuringRefetch|TestLaneAcquireDuringSiblingPull|TestParkedWaitsUnwind|TestGrantDiffs|TestLIGrantsCarryNoDiffs|TestBackoffParksUntilFrame|TestBackoffNoLostWakeup|TestBackoffNeverParksHolding|TestBackoffUnwindsOnInterrupt|TestOwedAckStaysInItsEpoch|TestLoneFlushAckedAtOnce|TestQueuedLockReqCarriesAck|TestDroppedCarrierRetransmits|TestFramesBeforeHandlerDelivered|TestLaneTwinCommittedView|TestLaneUnalignedWriteStraddlesRegions|TestPartialTwinNotWritable|TestLaneFalseSharingSmallPage|TestLaneRebaseUnderPartialTwin|TestResetClearsMask|TestQueuedRequestNotOvertaken|TestInPlaceChainQueues|TestSetEpochWaitsForTheDispatcher|TestClosedNodeDoesNotUnwindSender|TestInlineRequestsCounted|TestPush|TestPull|TestFarBehindGrantCarriesEveryNotice' \
		./internal/live/node/
	$(GO) test -race -count=20 -timeout 300s -run 'TestQuickMaskedDiffEqualsFullScan|TestMaskedRunSpansAdjacentRegions' ./internal/page/
	$(GO) test -race -count=20 -timeout 600s -run 'TestCheckerArmedOnLiveRun|TestScheduleArmsOnRejoin|TestCholeskyTCPFourNodes' ./internal/live/
	timeout 120 $(GO) run ./cmd/dsmd -app jacobi -nodes 2 -transport tcp -scale test -check -timeout 60s
	timeout 120 $(GO) run ./cmd/dsmd -app cholesky -protocol LH -nodes 2 -transport tcp -scale test -check -timeout 60s
	timeout 120 $(GO) run ./cmd/dsmd -app cholesky -protocol LH -nodes 3 -transport tcp -scale test -check -timeout 60s
	timeout 120 $(GO) run ./cmd/dsmd -app cholesky -protocol LI -nodes 2 -transport tcp -scale test -check -timeout 60s
	GOMAXPROCS=1 timeout 60 $(GO) run ./cmd/dsmd -app cholesky -nodes 2 -transport tcp -scale bench -check

# chaos: the robustness gate — the seeded chaos soaks (all apps under
# injected drops/dups/reorders in-proc; resets over TCP loopback, and a
# row that sends every TCP frame twice, which only the engine's checks
# absorb; the partition fail-fast check) under -race and the invariant
# checker; the TCP transport's framing, reconnect and rejoin tests and
# chaos's reset test x20 under -race; then one seeded dsmd run with
# faults on real sockets, held to the invariant checker and its result
# regions checked against a fault-free 1-node reference.
chaos:
	$(GO) test -race -count=1 -timeout 300s -run 'TestChaosSoak|TestPartitionAbortsFast' ./internal/live/
	$(GO) test -race -count=20 -timeout 300s -run 'TestTCP|TestRejoin|TestResetExercisesReconnect' \
		./internal/live/transport/ ./internal/live/chaos/
	timeout 120 $(GO) run ./cmd/dsmd -app jacobi -nodes 4 -transport tcp -scale test \
		-chaos-seed 42 -drop 0.03 -dup 0.03 -delay-p 0.05 -delay 2ms -reset 0.05 \
		-retry 10ms -check -timeout 60s

# recover: the crash-recovery gate — the seeded kill+restart soaks (all
# four apps × {LI, LH} with a node killed twice mid-run, in-proc and
# over TCP loopback; lost-store and on-disk-store variants; the
# two-node one-voter cluster; the partition-vs-restart discrimination
# check), the incarnation-fencing, voter-majority and non-voter liveness and
# reply-cache-bound tests, the restart-budget degradation check, and the
# worker-panic and partition aborts (the same run loop without a budget),
# all under -race; then the crash table without the race detector, x3 on
# 1, 2 and 4 CPUs (every scheduled kill must restart; the no-budget
# aborts run the same loop); then one seeded dsmd run that kills and
# restarts a node on real sockets with frame faults in the mix, and one
# 2-node run (node 0 the manager's only voter) that kills and restarts
# node 1 from on-disk stores in a fresh temporary directory, result
# regions checked against a fault-free 1-node reference.
recover:
	$(GO) test -race -count=1 -timeout 300s \
		-run 'TestRecovery|TestSupervisedExits|TestPartitionHealSupervised|TestRestartBudgetExhausted|TestIncarnationFencing|TestReplyCacheBounded|TestLivenessCountsVoters|TestNonVoterOutlivesLeaderChange|TestWorkerPanicSurfaces|TestPartitionAbortsFast' \
		./internal/live/...
	$(GO) test -count=3 -cpu 1,2,4 -timeout 900s \
		-run 'TestRecovery|TestFailover|TestRestartBudget|TestKilledIncarnation|TestSupervisedExits|TestEndurance|TestServeChaosSoak|TestServeFailoverSoak|TestWorkerPanicSurfaces|TestPartitionAbortsFast|TestRestartBudgetExhausted' \
		./internal/live/... ./internal/serve/...
	timeout 150 $(GO) run ./cmd/dsmd -app jacobi -nodes 4 -transport tcp -scale test \
		-recover -crash 2:2:5ms -chaos-seed 7 -drop 0.01 -dup 0.02 \
		-retry 10ms -check -timeout 60s -deadline 120s
	dir=$$(mktemp -d) && \
	timeout 150 $(GO) run ./cmd/dsmd -app jacobi -nodes 2 -transport tcp -scale test \
		-recover -crash 1:2:5ms -ckpt-dir "$$dir" -check -timeout 60s -deadline 120s; \
	status=$$?; rm -rf "$$dir"; exit $$status

# failover: the replicated control plane's gate — the one-slot
# consensus package's tests x5 under -race, the coordinator-kill soaks
# (all four apps × {LI, LH} with node 0 — manager, barrier root,
# bootstrap leader — killed mid-run, in-proc and over TCP loopback; the
# mid-checkpoint-confirm kill; the durable serving failover with zero
# acked-write loss) under -race, then one seeded dsmd run that kills
# node 0 on real sockets with frame faults in the mix, result regions
# checked against a fault-free 1-node reference, and its consensus
# counters tabled to $(SUMMARY).
failover:
	$(GO) test -race -count=5 -timeout 600s ./internal/live/consensus
	$(GO) test -race -count=1 -timeout 600s \
		-run 'TestFailover|TestServeFailoverSoak' ./internal/live/... ./internal/serve/
	timeout 150 $(GO) run ./cmd/dsmd -app jacobi -nodes 4 -transport tcp -scale test \
		-recover -crash 0:2:5ms -chaos-seed 7 -drop 0.01 -dup 0.02 \
		-retry 10ms -hb-timeout 2s -check -json \
		-timeout 60s -deadline 120s > failover_ci.json
	@{ \
		echo "### coordinator failover (4 nodes, node 0 killed, this runner)"; echo ""; \
		echo "| terms | elections | commits | redirects | restarts |"; echo "|---|---|---|---|---|"; \
		jq -r '.stats | "| \(.total.consensus_terms) | \(.total.consensus_elections) | \(.total.consensus_commits) | \(.total.leader_redirects) | \(.restarts) |"' failover_ci.json; \
	} >> $(SUMMARY)

# scale-smoke: the decentralized synchronization plane's scaling gate —
# all four apps × {LI, LH} on 8- and 16-node in-proc clusters under
# -race, held to the invariant checker and checked against a 1-node
# reference, plus one 8-node dsmd run over real TCP loopback sockets.
scale-smoke:
	$(GO) test -race -count=1 -timeout 300s -run 'TestAppsAtScale' ./internal/live/
	timeout 120 $(GO) run ./cmd/dsmd -app jacobi -nodes 8 -transport tcp -scale test -check -timeout 60s

# serve: the key-value serving gate — the full serve/loadgen/hist test
# tree (dispatcher, TCP frontend, durable group commit, the chaos soak
# that kills a serving node mid-load) under -race; the inline-op and
# in-place-acquire tests x20 on 1, 2 and 4 CPUs under -race (which path
# an op takes depends on scheduling); one dsmserve run over real TCP
# loopback DSM sockets checked against a 1-node reference; and this
# runner's serving quantiles for two mixes, tabled to $(SUMMARY).
serve:
	$(GO) test -race -count=1 -timeout 300s ./internal/serve/...
	$(GO) test -race -count=20 -cpu 1,2,4 -timeout 600s \
		-run 'TestBorrowedLaneNeverShared|TestExecutorInHandIsNotOvertaken|TestShutdownWaitsForBorrowedLane|TestDoUnblocksOnExecutorFailure|TestShutdownAnswersQueuedOps|TestDoDoesNotAllocate|TestLockInPlace' \
		./internal/serve/ ./internal/live/node/
	timeout 120 $(GO) run ./cmd/dsmserve -nodes 2 -transport tcp -keys 4096 -clients 8 -ops 4000 -check -timeout 60s
	$(GO) run ./cmd/dsmserve -nodes 2 -mix update-uniform -read-frac 0.5 -dist uniform \
		-clients 16 -ops 40000 -keys 16384 -seed 1 -json > bench_serve_ci.json
	$(GO) run ./cmd/dsmserve -nodes 2 -mix read-heavy-zipf -read-frac 0.95 -dist zipfian -theta 0.99 \
		-clients 16 -ops 40000 -keys 16384 -seed 1 -json >> bench_serve_ci.json
	@{ \
		echo "### dsmserve (2 nodes, this runner)"; echo ""; \
		echo "| mix | ops/s | p50 | p99 | p99.9 |"; echo "|---|---|---|---|---|"; \
		jq -r '.load | "| \(.mix.name) | \(.ops_per_sec | floor) | \(.latency.p50_ns)ns | \(.latency.p99_ns)ns | \(.latency.p999_ns)ns |"' bench_serve_ci.json; \
	} >> $(SUMMARY)

# endurance: the long-haul gate — the control-plane soak (all four apps
# × {LI, LH}, the coordinator killed every round, membership growth and
# slot-corruption rounds, durable slots of one state image each,
# byte-identical results vs a 1-node reference)
# and the durable serving soak under repeated coordinator kills, both
# under -race with a CI-sized episode budget (override: make endurance
# ENDURANCE_EPISODES=2000), then one seeded dsmd run over real TCP
# sockets that promotes a replica at runtime and kills the coordinator,
# checked against a fault-free 1-node reference, its control-plane
# counters tabled to $(SUMMARY).
ENDURANCE_EPISODES ?= 400
endurance:
	DSM_ENDURANCE=1 DSM_ENDURANCE_EPISODES=$(ENDURANCE_EPISODES) \
		$(GO) test -race -count=1 -timeout 1200s -run 'TestEndurance' ./internal/live/ ./internal/serve/
	timeout 150 $(GO) run ./cmd/dsmd -app cholesky -nodes 4 -transport tcp -scale test \
		-recover -crash 0:10:5ms -voters 3 -add-replica 3:5ms \
		-retry 10ms -hb-timeout 2s -check -json \
		-timeout 60s -deadline 120s > endurance_ci.json
	@{ \
		echo "### long-haul control plane (4 nodes, coordinator killed, replica promoted, this runner)"; echo ""; \
		echo "| conf changes | quarantines | lane drops |"; echo "|---|---|---|"; \
		jq -r '.stats.total | "| \(.consensus_conf_changes) | \(.consensus_slot_quarantines) | \(.consensus_lane_drops) |"' endurance_ci.json; \
	} >> $(SUMMARY)

# bench-serve runs the serving request path's microbenchmarks, five runs
# each, on a 1-node cluster with one executor: one caller's get and put
# through Server.Do (run inline on the idle executor's lane: a local
# lock re-acquire, one shared access, no hand-off) and eight callers'
# gets, some inline and the rest queued, where batches group. A get
# allocates nothing; a put's allocations are the node's, closing its
# interval; the serve layer's own are pinned at zero by
# TestDoDoesNotAllocate. End-to-end
# serving numbers come from dsmbench's two serve workloads.
bench-serve:
	$(GO) test -run '^$$' -bench 'Do(Get|Put)' -benchmem -count=5 ./internal/serve/

# bench-live regenerates BENCH_live.json: one JSON object per line, one
# line per app × protocol on a 4-node in-proc cluster at bench scale.
bench-live:
	@rm -f BENCH_live.json
	@for app in jacobi tsp water cholesky; do \
		for prot in LH LI; do \
			$(GO) run ./cmd/dsmd -app $$app -protocol $$prot -nodes 4 -scale bench -json >> BENCH_live.json || exit 1; \
		done; \
	done
	@wc -l BENCH_live.json

# bench-scale regenerates BENCH_scale.json: the scaling sweep — every
# app × protocol at 8 and 16 in-proc nodes at bench scale, one JSON
# object per line, for reading message balance and sync-wait trends
# against the 4-node numbers in BENCH_live.json.
bench-scale:
	@rm -f BENCH_scale.json
	@for nodes in 8 16; do \
		for app in jacobi tsp water cholesky; do \
			for prot in LH LI; do \
				$(GO) run ./cmd/dsmd -app $$app -protocol $$prot -nodes $$nodes -scale bench -json >> BENCH_scale.json || exit 1; \
			done; \
		done; \
	done
	@wc -l BENCH_scale.json

# bench-node runs the live node's microbenchmarks, five runs each: a read
# and a write hit on the own worker's lock-free path, the same read
# through a LaneWorker (which keeps the node mutex), the first write of
# an interval (the twin path), a zero-message Lock+Unlock of an owned
# lock (no clock read, no allocation), a release that dirtied one remote-homed
# page, the hand-off of a lock around one written word between two
# nodes, in-process and over loopback TCP, a checkpoint capture of 512
# homed pages with none, half or all rewritten since the last one, and
# the push of a 2 MiB snapshot into the manager's store.
bench-node:
	$(GO) test -run '^$$' -bench 'ReadHit|WriteHit|FirstWrite|LockLocal|UnlockDirtyRemote|HandoffDirty|CaptureCheckpoint|SnapPush' -benchmem -count=5 ./internal/live/node/

# bench-sim runs the simulator's host-cost microbenchmarks, five runs
# each: incorporating the next diff into a page that already carries
# 100 / 1 000 / 10 000 write notices (flat: the dominator check is O(1)
# when diffs arrive in order), the bytes a 64-page cell allocates at
# 1/4/16 processors (page state follows the allocation, not the 64 MiB
# cap), the bytes closing an interval over 1 / 8 / 64 dirty pages
# retains (record, diffs, notices), the baton hand-off per
# interaction (none on one processor, one goroutine switch otherwise),
# and an event's schedule and dispatch, closure or typed (0 allocs).
bench-sim:
	$(GO) test -run '^$$' -bench 'HotPageApply|NewSystem|CloseInterval' -benchmem -count=5 ./internal/core/
	$(GO) test -run '^$$' -bench 'Interact|Dispatch' -benchmem -count=5 ./internal/sim/

# loc prints the Go line counts CHANGES.md's scoreboard quotes: every
# .go file in the tree, non-test and _test.go apart.
loc:
	@find . -path ./.git -prune -o -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l | xargs printf 'non-test Go lines: %s\n'
	@find . -path ./.git -prune -o -name '*_test.go' -exec cat {} + | wc -l | xargs printf 'test Go lines: %s\n'

verify: fmt build vet lint test fuzz bench-smoke sim-footprint check-smoke race live chaos recover failover scale-smoke serve endurance
