#!/bin/sh
# check.sh — the repository's full verification gate:
#   formatting, vet, build everything, the fast test tier, the race
#   detector on the packages with real concurrency (the TCP runtime, the
#   timer handle it stops under its queue's lock, the protocol core under
#   its executors, and the event engine that parallel sweeps instantiate
#   per worker), a single-shot benchmark smoke pass,
#   and a tigerd smoke test of the debug/metrics endpoints.
set -eux
cd "$(dirname "$0")/.."

# gotest is go test for the gates below, and fails when a -run pattern
# matched no test in one of the packages: go test reports such a package
# "ok ... [no tests to run]", so a gate whose tests moved would pass by
# checking nothing.
gotest() {
    status=0
    out=$(go test "$@" 2>&1) || status=$?
    printf '%s\n' "$out"
    [ "$status" -eq 0 ] || return "$status"
    if printf '%s\n' "$out" | grep -q 'no tests to run\|no test files'; then
        echo "check.sh: go test $* ran no test in some package" >&2
        return 1
    fi
}

fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
    echo "gofmt needed on:" >&2
    echo "$fmt" >&2
    exit 1
fi

go vet ./...
go build ./...
go test -short ./...
go test -race ./internal/rt ./internal/clock ./internal/core ./internal/obs ./internal/sim ./internal/netsim ./internal/chaos ./internal/disk ./internal/trace

# Observability gate: the registry collects the stats structs instead of
# mirroring them, so under rt every scrape marshals its snapshot onto the
# node's executor — scraped in a loop against a playing viewer, ten times
# under the race detector — and in the simulator the series must equal
# the structs after a crash and restart. The event sink's subscribers
# (oracle, ring, chaos harness, flight recorder) must stack in any order
# and reach cubs born mid-restripe.
gotest -race -count=10 -run 'TestScrapeWhileServing' ./internal/rt
gotest -race -run 'TestRegistryReadsCubStats|TestSinkFanOut|TestSinkReachesRestripeBornCubs' .

# Chaos gate: the short tier above already runs TestChaosSmoke (a full
# partition-heal-refute cycle); here the full chaos scenarios and the
# random-operations monkey test run under the race detector. The engine
# is one table with a row per step kind (internal/chaos): every
# constructor's kind has a row and an unrowed kind is refused, what each
# constructor does to a System is pinned, and a controller crash that
# needs the restripe copy phase is flagged when it fires in drain.
gotest -race -run 'TestChaos|TestRandomOperationsInvariants' .
gotest -race -run 'TestKindTableCoversEveryConstructor|TestEveryConstructorPinned|TestCtlCrashMidRestripeRequiresCopyPhase' ./internal/chaos

# Gray-failure gate: the fail-slow acceptance sweep (tigerbench's), the
# quarantine interaction tests (rejoin, split-brain) and the chaos smoke,
# the disk fault/hedging unit tier, every edge of the one per-drive state
# table (TestDriveStateTransitions: monitor, FailDisk, Restart), and what
# a cub keeps per drive: the mover's order and data handling, one copy
# per drive across a restart, and snapshots listing drives in disk
# order, all under the race detector.
gotest -race -run 'TestGrayFail' ./cmd/tigerbench
gotest -race -run 'TestQuarantine|TestGrayFailChaosSmoke' .
gotest -race -run 'TestFailSlow|TestStuckDisk|TestProbes|TestCancel|TestDriveStateTransitions' ./internal/core ./internal/disk
gotest -race -run 'TestMover|TestSnapshotListsDrivesInOrder' ./internal/core

# Step-record gate: reporting must be observation-only (a run with the
# ring, chains, and flight recorder subscribed stays byte-identical to
# the bare run, and a traced tigerbench sweep at any -parallel width),
# its subscribers must agree with each other (span histograms, chain
# logs, loss log), and a step must allocate nothing whether or not
# anyone subscribed (AllocsPerRun budgets).
gotest -race -run 'TestCausalChainLifecycle|TestCausalTraceObservationOnly|TestFlightRecorderCapturesMisses|TestSubscribersAgree' .
gotest -race -run 'TestAttrSweepParallelEquivalence' ./cmd/tigerbench
gotest -run 'TestStepOffPathAllocs|TestStepSubscribedAllocs' ./internal/core
gotest -run 'TestChainRecordAllocBudget' ./internal/trace

# Event-diet gate: what a delivered block costs at the paper's rated
# load stays inside its budgets (0.01 heap allocations, 5.8 engine
# events, 1 500 events pending; under 0.001, 5.70 and 1 365 measured).
# The replay loop re-arms a finished stream and its viewer for the next
# play, which takes the next viewer ID with its stats at zero; the
# finished play is counted once, nothing of the new play is judged
# before its first deadline, and a stalled play restarts once. A
# control message in flight in the simulator rides a record its sender
# reuses (0 allocations and one engine event a message, its free list
# capped, the message not kept once delivered), and comes back to the
# sender exactly once, after its delivery, exactly when Returns said it
# would (under the race detector). The cub rewrites no gossip it handed
# to the network until all of it is back: a flush's state array is the
# spare only once its last send is back, and a state received from a
# slow link equals the copy taken when it was sent. What the cub keeps
# between flushes stays within its largest flush: one spare array, the
# longest whose sends are all back, at most half again that flush, and
# batch slices at most twice its messages, with up to maxGossipOut sends
# tracked. The mechanisms that bought the cuts
# stay equal to their plain references —
# the engine's queue (a timing wheel of 1 024 buckets of 2^20 ns, each
# sorted once when opened, in front of a 4-ary heap for the far events)
# against a sorted slice, the sharded engine at any worker count against
# itself serial, buffer and NIC releases applied by reading the clock
# against eager models (ties, mixed paces, a crash and restart), the
# slot-chained view against a map, a drive's walk (one list, three
# cursors, one timer) against a stable sort by due time. Under rt a
# block costs its cub's executor 3 events (read timer, disk completion,
# send timer), arming or stopping a timer on a Node allocates nothing
# (the executor keeps its timers in a queue of its own under one
# wall-clock timer), and SendBlock at most 1 allocation (the BlockData):
# the pace is waited out by the viewer peer's writer, whose one
# due-ordered queue lets paced blocks leave in due order and control
# traffic FIFO, holds at most 4 096 frames, and is written with one
# flush per wake. The writer hands each BlockData back to SendBlock and
# a viewer client decodes into one record, so a block from SendBlock to
# OnBlock allocates nothing (0.1 budget), and a mesh decodes the
# per-block kinds into pooled records it hands its executor in one drain
# per run of frames (0.05 a frame); a record stays the handler's until
# it returns, and a closed viewer client or controller host serves
# nothing more — all under the race detector, beside the pooled
# decoder's differential fuzz seeds.
gotest -run 'TestSteadyBlockPathAllocs|TestChurnBlockPathAllocs|TestSteadyEventsPerBlock|TestSteadyPendingEvents|TestReplayRearmsStream' .
gotest -run 'TestLazyBufferReleaseEqualsEager|TestViewAgainstMap|TestWalkAgainstSortedModel|TestForwardedStatesNotRewritten|TestGenerationWaitsForEveryBatch|TestGossipBuffersBounded' ./internal/core
gotest -run 'TestLazyNICEqualsEager' ./internal/netsim
gotest -race -run 'TestSendAllocs|TestCtlSendRecordReuse|TestReclaimAfterLastDelivery' ./internal/netsim
gotest -run 'TestQueueAgainstSortedModel|TestSortNodes|TestShardedDeterministicAcrossWorkers' ./internal/sim
gotest -run 'TestBlockCostsThreeExecutorEvents|TestMeshBlockCostsThreeExecutorEvents|TestNodeTimerAllocs|TestMeshSendBlockAllocs|TestPacedSendsLeaveInDueOrder|TestPeerQueueBound|TestNoPeerAfterClose' ./internal/rt
gotest -run 'TestWriteFlushCoalesces' ./internal/wire
gotest -race -run 'TestMeshRecvAllocs|TestViewerClientBlockAllocs|TestMeshBlockPathAllocs|TestRecordHeldUntilHandlerReturns|TestViewerClientSilentAfterClose|TestControllerCloseStopsEpochService' ./internal/rt
gotest -race -run 'FuzzDecode' ./internal/msg

# Start/stop record gate: a start, its insertion and its end allocate
# only what goes on the wire (two StartPlay copies and a StartAck), and
# a delivered block at 90 % load with every stream replayed at the end of
# its one-minute file stays inside 0.10 allocations (0.059 measured). A
# tombstone's timer forgets its own key, once, from the map it was armed
# against, also across a reset; each reused record goes back on its
# owner's recycle.List only when its own lifetime ends (a play record at
# its expiry, also when a Restart's scavenge rebuilt its instance), and an
# insertion's lone-message flush gets its state array back. These
# records recycle on the tigerd executor too, so the real-time start,
# stop, failover and restart tests run under the race detector.
gotest -run 'TestStartCycleAllocatesWireRecordsOnly|TestTombstoneExpiresIntoItsMap|TestPlayRecordRecycledByItsOwnExpiry|TestLoneFlushGetsArrayBack' ./internal/core
gotest -race -run 'TestEndToEndStreamOverTCP|TestFailoverOverTCP|TestRestartRejoinOverTCP' ./internal/rt

# No-reuse gate: built with the tag norecycle, no record is reused and
# every record handed back is poisoned (internal/recycle), so a holder
# that reads one after handing it back reads poison where the untagged
# build reads a plausible new occupant. Reuse is invisible when the
# tagged build prints what the untagged one does: churn-fail-14's block
# line at three seeds (its crash and restart recycle the most), the chaos
# and random-operation suites, byte determinism, the replay loop's
# re-armed stream, and the real-time start, stop, failover and restart
# tests under the race detector. The
# allocation and reuse tests stay out of this gate: they measure reuse,
# which the tag turns off. They run untagged above, and none is skipped.
go vet -tags norecycle ./...
gotest -tags norecycle ./internal/recycle
for seed in 1 2 3; do
    plain=$(go run ./bench -workload churn-fail-14 -seed "$seed")
    tagged=$(go run -tags norecycle ./bench -workload churn-fail-14 -seed "$seed")
    plain=$(printf '%s\n' "$plain" | grep '^blocks due')
    tagged=$(printf '%s\n' "$tagged" | grep '^blocks due')
    if [ "$plain" != "$tagged" ]; then
        echo "check.sh: churn-fail-14 seed $seed differs under norecycle:" >&2
        printf '  %s\n  %s\n' "$plain" "$tagged" >&2
        exit 1
    fi
done
gotest -tags norecycle -run 'TestChaos|TestRandomOperationsInvariants|TestDeterministicReplay|TestReplayRearmsStream' .
gotest -race -tags norecycle -run 'TestEndToEndStreamOverTCP|TestFailoverOverTCP|TestRestartRejoinOverTCP' ./internal/rt

# Config gate: core.BuildConfig is the one place a Config is derived
# from a shape. tiger.New and the cluster spec must equal it, the
# protocol timings must scale with the block play (the paper's
# constants at 1 s, tigerd's table at 250 ms, the real-time tests' at
# 100 ms), and a restripe's new generation must keep the failure
# domains.
gotest -run 'TestNewMatchesBuildConfig|TestRestripeKeepsFailureDomains' .
gotest -run 'TestDefaultConfigMatchesBuildConfig' ./internal/spec
gotest -run 'TestDefaultTimingsScaleWithBlockPlay' ./internal/core

# Fencing gate (internal/core/fence.go). The protocol's token schemes
# are one high-water mark, checked from one table with a row per message
# kind: the mark must agree with a plain high-water model on random
# streams of zero, equal, lower and higher tokens, and a kind added
# without a row fails.
# A rejoin installs a current-epoch reply after its closeout while a
# scavenge drops a second reply from one cub (the rounds' one
# asymmetry), and a restart's wipe of a tombstone set spends the timers
# armed before it, so a start re-delivered after a restart stays a
# duplicate for its full minute. FuzzCubDeliver runs with the wire-edge
# fuzz targets below.
gotest -race -run 'TestFenceAgainstModel|TestFenceTableCoversEveryType|TestRoundLateReply|TestTombstoneOutlivesRestart' ./internal/core

# Wire-edge gate. The decoders bound a peer-claimed count by the bytes
# present before allocating for it. Every kind's encoding equals its
# line in internal/msg/testdata/golden.txt — the bytes the codec wrote
# before each layout became one field walk, kept because a round trip
# cannot see a field moved in both directions at once; the file is
# regenerated only by a PR that says "wire format change". Every Type
# has its table row and its sample. Then ten seconds of native fuzzing
# each must find nothing: the msg decoders (no panic, encode/decode
# fixpoint, Size() exact, no aliasing of the input), the wire framer
# (buffer bounded by the bytes presented), the cluster spec (JSON to
# Config never panics; what it accepts validates and has a file to
# serve) and a cub's delivery (any bytes that decode, from any sender,
# never panic a cub serving a stream, and what the fence table refuses
# leaves its view, queues and tombstones as they were). Crashers land in
# testdata/fuzz and are committed with their fix.
gotest -run 'TestDecodeBoundsCountBeforeAllocating|TestWireGolden|TestEveryTypeInTable' ./internal/msg
go test -run '^$' -fuzz=FuzzDecode -fuzztime=10s ./internal/msg
go test -run '^$' -fuzz=FuzzRecv -fuzztime=10s ./internal/wire
go test -run '^$' -fuzz=FuzzSpecConfig -fuzztime=10s ./internal/spec
go test -run '^$' -fuzz=FuzzCubDeliver -fuzztime=10s ./internal/core

# Grayfail bench artifact: the sweep must run end to end with causal
# tracing on and emit BENCH_grayfail.json carrying the slack
# attribution and any flight dumps.
graydir=$(mktemp -d)
go run ./cmd/tigerbench -exp grayfail -grayfactors 3 -grayhold 20s -attr -out "$graydir" >/dev/null
[ -s "$graydir/BENCH_grayfail.json" ]
grep -q '"attribution"' "$graydir/BENCH_grayfail.json"
rm -rf "$graydir"

# Elastic gate: the restripe interplay regressions (crash-rejoin mid-copy,
# split-brain against the lingering retiring cub, quarantine re-route),
# a sharded cluster's refusal to restripe and a controller takeover in
# the cutover pause (nothing re-armed) under the race detector; the one
# planner (a move exactly when a spindle changes, per-spindle bytes,
# the busiest-spindle estimate), and cmd/restripe's 14x4 -> 28x4 report
# pinned at 1 007 960 moves.
gotest -race -run 'TestElasticInterplay|TestStartRestripeRefusesSharded|TestControllerFailoverDuringCutoverPause' .
gotest -race -run 'TestPlanElastic|TestRestripe|TestEstimate' ./internal/layout
gotest -run 'TestGrowToDoubleCountsSpindleMoves' ./cmd/restripe

# Correlated-failure gate: the governor regressions (mass-crash rejoin
# in both restart orders, scattered pair parks nothing, domain kill,
# sharded chaos smoke) under the race detector.
gotest -race -run 'TestMassCrashRejoin|TestGovernor|TestCrashDomain|TestChaosSmokeSharded' .

# Controller-failover gate: the takeover regressions under the race
# detector (crash-controller chaos smoke: zero loss on crash-time
# streams, no double admissions, a scavenge served by every cub; the
# client start-retry backoff; the parked and mid-restripe takeovers;
# byte determinism).
gotest -race -run 'TestControllerFailover' .

# Byte-identity gate (make identical): every arm of the failover,
# elastic, correlated and partition-duration (chaos) sweeps regenerated
# and compared byte for byte with the committed BENCH_*.json — which
# carry the zero columns (lost / double serves / violations / rejoins /
# parked / queued at end), so this subsumes the single-arm zero-column
# checks that stood here.
./scripts/identical.sh

# Warehouse-scale gate: the sharded-vs-serial byte-identical determinism
# compare (2/4/8 shards × 2/4/8 workers, metrics export included) under
# the race detector — this is the coordination code's correctness proof —
# and the sharded cluster's metrics surface, then a short 200-cub
# scalability smoke at rated load with the ns/event and allocs/event
# budgets enforced (1.0 allocs/event: the block path allocates nothing,
# what is left is gossip and cross-shard posts — about 4.1 allocations
# over 5.7 events on six shards, 0.72 measured) and zero loss required
# (the experiment fails itself on any lost block).
gotest -race -run 'TestSharded' .
scdir=$(mktemp -d)
go run ./cmd/tigerbench -exp scalability -scalecubs 200 -scalesettle 5s -scalehold 15s \
    -nsevent-budget 6000 -allocs-budget 1.0 -out "$scdir" >/dev/null
[ -s "$scdir/BENCH_scale.json" ]
rm -rf "$scdir"

# Bench smoke: compile and single-shot every benchmark so the alloc
# regression tests and hot-path benches can't silently rot. The closed
# repository benchmark (bench/, which a PR claiming a gain may not
# touch) must keep compiling against core, netsim, viewer and sim.
go test -bench=. -benchtime=1x -run='^$' ./...
go vet ./bench

# Smoke: boot the single-process demo and check the observability
# surface — /healthz answers, /metrics carries the cub counters (one
# collected counter, one pulled gauge and one series that used to exist
# only in CubStats, all snapshotted on the cubs' executors) and the
# block-lifecycle slack series, pprof is mounted. The control port is
# overridable so the gate doesn't collide with a developer's running
# tigerd; tigerd derives the epoch service at control + 1000 and the
# debug endpoint at control + 2000, so all three must be free.
TIGERD_CHECK_PORT="${TIGERD_CHECK_PORT:-7400}"
TIGERD_DEBUG_PORT=$((TIGERD_CHECK_PORT + 2000))

# port_free: connection refused (curl exit 7) means nothing is
# listening; any other outcome means the port is taken.
port_free() {
    curl -s --max-time 2 -o /dev/null "http://127.0.0.1:$1/" && return 1
    [ $? -eq 7 ]
}
for p in "$TIGERD_CHECK_PORT" $((TIGERD_CHECK_PORT + 1000)) "$TIGERD_DEBUG_PORT"; do
    if ! port_free "$p"; then
        echo "check.sh: port $p is already bound (a running tigerd?);" \
             "set TIGERD_CHECK_PORT to a free control port (epoch = control + 1000, debug = control + 2000)" >&2
        exit 1
    fi
done

go build -o /tmp/tigerd.check ./cmd/tigerd
/tmp/tigerd.check -cubs 4 -listen "127.0.0.1:$TIGERD_CHECK_PORT" &
TIGERD_PID=$!
trap 'kill $TIGERD_PID 2>/dev/null || true' EXIT

ok=""
for i in $(seq 1 50); do
    if curl -fsS "http://127.0.0.1:$TIGERD_DEBUG_PORT/healthz" >/dev/null 2>&1; then
        ok=1
        break
    fi
    sleep 0.2
done
[ -n "$ok" ]

metrics=$(curl -fsS "http://127.0.0.1:$TIGERD_DEBUG_PORT/metrics")
echo "$metrics" | grep '^tiger_cub_inserts_total' >/dev/null
echo "$metrics" | grep '^tiger_cub_view_entries' >/dev/null
echo "$metrics" | grep '^tiger_cub_deschedules_dup_total' >/dev/null
echo "$metrics" | grep '^tiger_block_deadline_slack_seconds_bucket' >/dev/null
curl -fsS "http://127.0.0.1:$TIGERD_DEBUG_PORT/debug/pprof/cmdline" >/dev/null
curl -fsS "http://127.0.0.1:$TIGERD_DEBUG_PORT/debug/vars" | grep '"cub0"' >/dev/null
curl -fsS "http://127.0.0.1:$TIGERD_DEBUG_PORT/debug/trace" | head -1 | grep '"header":true' >/dev/null

kill $TIGERD_PID
trap - EXIT
echo "check.sh: all gates passed"

# Last: the size every CHANGES.md entry states its delta of.
./scripts/loc.sh
