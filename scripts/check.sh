#!/bin/sh
# check.sh — the repository's full verification gate:
#   formatting, vet, build everything, the fast test tier, the race
#   detector on the packages with real concurrency (the TCP runtime, the
#   protocol core under its executors, and the event engine that parallel
#   sweeps instantiate per worker), a single-shot benchmark smoke pass,
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
go test -race ./internal/rt ./internal/core ./internal/obs ./internal/sim ./internal/netsim ./internal/chaos ./internal/disk ./internal/trace

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
# random-operations monkey test run under the race detector.
gotest -race -run 'TestChaos|TestRandomOperationsInvariants' .

# Gray-failure gate: the fail-slow acceptance sweep (tigerbench's), the
# quarantine interaction tests (rejoin, split-brain) and the chaos smoke,
# and the disk fault/hedging unit tier, all under the race detector.
gotest -race -run 'TestGrayFail' ./cmd/tigerbench
gotest -race -run 'TestQuarantine|TestGrayFailChaosSmoke' .
gotest -race -run 'TestFailSlow|TestStuckDisk|TestProbes|TestCancel' ./internal/core ./internal/disk

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
# load stays inside its budgets (3 heap allocations, 5.8 engine events,
# 1 500 events pending; 2.40, 5.70 and 1 365 measured), and the
# mechanisms that bought the cuts stay equal to their plain references —
# buffer and NIC releases applied by reading the clock against eager
# models (ties, mixed paces, a crash and restart), the slot-chained view
# against a map, a drive's walk (one list, three cursors, one timer)
# against a stable sort by due time. Under rt a block costs its cub's
# executor 3 events (read timer, disk completion, send timer) and
# SendBlock at most 1 allocation (the BlockData): the pace is waited out
# by the viewer peer's writer, whose one due-ordered queue lets paced
# blocks leave in due order and control traffic FIFO, holds at most 4 096
# frames, and is written with one flush per wake.
gotest -run 'TestSteadyBlockPathAllocs|TestSteadyEventsPerBlock|TestSteadyPendingEvents' .
gotest -run 'TestLazyBufferReleaseEqualsEager|TestViewAgainstMap|TestWalkAgainstSortedModel' ./internal/core
gotest -run 'TestLazyNICEqualsEager' ./internal/netsim
gotest -run 'TestBlockCostsThreeExecutorEvents|TestMeshBlockCostsThreeExecutorEvents|TestMeshSendBlockAllocs|TestPacedSendsLeaveInDueOrder|TestPeerQueueBound|TestNoPeerAfterClose' ./internal/rt
gotest -run 'TestWriteFlushCoalesces' ./internal/wire

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
# split-brain against the lingering retiring cub, quarantine re-route)
# under the race detector.
gotest -race -run 'TestElasticInterplay' .

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
# elastic and correlated sweeps regenerated and compared byte for byte
# with the committed BENCH_*.json — which carry the zero columns (lost /
# double serves / violations / parked / queued at end), so this subsumes
# the single-arm zero-column checks that stood here.
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
