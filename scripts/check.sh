#!/bin/sh
# check.sh - the repository's one-command gate: build, vet, race-enabled
# tests, and a short chaos-enabled soak of cmd/cdrc-stress (deterministic
# fault injection with simulated thread crashes; any UAF, double free,
# leak, or unadopted crash state makes the soak exit non-zero).
set -eu
cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

# Biased-count encapsulation lint: under the split count (DESIGN.md §12)
# the shared word alone is NOT the reference count — the owner word may
# hold more units — so only internal/core may read or write it through
# the arena header. internal/arena defines the word and the baseline
# schemes in internal/rcscheme implement their own counting over raw
# headers (they never bias), so those stay exempt.
echo "==> biased-count lint (Hdr().RefCount outside internal/core)"
if grep -rn 'Hdr(.*)\.RefCount' --include='*.go' . \
    | grep -v -e '^\./internal/core/' -e '^\./internal/arena/' -e '^\./internal/rcscheme/'; then
    echo "    FAIL: raw shared-word access outside internal/core (use Thread.RefCount)"
    exit 1
fi

# Value-slab encapsulation lint (DESIGN.md §13): slab bytes are reachable
# only through a byte-array arena pool, and only internal/vals may own
# one — everyone else goes through vals.Pool (TryPut/AppendTo/Free) so
# the Ref word's class/length/handle packing and the slab lifetime rules
# stay in one package.
echo "==> value-slab lint (byte-array arena pools outside internal/vals)"
if grep -rn 'NewPool\[\[[0-9]*\][bB]yte\]' --include='*.go' . \
    | grep -v -e '^\./internal/vals/'; then
    echo "    FAIL: byte-array arena pool outside internal/vals (use vals.Pool)"
    exit 1
fi

echo "==> go test -race ./..."
go test -race ./...

# Targeted race pass over the allocator's block-transfer machinery (the
# lock-free magazine/block-stack paths added by the arena rewrite) plus
# the arena fuzz target's seed corpus. These are already in the ./...
# sweep above; running them again with higher repetition catches
# interleavings the single pass can miss.
echo "==> arena block-transfer race pass (count 3) + fuzz seed corpus"
go test -race -count 3 -run 'BlockStack|Magazine|DrainLocal|CappedPool|LiveHighWater' ./internal/arena
go test -race -run FuzzPoolOps ./internal/arena

# Zero-GC value plane gate (DESIGN.md §13, results/BENCH_values.json):
# the large-value PUT/GET sweep must allocate nothing on the Go heap at
# steady state at every size class including the chunk-chain overflow,
# value churn must put <10% of a Go-heap control's pressure on the
# collector, and the AllocsPerRun pins on the magazine-hit arena paths,
# disabled obs counters, byte-map steady state, and warmed pipelined
# server GETs must all hold. No race detector: the gate measures
# allocations, and the detector allocates.
echo "==> zero-GC value plane gate (alloc pins + GC pressure vs Go-heap control)"
go test -count 1 -run 'LargeValueSweepZeroAlloc|ValueGCPressureVsControl' ./collections
go test -count 1 -run 'AllocFreeMagazineHitZeroAlloc|CounterIncZeroAlloc|AllocsPerRunSteadyState|ByteMapAllocsSteadyState|ServerGetZeroAlloc' \
    ./internal/arena ./internal/obs ./internal/vals ./internal/ds/rcds ./internal/server

# Biased reclamation regression pass (DESIGN.md §12, eject accounting):
# merge retires must be paid by ejects so deferred work and dead values
# stay bounded with no Flush (core shapes and the shared-handle versioned
# map), plus the cell-overwrite release discipline and the cross-thread
# merge hammer. Already in the ./... sweep; repeated here under the race
# detector to keep the regressions named and re-runnable.
echo "==> biased reclamation regression pass (race, count 3)"
go test -race -count 3 -run 'MergeRetireDebtBounded|SharedHandlesReclaimBounded|EagerOverwriteReleaseVsLoadWindow|BiasedCrossThreadHammer' \
    ./internal/core ./collections

echo "==> chaos soak (10s, seed 1, 2 simulated crashes per configuration)"
go run ./cmd/cdrc-stress -duration 10s -chaos -chaos-seed 1 -crash-workers 2

echo "==> obs-enabled chaos soak (5s: metrics armed, accounting identities checked at each teardown)"
go run ./cmd/cdrc-stress -duration 5s -chaos -chaos-seed 1 -crash-workers 2 -obs -obs-interval 2s

# Loopback service soak: cdrc-load runs an in-process internal/server
# (sharded collections.Map behind the TCP protocol) and fails on any
# dropped reply (sends != replies + counted BUSY sheds), value-integrity
# violation, or leak at Close. The chaos pass adds simulated worker
# crashes, exercising abandonment/adoption under live traffic.
echo "==> loopback service soak (5s, race)"
go run -race ./cmd/cdrc-load -duration 5s -conns 4

echo "==> loopback service soak under chaos (5s, race, 1 simulated worker crash budget)"
go run -race ./cmd/cdrc-load -duration 5s -conns 4 -chaos -chaos-seed 1 -crash-workers 1

# Pipelined soaks: same conservation/integrity/leak checks with 16
# requests in flight per connection (the ordered-completion-ring path),
# plain and under simulated worker crashes.
echo "==> pipelined loopback soak (5s, race, depth 16)"
go run -race ./cmd/cdrc-load -duration 5s -conns 4 -pipeline 16 -json-out /tmp/cdrc-check-d16.json

echo "==> pipelined loopback soak under chaos (5s, race, depth 16, 2 simulated worker crashes)"
go run -race ./cmd/cdrc-load -duration 5s -conns 4 -pipeline 16 -chaos -chaos-seed 1 -crash-workers 2

# Server window handoff regression pass (DESIGN.md §7): the reader's
# flush-before-blocking rule (partial line, held-back body), a crash in
# the middle of a batch resuming on the respawned worker, QueueDepth
# counted in requests rather than batches, and the pipelined ordering,
# queue-shed, zero-alloc and split-segment suites the window path runs
# through. Already in the ./... sweep; repeated under the race detector
# to keep the regressions named and re-runnable.
echo "==> server window handoff regression pass (race, count 5)"
go test -race -count 5 -run 'WindowFlush|CrashMidBatch|QueueDepthCounts|PipelinedOrdering|QueueBusy|ServerGetZeroAlloc|SplitSegment' ./internal/server

# Snapshot-read regression pass: the SCAN row-cap fix, pipelined
# slot-reuse fix, MGET/SNAPSCAN point-in-time consistency, lease-pool
# shed accounting, and the crash-releases-lease path, all under the
# race detector (these are in the ./... sweep; the dedicated pass keeps
# the regressions named and re-runnable).
echo "==> snapshot-read regression pass (race: row caps, slot reuse, MGET, leases)"
go test -race -count 1 -run 'ScanRowCap|SlotReuse|MGet|SnapScan|Lease|Versioned' ./internal/server ./collections

# Scan-heavy soak: the snapshot-read mix (SNAPSCAN 512 + 4-key MGET at
# the scan boundary) under race, with the same conservation, integrity,
# lease-drain and leak gates as the plain soaks.
echo "==> scan-heavy loopback soak (3s, race, SNAPSCAN + MGET mix)"
go run -race ./cmd/cdrc-load -duration 3s -conns 4 -keys 1024 -scan-every 100 -scan-heavy

# Cache-mode regression pass (DESIGN.md §11): the weak-ref crash-point
# tests (a simulated death between pop and consume, or right after a
# fresh record's push, must never lose or double a record's weak unit),
# the TTL-aware lincheck histories (expire-vs-get races), the eviction
# clock and backpressure suites, and the server cache verbs — named and
# re-runnable, all under the race detector.
echo "==> cache regression pass (race: weak-ref crashes, TTL lincheck, eviction)"
go test -race -count 1 -run Cache \
    ./internal/cache ./internal/ds/rcds ./internal/server ./collections ./internal/lincheck

# Cache loopback soaks: the Zipf cache-aside scenario against a capped
# arena. Gates: zero -BUSY from arena exhaustion (eviction must absorb
# backpressure), reply conservation, value integrity, the identity
# inserts == evicts + expires + dels + resident at quiescence, a
# hit-ratio floor, and zero leaks at Close. The chaos pass adds seeded
# crashes at the cache's weak-ref points plus worker-op deaths.
echo "==> cache loopback soak (5s, race, capped arena, hit-ratio floor)"
go run -race ./cmd/cdrc-load -cache -duration 5s -conns 4 -arena-cap 512 -min-hit-ratio 0.5

echo "==> cache loopback soak under chaos (5s, race, crashes at weak-ref points)"
go run -race ./cmd/cdrc-load -cache -duration 5s -conns 4 -arena-cap 512 \
    -chaos -chaos-seed 1 -crash-workers 2

# Cluster failover soak: a 3-node loopback cluster (DESIGN.md §9) under
# ClusterClient load while the chaos injector fail-stops one whole node
# (seeded, budgeted). Gates: zero lost acked writes (every key's last
# acked state readable after failover), the replication conservation
# identity repl.enq == repl.ack + repl.lost, a promotion actually
# happened, and Live() == 0 on every node, killed one included.
echo "==> cluster failover soak (3 nodes, 5s, seeded node kill)"
go run ./cmd/cdrc-load -cluster 3 -duration 5s -conns 4 -chaos -chaos-seed 1 -kill-nodes 1

echo "==> cluster failover soak (race, 3s)"
go run -race ./cmd/cdrc-load -cluster 3 -duration 3s -conns 4 -chaos -chaos-seed 2 -kill-nodes 1

# Pipelining throughput gate: depth-16 must beat depth-1 lock-step by a
# comfortable margin (the acceptance bar is 2x; we gate at 1.5x to stay
# robust on loaded CI machines). Uses the race-free binary so the ratio
# reflects the protocol, not the race detector.
echo "==> pipelining throughput gate (depth 16 vs depth 1, no race)"
go run ./cmd/cdrc-load -duration 3s -conns 4 -pipeline 1 -json-out /tmp/cdrc-check-d1.json >/dev/null
go run ./cmd/cdrc-load -duration 3s -conns 4 -pipeline 16 -json-out /tmp/cdrc-check-d16.json >/dev/null
ops_per_sec() {
    awk -F'[:,]' '/"opsPerSec"/ {gsub(/[ "]/, "", $2); print $2}' "$1"
}
d1=$(ops_per_sec /tmp/cdrc-check-d1.json)
d16=$(ops_per_sec /tmp/cdrc-check-d16.json)
echo "    depth-1 ${d1} ops/s, depth-16 ${d16} ops/s"
awk -v d1="$d1" -v d16="$d16" 'BEGIN {
    if (d1 + 0 <= 0 || d16 + 0 <= 0) { print "    gate error: missing ops_per_sec"; exit 1 }
    if (d16 < 1.5 * d1) { printf "    FAIL: depth-16 only %.2fx depth-1, want >= 1.5x\n", d16/d1; exit 1 }
    printf "    OK: depth-16 is %.2fx depth-1\n", d16/d1
}'

# Snapshot-scan writer-latency gate: PUT p99 with periodic SNAPSCAN+MGET
# must stay within 1.3x of the no-scan baseline — snapshot readers pin
# version history but never block writers, so the only writer cost is
# the O(1) version-cell work. Best of 2 per configuration because on a
# small box the p99 tail is scheduler noise; a systematic snapshot cost
# would survive the min. Workers exceed shards so a put is never stuck
# behind a scanning worker by construction.
echo "==> snapshot-scan PUT latency gate (p99 under SNAPSCAN vs no-scan, best of 2)"
put_p99() {
    awk -F'[:,]' '/"put"/ {f=1} f && /"p99"/ {gsub(/[ "]/, "", $2); print $2; exit}' "$1"
}
base=""
snap=""
for i in 1 2; do
    go run ./cmd/cdrc-load -duration 3s -conns 4 -workers 16 -shards 4 -keys 1024 \
        -reads 0.2 -puts 0.7 -scan-every 0 -json-out /tmp/cdrc-check-noscan.json >/dev/null
    b=$(put_p99 /tmp/cdrc-check-noscan.json)
    go run ./cmd/cdrc-load -duration 3s -conns 4 -workers 16 -shards 4 -keys 1024 \
        -reads 0.2 -puts 0.7 -scan-every 1000 -scan-heavy -json-out /tmp/cdrc-check-snap.json >/dev/null
    s=$(put_p99 /tmp/cdrc-check-snap.json)
    base=$(awk -v cur="$base" -v new="$b" 'BEGIN {print (cur == "" || new + 0 < cur + 0) ? new : cur}')
    snap=$(awk -v cur="$snap" -v new="$s" 'BEGIN {print (cur == "" || new + 0 < cur + 0) ? new : cur}')
done
echo "    no-scan put p99 ${base} ns, scan-heavy put p99 ${snap} ns"
awk -v base="$base" -v snap="$snap" 'BEGIN {
    if (base + 0 <= 0 || snap + 0 <= 0) { print "    gate error: missing put p99"; exit 1 }
    if (snap > 1.3 * base) { printf "    FAIL: scan-heavy put p99 %.2fx no-scan, want <= 1.3x\n", snap/base; exit 1 }
    printf "    OK: scan-heavy put p99 %.2fx no-scan\n", snap/base
}'

# Cache backpressure latency gate (DESIGN.md §11): with the arena capped
# far below the key space, every SETEX that hits ErrExhausted evicts
# synchronously and retries — that work must cost at most 1.5x the
# uncapped baseline's SETEX p99 (and the harness itself fails on any
# arena -BUSY). Best of 2 per configuration for scheduler noise; the
# recorded run lives in results/BENCH_cache.json.
echo "==> cache eviction latency gate (SETEX p99 capped vs uncapped, best of 2)"
setex_p99() {
    awk -F'[:,]' '/"setex"/ {f=1} f && /"p99"/ {gsub(/[ "]/, "", $2); print $2; exit}' "$1"
}
base=""
capped=""
for i in 1 2; do
    go run ./cmd/cdrc-load -cache -duration 3s -conns 4 \
        -json-out /tmp/cdrc-check-cache-uncapped.json >/dev/null
    b=$(setex_p99 /tmp/cdrc-check-cache-uncapped.json)
    go run ./cmd/cdrc-load -cache -duration 3s -conns 4 -arena-cap 512 \
        -json-out /tmp/cdrc-check-cache-capped.json >/dev/null
    s=$(setex_p99 /tmp/cdrc-check-cache-capped.json)
    base=$(awk -v cur="$base" -v new="$b" 'BEGIN {print (cur == "" || new + 0 < cur + 0) ? new : cur}')
    capped=$(awk -v cur="$capped" -v new="$s" 'BEGIN {print (cur == "" || new + 0 < cur + 0) ? new : cur}')
done
echo "    uncapped setex p99 ${base} ns, capped setex p99 ${capped} ns"
awk -v base="$base" -v capped="$capped" 'BEGIN {
    if (base + 0 <= 0 || capped + 0 <= 0) { print "    gate error: missing setex p99"; exit 1 }
    if (capped > 1.5 * base) { printf "    FAIL: capped setex p99 %.2fx uncapped, want <= 1.5x\n", capped/base; exit 1 }
    printf "    OK: capped setex p99 %.2fx uncapped\n", capped/base
}'

# Overhead gate: with observability compiled in but disabled, every
# instrumented hot path adds one atomic nil-load. Compare Fig. 6a DRC
# throughput of the normal build (obs present, disarmed) against the
# obsoff build (obs compiled out - the seed baseline), best of 3; fail
# if the instrumented build loses more than 5%.
echo "==> obs overhead gate (Fig6a DRC, disabled-obs vs obsoff baseline, best of 3)"
best_drc_mops() {
    awk '{for (i = 2; i <= NF; i++) if ($i == "DRC_Mops" && $(i-1)+0 > m) m = $(i-1)+0} END {print m}'
}
base=$(go test -tags obsoff -run '^$' -bench '^BenchmarkFig6a$' -benchtime 1x -count 3 . | best_drc_mops)
inst=$(go test -run '^$' -bench '^BenchmarkFig6a$' -benchtime 1x -count 3 . | best_drc_mops)
echo "    baseline (obsoff) ${base} Mops, instrumented (obs disabled) ${inst} Mops"
awk -v inst="$inst" -v base="$base" 'BEGIN {
    if (base + 0 <= 0 || inst + 0 <= 0) { print "    gate error: missing DRC_Mops metric"; exit 1 }
    if (inst < 0.95 * base) { printf "    FAIL: %.1f%% regression exceeds 5%%\n", (1 - inst/base) * 100; exit 1 }
}'

# Arena contention gate: the cross-processor churn benchmark must beat
# the recorded seed allocator (results/BENCH_arena.json: 109.0 ns/op at
# 8 procs, 111.0 ns/op at 1 proc) by >= 1.5x under contention, and the
# single-proc hot path must stay within 10% of the seed. Best of 3 to
# absorb scheduler noise; no race detector so the ratio reflects the
# allocator, not instrumentation.
echo "==> arena contention gate (BenchmarkArenaChurn vs recorded seed, best of 3)"
seed1=111.0
seed8=109.0
best_ns_op() {
    awk -v pat="$1" '$1 ~ pat {for (i = 2; i <= NF; i++) if ($(i+1) == "ns/op" && (b == 0 || $i + 0 < b)) b = $i + 0} END {print b}'
}
churn_out=$(go test -run '^$' -bench BenchmarkArenaChurn -benchtime 500000x -count 3 ./internal/arena)
new1=$(printf '%s\n' "$churn_out" | best_ns_op 'ArenaChurn/procs=1')
new8=$(printf '%s\n' "$churn_out" | best_ns_op 'ArenaChurn/procs=8')
echo "    1-proc ${new1} ns/op (seed ${seed1}), 8-proc ${new8} ns/op (seed ${seed8})"
awk -v new1="$new1" -v new8="$new8" -v seed1="$seed1" -v seed8="$seed8" 'BEGIN {
    if (new1 + 0 <= 0 || new8 + 0 <= 0) { print "    gate error: missing ns/op"; exit 1 }
    if (new8 > seed8 / 1.5) { printf "    FAIL: 8-proc churn only %.2fx seed, want >= 1.5x\n", seed8/new8; exit 1 }
    if (new1 > seed1 * 1.1) { printf "    FAIL: 1-proc churn %.1f%% slower than seed, want within 10%%\n", (new1/seed1 - 1) * 100; exit 1 }
    printf "    OK: 8-proc %.2fx seed, 1-proc %.2fx seed\n", seed8/new8, seed1/new1
}'

# Biased-count gate: single-owner Clone/Release churn must beat the
# recorded pre-bias seed (results/BENCH_biased.json: 66.11 ns/op) by
# >= 1.3x — the owner word turns the two atomic RMWs into plain
# load/stores — while cross-thread churn (every touch on the shared
# word) stays within 10% of its seed (64.89 ns/op). Best of 3.
echo "==> biased count gate (BenchmarkCountChurn vs recorded seed, best of 3)"
seed_owner=66.11
seed_cross=64.89
churn_out=$(go test -run '^$' -bench BenchmarkCountChurn -benchtime 2000000x -count 3 ./internal/core)
new_owner=$(printf '%s\n' "$churn_out" | best_ns_op 'CountChurnOwner')
new_cross=$(printf '%s\n' "$churn_out" | best_ns_op 'CountChurnCross')
echo "    owner ${new_owner} ns/op (seed ${seed_owner}), cross ${new_cross} ns/op (seed ${seed_cross})"
awk -v no="$new_owner" -v nc="$new_cross" -v so="$seed_owner" -v sc="$seed_cross" 'BEGIN {
    if (no + 0 <= 0 || nc + 0 <= 0) { print "    gate error: missing ns/op"; exit 1 }
    if (no > so / 1.3) { printf "    FAIL: owner churn only %.2fx seed, want >= 1.3x\n", so/no; exit 1 }
    if (nc > sc * 1.1) { printf "    FAIL: cross churn %.1f%% slower than seed, want within 10%%\n", (nc/sc - 1) * 100; exit 1 }
    printf "    OK: owner %.2fx seed, cross %.2fx seed\n", so/no, sc/nc
}'

echo "==> all checks passed"
