#!/usr/bin/env bash
# CI gate for the dnacomp workspace.
#
# Runs the tier-1 verification (release build, full test suite, clippy
# with warnings denied) and then the service stress test under an
# explicit wall-clock timeout, so a queue/worker deadlock fails the
# pipeline instead of hanging it.
#
# Usage: scripts/ci.sh [--quick]
#   --quick   skip the release build (debug test run + clippy only)

set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
for arg in "$@"; do
    case "$arg" in
        --quick) QUICK=1 ;;
        *) echo "unknown option: $arg" >&2; exit 2 ;;
    esac
done

step() { printf '\n==> %s\n' "$*"; }

# Fail unless every row of the routed report $1 has misplaced_jobs 0:
# each shard compressed exactly the writes whose content key the ring
# gives it as owner.
check_placement() {
    local rows
    rows=$(grep -o '"misplaced_jobs":[0-9]*' "$1" | cut -d: -f2 | tr '\n' ' ' || true)
    echo "misplaced jobs per row: ${rows}"
    [ -n "$rows" ] && [ -z "$(printf '%s' "$rows" | tr -d '0 ')" ] || {
        echo "a shard compressed writes the ring does not give it (misplaced: ${rows:-missing})" >&2
        exit 1
    }
}

if [ "$QUICK" -eq 0 ]; then
    step "tier-1: cargo build --release"
    cargo build --release
fi

step "tier-1: cargo test -q"
cargo test -q

step "tier-1: cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

# The stress test already ran inside `cargo test`, but there it shares a
# process with every other integration test; re-run it isolated and
# under a hard timeout so a deadlock regression is caught as a failure,
# not as a wedged CI job. 600 s is ~20x its observed runtime.
step "service stress test (isolated, 600 s timeout)"
timeout 600 cargo test --release --test service \
    stress_8_workers_500_jobs_faults_deterministic_no_losses -- --nocapture

# Same rationale for the store's crash-recovery sweeps: they kill the
# store at every byte of a workload (the second with aggressive L0
# sealing plus a forced compaction, so budgets land inside run builds,
# Seal/Merge commit points and the checkpoint rewrite), so a recovery
# regression that loops or hangs must fail the pipeline, not wedge it.
# The hint queue and the dead-letter directory get the same sweep: a
# hint's manifest tail and every file a letter save writes are cut at
# every byte. 300 s is ~30x their combined observed runtime.
step "store crash-recovery sweeps (isolated, 300 s timeout)"
timeout 300 cargo test --release --test store -- --nocapture \
    crash_sweep_recovers_exactly_the_committed_prefix \
    crash_sweep_survives_mid_seal_and_mid_compaction_kills \
    a_torn_hint_keeps_the_committed_hints_and_the_queue_opens \
    a_torn_dead_letter_save_never_hides_the_committed_letters

# Supervision soak: 8 workers × 510 jobs at 8 % deterministic panic
# injection, exact outcome accounting. A containment or respawn
# regression that deadlocks the pool must fail fast, not wedge CI.
# 300 s is ~100x its observed runtime.
step "panic-injection soak (isolated, 300 s timeout)"
timeout 300 cargo test --release --test supervision \
    panic_soak_every_ticket_resolves_and_panics_are_accounted -- --nocapture

# Codec fuzz: random payloads, mutated real blobs and lying headers
# through every decoder (including the frame container). A
# reintroduced unbounded preallocation or decode loop shows up as a
# timeout/OOM here. 600 s is ~20x its observed debug-profile runtime
# (release is much faster).
step "codec fuzz suite (isolated, 600 s timeout)"
timeout 600 cargo test --release --test fuzz_codecs -- --nocapture

# Speed-tier differential suite under forced-scalar dispatch: tier-1's
# `cargo test` already ran these differentials on this host's best SIMD
# tier; this pass sets DNACOMP_FORCE_SCALAR=1 so the portable fallback
# kernels are proven byte-identical to the bytewise oracles too — they
# are what a non-x86 or feature-poor host would execute. The v1-blob
# compat fixtures ride along in the same suite. 300 s is ~40x its
# observed runtime.
step "speed-tier differentials, forced scalar (isolated, 300 s timeout)"
DNACOMP_FORCE_SCALAR=1 timeout 300 cargo test --release --test speed_tier -- --nocapture

# Loopback chaos soak: concurrent clients at 0/5/25 % injected network
# faults plus malformed-frame fuzzing against the TCP front-end, and the
# front-door contract (cap, idle close, shutdown drain) against both
# doors, the shard and the router. Every operation is deadline-bounded
# by design, and accept blocks until shutdown wakes it, so a hang
# regression (a connection that outlives its budgets, a shutdown that
# never drains or never wakes its accept) must fail the pipeline, not
# wedge it. 300 s is ~100x its observed runtime.
step "loopback chaos soak (isolated, 300 s timeout)"
timeout 300 cargo test --release -p dnacomp-server --test net -- --nocapture \
    chaos_soak_survives_fault_injected_clients \
    malformed_frames_get_typed_replies_then_the_axe \
    shutdown_drains_connections_and_stops_accepting \
    connection_cap_refuses_with_typed_server_busy \
    idle_timeout_closes_cleanly_without_a_kill

# Router chaos soak: a 3-shard cluster behind the consistent-hash
# router, fault-injected clients, one shard killed and restarted
# mid-run. Proves the failure discipline end-to-end: exactly one typed
# reply per request, no acknowledged Put lost, strike-based ejection
# and re-admission both observed. Every op is deadline-bounded, so a
# wedged forward path must fail here, not hang CI. 300 s is ~100x its
# observed runtime.
step "router chaos soak (isolated, 300 s timeout)"
timeout 300 cargo test --release -p dnacomp-server --test route -- --nocapture \
    chaos_soak_with_shard_kill_loses_no_acked_puts \
    gets_via_router_are_byte_identical_to_direct_shard_gets

# Replicated chaos soak: 3 shards at R=3/W=2, one shard killed mid-run
# and LEFT DOWN. Proves the replication guarantees end-to-end: every
# quorum-acked Put stays readable byte-identical with the shard still
# down, quorum acks never lie (quorum_failures == 0), and after the
# shard revives, hinted handoff plus the anti-entropy digest sweep
# converge it back to zero drift with exact counter accounting
# (hints drained == queued, dropped == 0, second repair finds nothing).
# 300 s is ~50x its observed runtime.
step "replicated chaos soak (isolated, 300 s timeout)"
timeout 300 cargo test --release -p dnacomp-server --test route -- --nocapture \
    quorum_acked_puts_survive_one_shard_down_and_self_heal \
    read_repair_restores_a_divergent_replica \
    rebalance_resumes_from_a_persisted_cursor_with_exact_accounting

# Wire-path throughput gate: the same synthetic workload as
# bench-serve, but every job crosses real loopback TCP. The bench
# itself fails on any accounting hole (completed + refused != jobs);
# the report is re-checked here for zero protocol errors. It is written
# to /tmp, so the checked-in BENCH_net.json stays as it is. 300 s
# bounds a wedged server. Skipped under --quick (needs the release
# binary).
if [ "$QUICK" -eq 0 ]; then
    step "wire throughput gate: dnacomp bench-serve --listen (300 s timeout)"
    timeout 300 cargo run --release --quiet --bin dnacomp -- bench-serve \
        --listen 127.0.0.1:0 --clients 4 --workers 4 --files 12 --contexts 4 \
        --repeats 1 --out /tmp/BENCH_net_ci.json
    perrs=$(grep -o '"protocol_errors":[0-9]*' /tmp/BENCH_net_ci.json | cut -d: -f2)
    echo "wire protocol errors: ${perrs}"
    [ "$perrs" = "0" ] || {
        echo "wire bench recorded ${perrs:-no} protocol error(s)" >&2
        exit 1
    }
fi

# Routed-cluster gate: the bench-serve workload pushed through the
# router at 1 and 3 shards, with clients held above one shard's
# back-end connection budget. Two checks that hold on any host: every
# row places each write on its ring owner (misplaced_jobs 0), and a
# request through the router costs at most twice one sent straight to
# the shard (hop_ratio >= 0.5, the median of 5 paired 1-client
# replays). The 3-vs-1 speedup is printed, not gated: with shards that
# reply as soon as their job is done it moves with the host's CPU
# count and load. Exact accounting is asserted inside the bench
# itself. Skipped under --quick (needs the release binary).
if [ "$QUICK" -eq 0 ]; then
    step "routed gate: dnacomp bench-serve --route (300 s timeout)"
    timeout 300 cargo run --release --quiet --bin dnacomp -- bench-serve \
        --route --out /tmp/BENCH_route_ci.json
    speedup=$(grep -o '"speedup_3_vs_1":[0-9.]*' /tmp/BENCH_route_ci.json \
        | cut -d: -f2)
    echo "routed speedup 3 vs 1: ${speedup}x (reported, not gated)"
    check_placement /tmp/BENCH_route_ci.json
    hop=$(grep -o '"hop_ratio":[0-9.eE+-]*' /tmp/BENCH_route_ci.json | cut -d: -f2 || true)
    echo "router hop ratio (routed / direct jobs/s): ${hop}"
    awk -v h="$hop" 'BEGIN { exit (h != "" && h >= 0.5) ? 0 : 1 }' || {
        echo "router hop ratio ${hop:-missing} below the 0.5 floor" >&2
        exit 1
    }
fi

# Replicated throughput gate: the same routed workload at 3 shards
# with R=3/W=2. Re-checked from the artifact: every completed write
# must have committed on at least the 2-of-3 quorum — amplification
# >= 2.0 with zero quorum failures — proving replication fan-out is
# real, not bookkeeping; and the shards must have compressed each
# write once (shard_jobs == completed), on its ring owner
# (misplaced_jobs 0), the other replicas taking the owner's container.
# Skipped under --quick (needs the release binary).
if [ "$QUICK" -eq 0 ]; then
    step "replicated throughput gate: bench-serve --route --replicas 3 (300 s timeout)"
    timeout 300 cargo run --release --quiet --bin dnacomp -- bench-serve \
        --route --shards 3 --replicas 3 --write-quorum 2 \
        --out /tmp/BENCH_route_repl.json
    wamp=$(grep -o '"write_amplification":[0-9.]*' /tmp/BENCH_route_repl.json \
        | cut -d: -f2)
    qfail=$(grep -o '"quorum_failures":[0-9]*' /tmp/BENCH_route_repl.json \
        | cut -d: -f2)
    echo "replicated write amplification: ${wamp} (quorum failures: ${qfail})"
    awk -v w="$wamp" 'BEGIN { exit (w >= 2.0) ? 0 : 1 }' || {
        echo "write amplification ${wamp} below the 2.0 quorum floor" >&2
        exit 1
    }
    [ "$qfail" = "0" ] || {
        echo "replicated bench recorded ${qfail} quorum failure(s)" >&2
        exit 1
    }
    rcompleted=$(grep -o '"completed":[0-9]*' /tmp/BENCH_route_repl.json | cut -d: -f2)
    sjobs=$(grep -o '"shard_jobs":[0-9]*' /tmp/BENCH_route_repl.json | cut -d: -f2)
    echo "replicated shard jobs: ${sjobs} for ${rcompleted} completed writes"
    [ -n "$rcompleted" ] && [ "$sjobs" = "$rcompleted" ] || {
        echo "shard_jobs ${sjobs:-missing} differs from completed ${rcompleted}: writes compressed more than once" >&2
        exit 1
    }
    check_placement /tmp/BENCH_route_repl.json
fi

# Store-backed framed replay: bench-serve with a store attached and a
# block size its corpus exceeds. Re-checked from the artifact: every
# completed job was persisted (store_puts == completed) and the corpus
# produced framed jobs (block_parallel_jobs > 0), so the framed
# containers the block-parallel path builds are what the store took.
# The store gauges must be read from that store (store_bytes_on_disk
# and store_wal_appends > 0): a service whose metrics are not wired to
# its store reports 0. Exact accounting, no timing gate. Skipped under --quick (needs the
# release binary). 300 s bounds a wedged replay.
if [ "$QUICK" -eq 0 ]; then
    step "store-backed bench-serve accounting: bench-serve --store --block-size (300 s timeout)"
    serve_store=$(mktemp -d)
    timeout 300 cargo run --release --quiet --bin dnacomp -- bench-serve \
        --workers 2 --files 12 --contexts 4 --repeats 1 --block-size 16384 \
        --store "$serve_store/store" --out /tmp/BENCH_serve_store_ci.json
    rm -rf "$serve_store"
    completed=$(grep -o '"completed":[0-9]*' /tmp/BENCH_serve_store_ci.json \
        | head -1 | cut -d: -f2)
    puts=$(grep -o '"store_puts":[0-9]*' /tmp/BENCH_serve_store_ci.json | cut -d: -f2)
    framed=$(grep -o '"block_parallel_jobs":[0-9]*' /tmp/BENCH_serve_store_ci.json \
        | cut -d: -f2)
    echo "store row: ${completed} completed, ${puts} store puts, ${framed} framed jobs"
    [ -n "$completed" ] && [ "$puts" = "$completed" ] || {
        echo "store_puts ${puts} differs from completed ${completed}" >&2
        exit 1
    }
    [ "${framed:-0}" -gt 0 ] || {
        echo "the store row framed no job" >&2
        exit 1
    }
    disk=$(grep -o '"store_bytes_on_disk":[0-9]*' /tmp/BENCH_serve_store_ci.json \
        | cut -d: -f2)
    wal=$(grep -o '"store_wal_appends":[0-9]*' /tmp/BENCH_serve_store_ci.json \
        | cut -d: -f2)
    echo "store gauges: ${disk} bytes on disk, ${wal} WAL appends"
    [ "${disk:-0}" -gt 0 ] && [ "${wal:-0}" -gt 0 ] || {
        echo "store gauges not read from the store: ${disk:-0} bytes, ${wal:-0} appends" >&2
        exit 1
    }
fi

# Perf smoke gate: `bench-algos --quick` compresses a small corpus with
# every algorithm serially AND block-parallel, asserting round-trips,
# parallel/serial frame-byte equality, a build-profile-scaled
# kernel-throughput floor, the rANS-vs-arithmetic speed-tier floor
# (release >= 1.5x, debug >= 0.8x on the same CTW pipeline), and — in
# release on SIMD-capable hosts — that the dispatched pack/unpack and
# match-extension kernels beat the portable baselines they replace.
# The report records `cpu_features` so a scalar-fallback run is never
# mistaken for a vectorised one. Under --quick the debug binary runs
# (floors scale down accordingly); the full gate uses the release
# binary already built by tier-1. 120 s is ~100x its observed runtime.
step "perf smoke gate: dnacomp bench-algos --quick (120 s timeout)"
if [ "$QUICK" -eq 0 ]; then
    timeout 120 cargo run --release --quiet --bin dnacomp -- bench-algos --quick
else
    timeout 120 cargo run --quiet --bin dnacomp -- bench-algos --quick
fi

# Storage-engine gate: `bench-store --quick` builds real stores and
# asserts the LSM engine's deterministic claims — manifest cost per
# object shrinks with store size after compaction (sub-linear opens),
# a hot sweep hits the block cache, and group commit covers many
# appends with few fsync batches. Wall-clock throughputs are reported
# but not gated (CI boxes are poor stopwatches). The extra gate below
# re-checks the sub-linearity ratio from the artifact, mirroring the
# routed gate. 300 s is ~100x its observed runtime.
step "storage engine gate: dnacomp bench-store --quick (300 s timeout)"
if [ "$QUICK" -eq 0 ]; then
    timeout 300 cargo run --release --quiet --bin dnacomp -- bench-store \
        --quick --out /tmp/BENCH_store_ci.json
else
    timeout 300 cargo run --quiet --bin dnacomp -- bench-store \
        --quick --out /tmp/BENCH_store_ci.json
fi
ratio=$(grep -o '"open_cost_ratio":[0-9.]*' /tmp/BENCH_store_ci.json \
    | cut -d: -f2)
echo "store open cost ratio (large vs small): ${ratio}"
awk -v r="$ratio" 'BEGIN { exit (r < 0.9) ? 0 : 1 }' || {
    echo "store open cost ratio ${ratio} not under the 0.9 ceiling" >&2
    exit 1
}

step "all gates passed"
