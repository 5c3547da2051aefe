#!/usr/bin/env bash
# The repository's offline CI gate: rustfmt check, release build, full
# test suite, warning-free clippy and rustdoc — with --offline, because the
# workspace has zero external dependencies and must keep building on a
# machine that has never contacted a registry.
set -euo pipefail
cd "$(dirname "$0")/.."

# rustfmt-clean workspace, default configuration.
cargo fmt --all --check

cargo build --release --offline --workspace --all-targets
cargo test -q --offline --workspace

# Failpoints live in the fault plan each run carries: no process-global
# registry, no test-side lock. The suites that arm them run once more
# with 8 test threads, so shared state that creeps back shows up as a
# failure under parallelism.
cargo test -q --offline --test fault_injection --test join_cross_validation \
    --test incremental_engine -- --test-threads 8
cargo test -q --offline -p cardir-cardirect --test journal --test persistence -- --test-threads 8
cargo test -q --offline -p cardir-faults --lib -- --test-threads 8

cargo clippy --offline --workspace --all-targets -- -D warnings

# Warning-free rustdoc: a doc link to a renamed or deleted item, or to a
# private one, fails the gate instead of rendering as dead text.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

# Every scratch file of the run, removed by one EXIT trap (which also
# stops the cardird server if a step failed while it was up).
bench_json="$(mktemp /tmp/bench.XXXXXX.json)"
bench_trace="$(mktemp /tmp/trace.XXXXXX.json)"
join_json="$(mktemp /tmp/join.XXXXXX.json)"
kernel_json="$(mktemp /tmp/kernel.XXXXXX.json)"
incr_json="$(mktemp /tmp/incr.XXXXXX.json)"
server_json="$(mktemp /tmp/server.XXXXXX.json)"
server_log="$(mktemp /tmp/cardird.XXXXXX.log)"
server_dir="$(mktemp -d /tmp/cardird-data.XXXXXX)"
nan_json="$(mktemp /tmp/nan.XXXXXX.json)"
unattributed_json="$(mktemp /tmp/unattributed.XXXXXX.json)"
server_pid=""
cleanup() {
    [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
    rm -rf "$bench_json" "$bench_trace" "$join_json" "$kernel_json" "$incr_json" \
        "$server_json" "$server_log" "$server_dir" "$nan_json" "$unattributed_json"
}
trap cleanup EXIT

# Telemetry smoke: the throughput bench must emit machine-readable JSON
# lines that the workspace's own parser accepts, and the robust-predicate
# and fused-pipeline counters must flow through the telemetry registry
# into that emission (geometry.exact_fallback is the series dashboards
# watch; engine_cell.fused_pairs and geometry.edge_flattens are the
# SoA-pipeline accounting the zero-reflatten claim rests on).
cargo run --release --offline -p cardir-bench --bin engine_throughput -- 1000 \
    --json "$bench_json" --trace "$bench_trace" > /dev/null
cargo run --release --offline -p cardir-bench --bin json_check -- "$bench_json" \
    --require geometry.exact_fallback --require geometry.orient2d_calls \
    --require engine_cell.fused_pairs --require geometry.edge_flattens

# Execution-trace smoke: the same run recorded a Chrome trace_event
# timeline; it must survive the workspace's own JSON parser and the
# trace_report analyzer must be able to reconstruct per-thread
# utilization from it.
cargo run --release --offline -p cardir-bench --bin json_check -- "$bench_trace"
cargo run --release --offline -p cardir-bench --bin trace_report -- "$bench_trace" > /dev/null

# Bench-regression gate: the fresh run must stay within a generous 3x of
# the committed baseline, per (mode, threads) series, on the same
# N=1000 map. The cells time the spatial join, whose pairs/sec grows
# with N (box-decided pairs are counted, never enumerated), so the run
# uses the baseline's N rather than a smaller map. Only the threads=1
# cells are gated — multi-thread cells are spawn-overhead noise when the
# CI host has fewer cores than the baseline machine. The threshold
# absorbs machine noise; a real structural regression (an accidental
# O(N^2) on the hot path, a serialization bug) overshoots it.
cargo run --release --offline -p cardir-bench --bin bench_diff -- BENCH_engine.json "$bench_json" \
    --filter threads=1 --threshold 3

# The same gate restricted to the quantitative cells: the fused one-sweep
# kernel is what keeps these within range of the qualitative ones, so a
# regression here means the percentage pipeline fell back to two-pass
# work (or worse) even if the qualitative cells still look fine.
cargo run --release --offline -p cardir-bench --bin bench_diff -- BENCH_engine.json "$bench_json" \
    --filter mode=quantitative --filter threads=1 --threshold 3

# Kernel smoke: the fused kernel's ns/edge per edge count and per number
# of reference grid lines inside the primary's box, with the orient2d
# calls each pair spends on the centre test. Star polygons of 8 to 256
# edges keep the run to a few seconds.
cargo run --release --offline -p cardir-bench --bin kernel_throughput -- 256 \
    --json "$kernel_json" > /dev/null
cargo run --release --offline -p cardir-bench --bin json_check -- "$kernel_json" \
    --require kernel.ns_per_edge --require kernel.orient_calls_per_pair

# Spatial-join smoke: the sweep-partitioned batch path must complete a
# 10k-region map (≈ 10^8 ordered pairs, counted not materialised;
# --compare-max 0 skips the quadratic naive baseline here) and emit
# the join.* partition counters CI dashboards track, plus the part of
# the join's wall time outside its discover and exact-pass phases, which
# must stay within 5 % of the join's wall time: the named phases have to
# account for where the time went.
cargo run --release --offline -p cardir-bench --bin join_throughput -- 10000 \
    --compare-max 0 --json "$join_json" > /dev/null
cargo run --release --offline -p cardir-bench --bin json_check -- "$join_json" \
    --require join.candidates --require join.mask_emitted --require join.exact_pairs \
    --require join.fused_pairs --require join.unattributed_ns \
    --max-ratio join.unattributed_ns/join.elapsed_ns=0.05

# Differential-fuzz smoke: 500 deterministic adversarial scenarios
# cross-checked across the whole stack; any divergence or panic fails the
# gate and prints its replayable seed.
cargo run --offline -p cardir-fuzz -- --iters 500 --seed 1

# Ulp-adversarial smoke: 250 seeds of geometry nudged 1-4 ulps around the
# reference's grid lines, cross-validated against the clipping baseline
# and audited against predicate-level ground truth.
cargo run --offline -p cardir-fuzz -- --family ulp --iters 250 --seed 1

# Spatial-join adversarial smoke: 200 seeds of heavy MBB overlap
# clusters on shared grid lines (with far satellites and 2^±40 scaling),
# cross-checking the sweep partition, the mask-emitted relations, and
# the materialized join against their per-pair oracles.
cargo run --offline -p cardir-fuzz -- --family join --iters 200 --seed 1

# Fault-injection smoke: seeded failpoint arming during differential runs
# (accounting closure, bit-identical survivors, torn-write recovery). The
# engine fault sweep suite already ran twice above, once in the workspace
# tests and once with 8 test threads.
cargo run --offline -p cardir-fuzz -- --faults --iters 120 --seed 1

# Edit-script adversarial smoke: 150 seeds of incremental edit scripts
# (replaces, inserts, removes) on a journaled store, each step
# differentially checked against a fresh full spatial join, with
# drop/reopen replay cycles and a faulted block (compute errors, torn
# journal appends, kills mid-append and mid-compaction) that must leave
# pairs pending — never wrong — and converge after repair.
cargo run --offline -p cardir-fuzz -- --family edits --iters 150 --seed 1

# Incremental-engine gate: the edit bench at N=1000 must emit the
# invalidation, replay and snapshot-cost figures the delta-maintenance
# and O(edit)-publish claims rest on,
# and edit throughput must stay within 3x of the committed baseline.
# edits_per_sec is higher-is-better, so it gates WITHOUT :lower — the
# previous :lower suffix inverted the ratio (base/new), which passed
# regressions and failed improvements.
cargo run --release --offline -p cardir-bench --bin incremental_throughput -- 1000 \
    --json "$incr_json" > /dev/null
cargo run --release --offline -p cardir-bench --bin json_check -- "$incr_json" \
    --require incremental.pairs_invalidated --require incremental.replay \
    --require incremental.speedup_vs_full --require incremental.snapshot_ns \
    --require incremental.replay_decode_ns --require incremental.replay_install_ns
cargo run --release --offline -p cardir-bench --bin bench_diff -- BENCH_incremental.json "$incr_json" \
    --key incremental=regions --metric incremental.edits_per_sec \
    --filter regions=1000 --threshold 3

# Server smoke + gate (DESIGN.md §14): boot the cardird binary on an
# ephemeral port, drive it with loadgen over real TCP connections —
# loadgen exits non-zero on any non-2xx response, so this is a
# zero-error claim — then validate the emission and hold throughput
# within 3x of the committed BENCH_server.json baseline (K=8 matches
# the baseline's key; requests_per_sec is higher-is-better, no :lower).
target/release/cardird --addr 127.0.0.1:0 --data-dir "$server_dir" > "$server_log" &
server_pid=$!
server_addr=""
for _ in $(seq 1 100); do
    server_addr="$(sed -n 's/^listening on //p' "$server_log" | head -n 1)"
    [ -n "$server_addr" ] && break
    sleep 0.1
done
if [ -z "$server_addr" ]; then
    echo "ci: cardird did not report its address" >&2
    exit 1
fi
cargo run --release --offline -p cardir-bench --bin loadgen -- \
    --connections 8 --requests 50 --addr "$server_addr" --json "$server_json" > /dev/null
cargo run --release --offline -p cardir-bench --bin json_check -- "$server_json" \
    --require server.requests --require server.errors \
    --require server.requests_per_sec --require server.latency_p95_ns
cargo run --release --offline -p cardir-bench --bin bench_diff -- BENCH_server.json "$server_json" \
    --key server=connections --metric server.requests_per_sec \
    --filter connections=8 --threshold 3
kill "$server_pid" 2>/dev/null || true
wait "$server_pid" 2>/dev/null || true
server_pid=""

# The non-finite gate must actually gate: a baseline whose over-range
# literal (1e999, which the JSON layer parses to infinity) poisons the
# improvement ratio has to fail bench_diff loudly — refusing to gate —
# not sort as Equal and pass.
printf '{"type":"server","connections":8,"requests_per_sec":1e999}\n' > "$nan_json"
if cargo run --release --offline -p cardir-bench --bin bench_diff -- "$nan_json" "$server_json" \
    --key server=connections --metric server.requests_per_sec --threshold 3 > /dev/null 2>&1; then
    echo "ci: bench_diff accepted a non-finite baseline value" >&2
    exit 1
fi

# The unattributed-time gate must actually gate: a join record whose
# unattributed_ns is 10 % of its elapsed_ns has to fail json_check at
# 5 %, and pass at 20 %, so the failure is the bound's and not the file's.
printf '{"type":"join","regions":10000,"elapsed_ns":1000000,"unattributed_ns":100000}\n' \
    > "$unattributed_json"
cargo run --release --offline -p cardir-bench --bin json_check -- "$unattributed_json" \
    --max-ratio join.unattributed_ns/join.elapsed_ns=0.2 > /dev/null
if cargo run --release --offline -p cardir-bench --bin json_check -- "$unattributed_json" \
    --max-ratio join.unattributed_ns/join.elapsed_ns=0.05 > /dev/null 2>&1; then
    echo "ci: json_check accepted a join record 10 % unattributed" >&2
    exit 1
fi

echo "ci: all green"
