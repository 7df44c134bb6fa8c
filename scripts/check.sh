#!/usr/bin/env bash
# Repository gate: formatting, the tier-1 build and tests, lints, the
# rustdoc link check, the benchmark package's tests, then bounded
# multi-process smokes. Run from the repo root: ./scripts/check.sh
#
# Every dependency is a path dependency (the four external crate names
# resolve to the stand-ins under benchmark/shims), so every stage runs
# without a registry. No stage writes a tracked file: results go to stdout
# or to temp files.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== tier-1: cargo build --release && cargo test =="
# `cargo test` covers every crate (default-members): unit tests, the seeded
# property suites, the bitwise suites (PS / collective data paths, WFBP
# drain, conv / GEMM / codec oracles, the simulator fingerprint), the
# transport contract on both fabrics (co-resident TCP frames: the sender's
# own bytes, per-pair order mixed with cross-node frames, the in-process
# ledger and tx frame counters, sever as a no-op; plus the registry hygiene
# and hostile-HELLO unit tests in transport/tcp.rs — stalled, garbage and
# flooding peers), the one-thread-per-endpoint budget (poller_threads) and
# the crates/bench process suites (tcp_loopback, trace_roundtrip,
# tcp_sever_reconnect, metrics_scrape, elastic_serving).
cargo build --release
cargo test -q

echo "== connect and accept paths, five runs in a row =="
# One poller per endpoint accepts, reads every HELLO and serves frames. A
# race on that path shows up as a flake rather than a steady failure, so
# its suites run five times over; `timeout` bounds a wedged mesh.
for run in 1 2 3 4 5; do
    echo "-- run $run of 5"
    timeout 300 cargo test -q -p poseidon --lib transport::
    timeout 300 cargo test -q -p poseidon --test transport_contract
    timeout 300 cargo test -q -p poseidon --test poller_threads
done

echo "== bitwise oracles under --release =="
# Tier-1 runs these in the dev profile. The benchmark measures the release
# build: the ISA-dispatched GEMM, the transposing packs and the codec loops
# as the optimiser leaves them, which is what must keep every bit.
cargo test --release -q -p poseidon-tensor --test gemm_oracle --test codec_oracle
cargo test --release -q -p poseidon-nn --test conv_oracle

echo "== cargo clippy (warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc (warnings are errors) =="
# Doc links name real items: a link to something deleted or renamed, a bare
# URL or a redundant link target fails here instead of rotting.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "== benchmark package tests =="
cargo test --offline -q --manifest-path benchmark/Cargo.toml

echo "== telemetry smoke: recorder overhead and the live per-layer report =="
timeout 300 cargo run -q --release -p poseidon-bench --bin telemetry_overhead

echo "== transport smoke: all-to-all meshes of 2/8/32 endpoints deliver and audit =="
# Ring traffic over full meshes up to 32 endpoints (992 links) — the scale the
# benchmark's two-endpoint probes do not reach. The binary itself asserts that
# every frame arrived in order from the right peer and that the traffic ledger
# holds exactly the bytes sent; its rates are printed, not gated (PR-over-PR
# transport tracking is benchmark/'s transport.* probes). `timeout` bounds a
# wedged mesh.
timeout 600 cargo run -q --release -p poseidon-bench --bin transport_bench -- \
    --repeat 1 --out "$(mktemp)"

echo "== collective smoke: ring == PS bitwise over a 4-endpoint TCP mesh =="
# The collectives' exactness claim end to end: a ring run over real localhost
# sockets (2 workers + 2 shards = 4 endpoints) must produce replicas bitwise
# identical to the in-process PS baseline. The tcp_loopback suite asserts the
# same; this stage re-proves it through the public launcher CLI, bounded so a
# wedged chain fails instead of hanging. Ports stay below the kernel's
# ephemeral range (32768+).
SMOKE=$(mktemp -d)
PORT=$((21000 + RANDOM % 2000))
for policy in ps ring; do
    timeout 300 cargo run -q --release -p poseidon-bench --bin poseidon-node -- \
        --workers 2 --iters 4 --policy "$policy" --base-port "$PORT" \
        > "$SMOKE/$policy.txt"
    grep -q "replicas=bitwise-identical" "$SMOKE/$policy.txt"
    PORT=$((PORT + 1000))
done
PS_HEX=$(grep -o 'params=[0-9a-f]*' "$SMOKE/ps.txt" | head -1)
RING_HEX=$(grep -o 'params=[0-9a-f]*' "$SMOKE/ring.txt" | head -1)
test -n "$PS_HEX" && test "$PS_HEX" = "$RING_HEX" \
    || { echo "ring replicas differ from the PS baseline"; exit 1; }

echo "== collective bench: ring/tree vs PS allreduce over evented TCP =="
# ps / ring / tree racing the same segmented allreduce over real sockets. The
# binary audits every scenario's traffic ledger against the frames the scheme
# sends (exact bytes); steps/s is printed, not gated.
timeout 900 cargo run -q --release -p poseidon-bench --bin collective_bench -- \
    --out "$(mktemp)"

echo "== compression bench: per-codec traffic + convergence parity =="
# identity / onebit / f16 / bf16 / topk training runs through the threaded
# runtime. Runs are deterministic, so the binary's gates are exact: repeats
# agree on bytes and losses, every loss curve descends and lands near the
# dense final (Figure 11), and every lossy codec moves < 3/4 of the dense
# bytes.
timeout 900 cargo run -q --release -p poseidon-bench --bin compression_bench -- \
    --out "$(mktemp)"

echo "== codec smoke: 1-bit mesh trains bitwise-identical replicas over TCP =="
# The compression plane end to end through the public launcher: a lossy codec
# on a real socket mesh must still produce bitwise-identical replicas (error
# feedback is deterministic), while moving different params than the dense
# run — if the hex matches identity, the codec flag silently did nothing.
timeout 300 cargo run -q --release -p poseidon-bench --bin poseidon-node -- \
    --workers 2 --iters 4 --policy ps --codec onebit --base-port "$PORT" \
    > "$SMOKE/onebit.txt"
grep -q "replicas=bitwise-identical" "$SMOKE/onebit.txt"
ONEBIT_HEX=$(grep -o 'params=[0-9a-f]*' "$SMOKE/onebit.txt" | head -1)
test -n "$ONEBIT_HEX" && test "$ONEBIT_HEX" != "$PS_HEX" \
    || { echo "--codec onebit produced the dense params; codec plane inert"; exit 1; }

echo "== chaos smoke: scripted faults heal bitwise over TCP =="
# The chaos plane through the public launcher: --fault-plan reaches every
# process's run_endpoint, which wraps its socket endpoint as
# Reliable(Faulty(tcp)). Faults must fire and be repaired — each child's
# repair counts travel through its report lines into the launcher's total —
# and the replicas must equal the fault-free PS run's.
PORT=$((PORT + 1000))
timeout 300 cargo run -q --release -p poseidon-bench --bin poseidon-node -- \
    --workers 2 --iters 4 --policy ps --base-port "$PORT" \
    --fault-plan 'drop:0>2@n2;dup:2>1@n3;sever:0>2@n4' \
    > "$SMOKE/chaos.txt"
grep -q "replicas=bitwise-identical" "$SMOKE/chaos.txt"
grep -q "faults_fired_total=[1-9]" "$SMOKE/chaos.txt" \
    || { echo "--fault-plan fired no fault; chaos plane inert"; exit 1; }
grep -q "recovery_actions_total=[1-9]" "$SMOKE/chaos.txt" \
    || { echo "the launcher reports no repair; recovery counts lost"; exit 1; }
CHAOS_HEX=$(grep -o 'params=[0-9a-f]*' "$SMOKE/chaos.txt" | head -1)
test -n "$CHAOS_HEX" && test "$CHAOS_HEX" = "$PS_HEX" \
    || { echo "chaos replicas differ from the fault-free PS run"; exit 1; }

echo "== metrics bench: record-path and end-to-end overhead (printed) =="
# The always-on metrics plane's record cost — a counter add, and gauges and
# histograms with the gate on and off (counters have no off path) — and the
# on/off end-to-end overhead. Printed, not gated: on this class of host the
# on/off ratio of alternated runs spreads about ±10%, wider than the 2%
# budget it would gate.
timeout 300 cargo run -q --release -p poseidon-bench --bin metrics_bench

echo "== elastic smoke: reconfiguration is bitwise-invisible =="
# The elastic membership plane end to end through the public launcher: a run
# that loses shard 1, regains it, and restarts worker 0 across a generation
# boundary (checkpoint + kill + restore over real OS processes) must produce
# params bitwise identical to the fixed-membership run — ownership moves,
# epochs bump, v4 frames fence stragglers, and none of it touches the math.
PORT=$((PORT + 1000))
timeout 300 cargo run -q --release -p poseidon-bench --bin poseidon-node -- \
    --workers 2 --iters 8 --policy ps --base-port "$PORT" \
    > "$SMOKE/fixed.txt"
grep -q "replicas=bitwise-identical" "$SMOKE/fixed.txt"
PORT=$((PORT + 1000))
timeout 300 cargo run -q --release -p poseidon-bench --bin poseidon-node -- \
    --workers 2 --iters 8 --policy ps --base-port "$PORT" \
    --membership-plan "leave:1@2;join:1@5;restart:0@6" \
    > "$SMOKE/elastic.txt"
grep -q "replicas=bitwise-identical" "$SMOKE/elastic.txt"
grep -q "membership_epochs=3 generations=2" "$SMOKE/elastic.txt"
# tail -1: the elastic log holds both generations; the final generation's
# params are the ones comparable to the fixed run's.
FIXED_HEX=$(grep -o 'params=[0-9a-f]*' "$SMOKE/fixed.txt" | tail -1)
ELASTIC_HEX=$(grep -o 'params=[0-9a-f]*' "$SMOKE/elastic.txt" | tail -1)
test -n "$FIXED_HEX" && test "$FIXED_HEX" = "$ELASTIC_HEX" \
    || { echo "elastic replicas differ from the fixed-membership run"; exit 1; }

echo "== serving bench: the front door stays live through reconfiguration =="
# Client threads hammer the snapshot-backed inference server while the run
# executes a leave+rejoin plan; the binary fails unless every membership
# epoch answers requests. Requests/s is printed, not gated.
timeout 900 cargo run -q --release -p poseidon-bench --bin serving_bench -- \
    --out "$(mktemp)"

rm -rf "$SMOKE"
echo "All checks passed."
