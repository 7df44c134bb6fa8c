#!/usr/bin/env bash
# Repository gate: the offline suites, formatting, lints, and the full test
# suite. Run from the repo root: ./scripts/check.sh
#
# The first stages need no registry: `offline/` and `benchmark/` are packages
# with their own lock files whose only external crates are the stand-ins
# under benchmark/shims. Everything after them builds the root workspace,
# which needs proptest and criterion; where neither the registry nor a local
# cache can supply them the script stops there and says what it skipped.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== offline suites: the bitwise contract, no registry needed =="
# Every proptest-free integration suite (root tests/, four of crates/core,
# three of crates/nn, two of crates/tensor, one of crates/netsim) by path, incl. tests/ps_wire_path.rs
# and tests/collective_wire_path.rs — the differential tests of the PS and the
# ring/tree data paths against the scalar codec and a reference fold —
# tests/wfbp_drain.rs (draining receives inside backward ends on the replicas
# of a tail-only run; a REDUCE that beats the local Send is parked),
# crates/core/tests/transport_contract.rs, the Transport contract run on the
# in-process fabric and on a loopback TCP mesh, the backward_with contract of
# both model containers (backward_contract.rs), the bitwise compute
# oracles (conv_oracle.rs: Conv2d against a direct convolution; gemm_oracle.rs:
# the packed GEMM against the naive fold), the lossy codecs' bitwise oracle
# (codec_oracle.rs: the 1-bit scale definition, every ISA copy of its loops
# against the baseline body, the carried residual, top-k selection against
# the full sort), and the simulator's event core:
# tests/sim_fingerprint.rs (every reported statistic bit for bit against
# golden digests), tests/simulation_engine.rs (the engine's behavioural
# tests through the public API) and crates/netsim/tests/queue_order.rs (the
# event queue's pop order against a naive reference).
cargo test --offline -q --manifest-path offline/Cargo.toml

echo "== benchmark package tests =="
cargo test --offline -q --manifest-path benchmark/Cargo.toml

echo "== cargo fmt --check =="
cargo fmt --all -- --check
(cd offline && cargo fmt -- --check)

# Work offline when the registry is unreachable but a local cache resolves
# the workspace (air-gapped CI): a quick fetch probe decides, and every cargo
# call below honours the result. With neither, stop here and say so.
CARGO_OFFLINE=()
if ! timeout 30 cargo fetch >/dev/null 2>&1; then
    if cargo metadata --offline --format-version 1 >/dev/null 2>&1; then
        echo "== registry unreachable: running cargo with --offline =="
        CARGO_OFFLINE=(--offline)
        export CARGO_NET_OFFLINE=true
    else
        cat <<'SKIPPED'
== registry unreachable and no local cache: the root workspace cannot resolve ==
Passed: offline suites, benchmark package tests, cargo fmt.
SKIPPED (each needs the root workspace to build):
  - cargo clippy --workspace --all-targets -D warnings
  - cargo test --workspace (unit tests and the proptest suites)
  - multi-process TCP loopback, telemetry smoke, chaos smoke
  - transport_bench many-link smoke (8- and 32-endpoint meshes)
  - collective / compression / serving benches and their gates
  - collective, codec, metrics and elastic smokes through poseidon-node
SKIPPED
        exit 0
    fi
fi

echo "== cargo clippy (warnings are errors) =="
cargo clippy "${CARGO_OFFLINE[@]}" --workspace --all-targets -- -D warnings

echo "== cargo test =="
cargo test "${CARGO_OFFLINE[@]}" -q --workspace

echo "== multi-process TCP loopback (bounded) =="
# The capstone: 2P OS processes over a TCP mesh must reproduce the
# in-process run bitwise. Bounded so a wedged mesh fails instead of hanging.
timeout 300 cargo test "${CARGO_OFFLINE[@]}" -q -p poseidon-bench --test tcp_loopback

echo "== telemetry smoke: traced multi-process run + overhead budget =="
# A traced TCP run must merge into valid Chrome-trace JSON (asserted by the
# launcher itself and re-checked by the trace_roundtrip test), and the
# telemetry_overhead binary regenerates BENCH_telemetry.json, the recorder's
# disabled-path overhead record. Both bounded against a wedged mesh.
timeout 300 cargo test "${CARGO_OFFLINE[@]}" -q -p poseidon-bench --test trace_roundtrip
timeout 300 cargo run "${CARGO_OFFLINE[@]}" -q --release -p poseidon-bench --bin telemetry_overhead

echo "== chaos smoke: scripted faults heal bitwise, dead peers abort bounded =="
# Fault injection is deterministic (logical frame counters, not wall-clock),
# so these are exact tests, not flaky ones — but every one involves real
# recovery machinery (retransmits, socket redials), so each stage is bounded:
# a hang here means the self-healing plane regressed into a deadlock.
timeout 300 cargo test "${CARGO_OFFLINE[@]}" -q -p poseidon-repro --test chaos_recovery
timeout 300 cargo test "${CARGO_OFFLINE[@]}" -q -p poseidon --test fault_plan_properties
timeout 300 cargo test "${CARGO_OFFLINE[@]}" -q -p poseidon-bench --test tcp_sever_reconnect

echo "== transport smoke: all-to-all meshes of 2/8/32 endpoints deliver and audit =="
# Ring traffic over full meshes up to 32 endpoints (992 links) — the scale the
# benchmark's two-endpoint probes do not reach. The binary itself asserts that
# every frame arrived in order from the right peer and that the traffic ledger
# holds exactly the bytes sent; its rates are printed, not gated (PR-over-PR
# transport tracking is benchmark/'s transport.* probes). Results go to a temp
# file: the committed BENCH_transport.json is the frozen PR-10 record of the
# deleted thread-per-peer baseline and is no longer regenerated. `timeout`
# bounds a wedged mesh.
timeout 600 cargo run "${CARGO_OFFLINE[@]}" -q --release -p poseidon-bench --bin transport_bench -- \
    --repeat 1 --out "$(mktemp)"

echo "== collective smoke: ring == PS bitwise over a 4-endpoint TCP mesh =="
# The collectives' exactness claim end to end: a ring run over real localhost
# sockets (2 workers + 2 shards = 4 endpoints) must produce replicas bitwise
# identical to the in-process PS baseline. The tcp_loopback suite above
# asserts the same; this stage re-proves it through the public launcher CLI,
# bounded so a wedged chain fails instead of hanging.
PORT=$((21000 + RANDOM % 2000))
for policy in ps ring; do
    timeout 300 cargo run "${CARGO_OFFLINE[@]}" -q --release -p poseidon-bench --bin poseidon-node -- \
        --workers 2 --iters 4 --policy "$policy" --base-port "$PORT" \
        > "/tmp/poseidon_${policy}_smoke.txt"
    grep -q "replicas=bitwise-identical" "/tmp/poseidon_${policy}_smoke.txt"
    PORT=$((PORT + 1000))
done
PS_HEX=$(grep -o 'params=[0-9a-f]*' /tmp/poseidon_ps_smoke.txt | head -1)
RING_HEX=$(grep -o 'params=[0-9a-f]*' /tmp/poseidon_ring_smoke.txt | head -1)
test -n "$PS_HEX" && test "$PS_HEX" = "$RING_HEX" \
    || { echo "ring replicas differ from the PS baseline"; exit 1; }

echo "== collective bench: ring/tree vs PS allreduce over evented TCP =="
# Regenerates BENCH_collectives.json (ps / ring / tree racing the same
# segmented allreduce over real sockets) and fails when any collective/ps
# steps-per-second ratio drops >20% below the committed baseline — a ratio,
# because the schemes run back-to-back and machine-wide speed drift, which
# makes absolute-throughput gates flap, cancels out of it. The committed
# baseline also documents the headline: ring beats PS on every tensor size,
# most at the large ones where serialized push/pull incast dominates.
timeout 900 cargo run "${CARGO_OFFLINE[@]}" -q --release -p poseidon-bench --bin collective_bench -- \
    --check-against BENCH_collectives.json --out BENCH_collectives.json

echo "== compression bench: per-codec traffic + convergence parity =="
# Regenerates BENCH_compression.json (identity / onebit / f16 / bf16 / topk
# training runs through the threaded runtime) and fails when any codec's
# wire-bytes ratio vs identity exceeds its committed baseline — runs are
# deterministic, so the ratios are exact facts, not flaky timings. The bench
# also asserts convergence parity internally: every codec's loss curve must
# descend and lossy finals must land near the dense final (Figure 11).
timeout 900 cargo run "${CARGO_OFFLINE[@]}" -q --release -p poseidon-bench --bin compression_bench -- \
    --check-against BENCH_compression.json --out BENCH_compression.json

echo "== codec smoke: 1-bit mesh trains bitwise-identical replicas over TCP =="
# The compression plane end to end through the public launcher: a lossy codec
# on a real socket mesh must still produce bitwise-identical replicas (error
# feedback is deterministic), while moving different params than the dense
# run — if the hex matches identity, the codec flag silently did nothing.
timeout 300 cargo run "${CARGO_OFFLINE[@]}" -q --release -p poseidon-bench --bin poseidon-node -- \
    --workers 2 --iters 4 --policy ps --codec onebit --base-port "$PORT" \
    > /tmp/poseidon_onebit_smoke.txt
grep -q "replicas=bitwise-identical" /tmp/poseidon_onebit_smoke.txt
ONEBIT_HEX=$(grep -o 'params=[0-9a-f]*' /tmp/poseidon_onebit_smoke.txt | head -1)
test -n "$ONEBIT_HEX" && test "$ONEBIT_HEX" != "$PS_HEX" \
    || { echo "--codec onebit produced the dense params; codec plane inert"; exit 1; }

echo "== metrics smoke: live scrape + health verdict + overhead budget =="
# The observability plane end to end: metrics_scrape launches a real TCP mesh
# with one scripted straggler, scrapes Prometheus text from EVERY endpoint
# mid-run over raw sockets, and asserts the launcher's health verdict names
# the delayed worker. metrics_bench then regenerates BENCH_metrics.json and
# fails when the always-on record path costs more than 2% of an instrumented
# training run (measured as interleaved min-of-reps, off vs on).
timeout 300 cargo test "${CARGO_OFFLINE[@]}" -q -p poseidon-bench --test metrics_scrape
timeout 300 cargo run "${CARGO_OFFLINE[@]}" -q --release -p poseidon-bench --bin metrics_bench

echo "== elastic smoke: reconfiguration is bitwise-invisible, front door live =="
# The elastic membership plane end to end through the public launcher: a run
# that loses shard 1, regains it, and restarts worker 0 across a generation
# boundary (checkpoint + kill + restore over real OS processes) must produce
# params bitwise identical to the fixed-membership run — ownership moves,
# epochs bump, v4 frames fence stragglers, and none of it touches the math.
# elastic_serving additionally queries the inference front door over raw
# sockets while the reconfiguration is in flight.
PORT=$((PORT + 1000))
timeout 300 cargo run "${CARGO_OFFLINE[@]}" -q --release -p poseidon-bench --bin poseidon-node -- \
    --workers 2 --iters 8 --policy ps --base-port "$PORT" \
    > /tmp/poseidon_fixed_smoke.txt
grep -q "replicas=bitwise-identical" /tmp/poseidon_fixed_smoke.txt
PORT=$((PORT + 1000))
timeout 300 cargo run "${CARGO_OFFLINE[@]}" -q --release -p poseidon-bench --bin poseidon-node -- \
    --workers 2 --iters 8 --policy ps --base-port "$PORT" \
    --membership-plan "leave:1@2;join:1@5;restart:0@6" \
    > /tmp/poseidon_elastic_smoke.txt
grep -q "replicas=bitwise-identical" /tmp/poseidon_elastic_smoke.txt
grep -q "membership_epochs=3 generations=2" /tmp/poseidon_elastic_smoke.txt
# tail -1: the elastic log holds both generations; the final generation's
# params are the ones comparable to the fixed run's.
FIXED_HEX=$(grep -o 'params=[0-9a-f]*' /tmp/poseidon_fixed_smoke.txt | tail -1)
ELASTIC_HEX=$(grep -o 'params=[0-9a-f]*' /tmp/poseidon_elastic_smoke.txt | tail -1)
test -n "$FIXED_HEX" && test "$FIXED_HEX" = "$ELASTIC_HEX" \
    || { echo "elastic replicas differ from the fixed-membership run"; exit 1; }
timeout 300 cargo test "${CARGO_OFFLINE[@]}" -q -p poseidon-bench --test elastic_serving

echo "== serving bench: the front door stays live through reconfiguration =="
# Regenerates BENCH_serving.json (client threads hammering the snapshot-backed
# inference server while the run executes a leave+rejoin plan) and fails when
# any membership epoch answers zero requests, or when requests/s fall below a
# quarter of the committed baseline — a liveness gate with a loose margin, not
# a speed race.
timeout 900 cargo run "${CARGO_OFFLINE[@]}" -q --release -p poseidon-bench --bin serving_bench -- \
    --check-against BENCH_serving.json --out BENCH_serving.json

echo "All checks passed."
