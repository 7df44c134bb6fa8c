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
# drain, conv / GEMM / 1-bit codec oracles, the simulator fingerprint), the
# transport contract on both fabrics (co-resident TCP frames: the sender's
# own bytes, per-pair order mixed with cross-node frames, the in-process
# ledger and tx frame counters, sever as a no-op; plus the registry hygiene
# and hostile-HELLO unit tests in transport/tcp/mod.rs — stalled, garbage
# and flooding peers — and the metrics door's in metrics/expose.rs), ring
# traffic over full TCP meshes of 2, 8 and 32 endpoints
# (loopback_accounting: in-order delivery, exact ledgers), the
# one-thread-per-endpoint budget (poller_threads), the exact traffic of
# every scheme and of both codecs (identity, onebit) on the real runtime
# (traffic_cost_model: PS, SFB, ring and tree bytes per frame and hop; the
# 1-bit byte ratio, repeatability and convergence next to the dense run),
# the crates/bench process suites (tcp_loopback, trace_roundtrip,
# tcp_sever_reconnect, metrics_scrape, elastic_membership: every membership
# epoch scraped; codec_flag: an unknown --codec is refused) and the
# paper's results diff (crates/bench/tests/paper.rs: table1, table3,
# overhead, multigpu, fig5-fig8, fig10 and ablation regenerated and compared
# byte for byte with results/<name>.txt).
cargo build --release
cargo test -q

echo "== connect and accept paths, five runs in a row =="
# One poller per endpoint accepts, reads every HELLO and serves frames, and
# the metrics door runs the same accept loop on its own poller (its
# stalled, garbage and flooding peers are the `metrics::expose::` tests).
# The poller also dials every mesh link and serves every sever; the two
# process suites are the ones whose peers bind late and whose severs cross
# processes. A race on that path shows up as a flake rather than a steady
# failure, so its suites run five times over; `timeout` bounds a wedged
# mesh.
for run in 1 2 3 4 5; do
    echo "-- run $run of 5"
    timeout 300 cargo test -q -p poseidon --lib transport::
    timeout 300 cargo test -q -p poseidon --test transport_contract
    timeout 300 cargo test -q -p poseidon --test poller_threads
    timeout 300 cargo test -q -p poseidon --lib metrics::expose::
    timeout 300 cargo test -q -p poseidon-bench --test tcp_loopback --test tcp_sever_reconnect
done

echo "== bitwise oracles and data paths under --release =="
# Tier-1 runs these in the dev profile. The benchmark measures the release
# build: the ISA-dispatched GEMM, the transposing packs, the packs that
# gather a convolution's columns from its padded sample and the small-`m`
# body that streams a lane-contiguous `B` (the benchmark measures these in
# the release build only, so the `kernel::` unit tests and the conv
# layers' bits at 1, 2 and 7 threads — conv_oracle, parallel_determinism,
# backward_contract — run here too), the codec loops as the optimiser
# leaves them, the syncer's apply code (the in-place chunk writes, SFB's
# row-blocked rebuild and momentum step, the collective segment steps and
# the ring's fused fold-and-step) on the PS, collective and WFBP-drain paths,
# and the shard's `ShardServer` (the residual's export/install on
# checkpoint and handoff, the poisoned-frame paths), which is what must
# keep every bit. The dense PS round and the identity ring share buffers
# instead of copying them — a push frame and a ring head's REDUCE frame
# view the layer's gradient, an identity reply views the shard's master,
# every replica keeps a DISTRIBUTE frame as its velocity — so the syncer
# and KV-store unit tests that pin who may write a shared buffer, and when,
# run under release timing too, and so does the chaos suite, whose
# `Reliable` retransmit copies hold those frames past their round. Every
# destination those paths use comes from `route.rs`, so its unit tests (the
# routing completeness walk for P = 1..33) run here too, with the
# simulator/runtime frame cross-check (`sim_runtime_frames`).
cargo test --release -q -p poseidon-tensor --test gemm_oracle --test codec_oracle
cargo test --release -q -p poseidon-tensor --lib kernel::
cargo test --release -q -p poseidon-nn --test conv_oracle --test parallel_determinism \
    --test backward_contract
cargo test --release -q -p poseidon-repro --test ps_wire_path --test collective_wire_path \
    --test wfbp_drain --test distributed_equivalence --test checkpoint_restore \
    --test poisoned_payloads --test chaos_recovery --test sim_runtime_frames
cargo test --release -q -p poseidon --lib -- kvstore:: syncer:: route::

echo "== paper's training figures run to completion =="
# fig9 and fig11 train real networks on the threaded runtime; tier-1 does
# not run them (their statistical claims are not gated yet). This stage only
# checks that each runs to the end (a few seconds in all, release, 2-vCPU
# host); the timeout bounds the stage as a whole, and the output is
# discarded.
timeout 300 bash -c 'set -e; for figure in fig9 fig11; do
    cargo run -q --release -p poseidon-bench --bin paper -- "$figure" > /dev/null
done'

echo "== cargo clippy (warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc (warnings are errors) =="
# Doc links name real items: a link to something deleted or renamed, a bare
# URL or a redundant link target fails here instead of rotting. Private items
# are documented too, so their doc comments are held to the same links.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --document-private-items -q

echo "== benchmark package tests =="
cargo test --offline -q --manifest-path benchmark/Cargo.toml

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
PS_HEX=$(grep -m1 -o 'params=[0-9a-f]*' "$SMOKE/ps.txt")
RING_HEX=$(grep -m1 -o 'params=[0-9a-f]*' "$SMOKE/ring.txt")
test -n "$PS_HEX" && test "$PS_HEX" = "$RING_HEX" \
    || { echo "ring replicas differ from the PS baseline"; exit 1; }

echo "== codec smoke: 1-bit mesh trains bitwise-identical replicas over TCP =="
# The compression plane end to end through the public launcher: a lossy codec
# on a real socket mesh must still produce bitwise-identical replicas (error
# feedback is deterministic), while moving different params than the dense
# run — if the hex matches identity, the codec flag silently did nothing.
timeout 300 cargo run -q --release -p poseidon-bench --bin poseidon-node -- \
    --workers 2 --iters 4 --policy ps --codec onebit --base-port "$PORT" \
    > "$SMOKE/onebit.txt"
grep -q "replicas=bitwise-identical" "$SMOKE/onebit.txt"
ONEBIT_HEX=$(grep -m1 -o 'params=[0-9a-f]*' "$SMOKE/onebit.txt")
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
CHAOS_HEX=$(grep -m1 -o 'params=[0-9a-f]*' "$SMOKE/chaos.txt")
test -n "$CHAOS_HEX" && test "$CHAOS_HEX" = "$PS_HEX" \
    || { echo "chaos replicas differ from the fault-free PS run"; exit 1; }

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

rm -rf "$SMOKE"
echo "All checks passed."
