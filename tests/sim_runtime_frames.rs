//! The simulator and the runtime send the same frames.
//!
//! Both take every destination from `poseidon::route`; this suite checks
//! the two programs agree on what that yields. For each scheme and cluster
//! size, the frames the simulator puts on the wire in its measured
//! iteration (`tx.frame` instants of `simulate_with_trace`) are counted per
//! sending node and compared with one steady-state iteration of an
//! in-process `train` with telemetry on: the frames of a three-iteration
//! run minus those of a two-iteration run, per node (worker `w` and the
//! shard colocated with it on node `w`). The simulated model is a
//! hand-built `ModelSpec` with the trained network's layer shapes, so both
//! coordinators cut the same chunk table.
//!
//! Telemetry state is process-global, so every run lives in ONE `#[test]`
//! in its own integration-test binary.

use poseidon::config::{ClusterConfig, Partition, SchemePolicy};
use poseidon::coordinator::Coordinator;
use poseidon::runtime::{train, RuntimeConfig};
use poseidon::sim::{simulate_with_trace, SimConfig, System};
use poseidon::telemetry::{EventKind, TelemetryConfig, Trace};
use poseidon_nn::data::Dataset;
use poseidon_nn::layer::TensorShape;
use poseidon_nn::presets;
use poseidon_nn::zoo::{LayerSpec, ModelSpec, SpecKind};
use std::time::Duration;

const SIZES: [usize; 4] = [12, 16, 8, 4];
const BATCH: usize = 4;
const SEED: u64 = 5;
const PARTITION: Partition = Partition::KvPairs { pair_elems: 37 };

/// `presets::mlp(&SIZES, _)` as a simulator descriptor: `fcN` layers of
/// `out × in` weights plus `out` biases, a stateless `reluN` after each
/// but the last.
fn mlp_spec() -> ModelSpec {
    let mut layers = Vec::new();
    for (i, pair) in SIZES.windows(2).enumerate() {
        let (n, m) = (pair[0], pair[1]);
        let flops = 2 * (m * n) as u64;
        layers.push(LayerSpec {
            name: format!("fc{}", i + 1),
            kind: SpecKind::FullyConnected { m, n },
            params: (m * n + m) as u64,
            fwd_flops: flops,
            bwd_flops: 2 * flops,
        });
        if i + 2 < SIZES.len() {
            layers.push(LayerSpec {
                name: format!("relu{}", i + 1),
                kind: SpecKind::Stateless,
                params: 0,
                fwd_flops: m as u64,
                bwd_flops: m as u64,
            });
        }
    }
    ModelSpec {
        name: "mlp",
        dataset: "gaussian clusters",
        default_batch: BATCH,
        layers,
        paper_single_node_ips: None,
    }
}

/// `tx.frame` instants per node, `nodes` long, on the tracks `node_of`
/// maps to a node (`None`: not a sending endpoint's track).
fn frames_per_node(
    trace: &Trace,
    nodes: usize,
    node_of: impl Fn(&str) -> Option<usize>,
) -> Vec<usize> {
    let mut count = vec![0; nodes];
    for track in &trace.tracks {
        let Some(node) = node_of(&track.name) else {
            continue;
        };
        count[node] += track
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Instant && e.name == "tx.frame")
            .count();
    }
    count
}

/// The simulated cluster's sync frames in its measured iteration.
fn simulated(spec: &ModelSpec, policy: SchemePolicy, p: usize) -> Vec<usize> {
    let cfg = SimConfig {
        policy,
        partition: PARTITION,
        batch_per_node: Some(BATCH),
        ..SimConfig::system(System::Poseidon, p, 10.0)
    };
    let (_, trace) = simulate_with_trace(spec, &cfg);
    // Track "node i" is node i's NIC; "node i cpu" sends nothing.
    frames_per_node(&trace, p, |name| name.strip_prefix("node ")?.parse().ok())
}

/// The frames an in-process run of `iters` iterations sends, per node.
fn trained(policy: SchemePolicy, p: usize, iters: usize) -> Vec<usize> {
    let data = Dataset::gaussian_clusters(TensorShape::flat(SIZES[0]), SIZES[3], 48, 0.3, SEED);
    let cfg = RuntimeConfig {
        policy,
        partition: PARTITION,
        comm_timeout: Duration::from_secs(60),
        telemetry: TelemetryConfig::enabled(),
        ..RuntimeConfig::new(p, BATCH, 0.1, iters)
    };
    let run = train(&|| presets::mlp(&SIZES, SEED), &data, None, &cfg);
    let trace = run.trace.expect("telemetry was on");
    assert!(
        trace.tracks.iter().all(|t| t.dropped == 0),
        "events dropped"
    );
    // Worker w is endpoint w on node w; shard endpoint P + s is on node s.
    frames_per_node(&trace, p, |name| {
        if let Some(w) = name.strip_prefix("worker ") {
            return w.parse().ok();
        }
        let e: usize = name.strip_prefix("shard e")?.parse().ok()?;
        Some(e - p)
    })
}

#[test]
fn simulator_and_runtime_send_the_same_frames() {
    let spec = mlp_spec();
    let policies = [
        SchemePolicy::AlwaysPs,
        SchemePolicy::AlwaysSfbForFc,
        SchemePolicy::AdamSf,
        SchemePolicy::AlwaysRing,
    ];
    for p in [2, 3, 5] {
        let cluster = ClusterConfig::colocated(p, BATCH);
        for policy in policies {
            // The two coordinators plan the same layers, chunks and schemes.
            let net = presets::mlp(&SIZES, SEED);
            let live = Coordinator::from_network(&net, cluster, policy, PARTITION);
            let sim = Coordinator::from_spec(&spec, cluster, policy, PARTITION);
            let shape = |c: &Coordinator| {
                let layers = c
                    .layers()
                    .iter()
                    .map(|l| (l.name.clone(), l.param_elems, l.fc_shape));
                (
                    layers.collect::<Vec<_>>(),
                    c.chunk_table().chunks().to_vec(),
                )
            };
            assert_eq!(shape(&live), shape(&sim), "{policy:?} P={p}: plans differ");
            assert_eq!(live.scheme_assignment(), sim.scheme_assignment());

            let want = simulated(&spec, policy, p);
            let (two, three) = (trained(policy, p, 2), trained(policy, p, 3));
            let got: Vec<usize> = three.iter().zip(&two).map(|(b, a)| b - a).collect();
            let total = want.iter().sum::<usize>();
            assert!(total > 0, "{policy:?} P={p}: no frames");
            assert_eq!(got.iter().sum::<usize>(), total, "{policy:?} P={p}: frames");
            assert_eq!(got, want, "{policy:?} P={p}: frames per sending node");
        }
    }
}
