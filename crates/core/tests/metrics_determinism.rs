//! Pins the metrics-plane contract: the always-on metrics path is a *pure
//! observer*. The same training configuration run with metrics on and with
//! metrics off produces bitwise-identical replicas, identical losses, and
//! identical counted traffic on every communication scheme — counters and
//! histograms may never perturb numerics, message order determinism, or the
//! bytes on the wire.
//!
//! The enable flag is process-global, so all comparisons live in ONE
//! `#[test]` in their own integration-test binary — `cargo test`'s
//! in-binary thread pool cannot interleave a second flip of the gate.

use poseidon::config::{Partition, SchemePolicy};
use poseidon::metrics;
use poseidon::runtime::{flatten_model_params, train, RuntimeConfig, TrainResult};
use poseidon_nn::data::Dataset;
use poseidon_nn::layer::TensorShape;
use poseidon_nn::presets;
use poseidon_nn::Network;
use std::time::Duration;

const WORKERS: usize = 3;
const ITERS: usize = 4;
const BATCH: usize = 8;
const LR: f32 = 0.2;
const SEED: u64 = 17;
const LAYERS: [usize; 4] = [12, 16, 8, 4];

fn run(policy: SchemePolicy) -> TrainResult<Network> {
    let data = Dataset::gaussian_clusters(
        TensorShape::flat(LAYERS[0]),
        *LAYERS.last().unwrap(),
        96,
        0.3,
        SEED + 1,
    );
    let cfg = RuntimeConfig {
        policy,
        partition: Partition::KvPairs { pair_elems: 37 },
        comm_timeout: Duration::from_secs(60),
        ..RuntimeConfig::new(WORKERS, BATCH, LR, ITERS)
    };
    train(&|| presets::mlp(&LAYERS, SEED), &data, None, &cfg)
}

#[test]
fn metrics_are_a_pure_observer_on_every_scheme() {
    assert!(
        metrics::is_enabled(),
        "metrics must be on by default — they are the live-introspection plane"
    );
    let policies = [
        SchemePolicy::AlwaysPs,
        SchemePolicy::Hybrid,
        SchemePolicy::AlwaysRing,
    ];
    for policy in policies {
        metrics::set_enabled(true);
        let on = run(policy);
        metrics::set_enabled(false);
        let off = run(policy);
        metrics::set_enabled(true);

        assert_eq!(
            flatten_model_params(&on.net),
            flatten_model_params(&off.net),
            "{policy:?}: metrics flipped the trained replica — record path is not a pure observer"
        );
        assert_eq!(
            on.losses, off.losses,
            "{policy:?}: metrics changed the loss trajectory"
        );
        assert_eq!(
            on.traffic.snapshot(),
            off.traffic.snapshot(),
            "{policy:?}: metrics changed counted wire traffic"
        );
        // The health verdict rides on an ungated private histogram, so it
        // is present either way. (No straggler assertion here: busy times
        // of this tiny model are sub-millisecond, where CPU contention
        // from the parallel test harness adds real skew.)
        assert_eq!(on.health.verdicts.len(), WORKERS);
        assert_eq!(off.health.verdicts.len(), WORKERS);
    }

    // The metered runs above actually landed in the global registry: the
    // per-worker step histograms exist and counted every iteration of the
    // metered runs, one per policy.
    let snap = metrics::snapshot();
    let steps = snap
        .histogram("poseidon_step_time_ns", &[("worker", "0")])
        .expect("worker 0 step-time histogram");
    let metered = (policies.len() * ITERS) as u64;
    assert!(
        steps.count >= metered,
        "expected at least {metered} metered steps, saw {}",
        steps.count
    );
}
