//! One endpoint of the mesh — a worker *or* a KV shard, driven over any
//! [`Transport`] — and the runner both entry points share.
//!
//! [`train`](crate::runtime::train) runs all `2P` endpoints as threads of one
//! process; [`run_endpoint`] runs exactly one of them, so `2P` OS processes
//! (the `poseidon-node` binary) connected by a
//! [`TcpTransport`](crate::transport::TcpTransport) mesh execute the
//! identical protocol. Both hand each endpoint to the same runner, the one
//! place the chaos plane is wired: with [`RuntimeConfig::faults`] active the
//! runner wraps the endpoint as `Reliable(Faulty(transport))` and returns
//! the endpoint's [`ChaosReport`] in its [`NodeOutcome`]. Every participant
//! derives the same `RunPlan` deterministically from the shared model
//! factory and config — there is no separate control plane; agreement on the
//! CLI flags *is* the control plane.
//!
//! Endpoint ids follow the fabric convention: `0..P` are workers on physical
//! nodes `0..P`, `P..2P` are shards colocated on the same nodes.

use super::{build_run_plan, server, worker, ChaosReport, RunPlan, RuntimeConfig};
use crate::faults::FaultyTransport;
use crate::syncer;
use crate::telemetry;
use crate::transport::{ReliableTransport, Transport};
use poseidon_nn::data::Dataset;
use poseidon_nn::Model;

/// What one endpoint produced.
pub enum NodeOutcome<M: Model> {
    /// A worker endpoint: its per-iteration losses, eval samples (endpoint 0
    /// only) and final replica.
    Worker {
        /// Mean training loss per iteration on this worker's shard.
        losses: Vec<f32>,
        /// `(iteration, top-1 error)` samples on the eval set.
        test_errors: Vec<(usize, f32)>,
        /// The final model replica.
        net: M,
        /// This worker's per-iteration busy-time p50 (ns), for mesh-level
        /// straggler detection by the launcher (see [`crate::health`]).
        busy_p50_ns: u64,
        /// Full worker state (`export_state` runs only).
        checkpoint: Option<crate::checkpoint::WorkerCheckpoint>,
        /// What the chaos plane did at this endpoint (`None` with it off).
        chaos: Option<ChaosReport>,
    },
    /// A KV shard endpoint.
    Server {
        /// Full shard state (`export_state` runs only).
        checkpoint: Option<crate::checkpoint::ShardCheckpoint>,
        /// What the chaos plane did at this endpoint (`None` with it off).
        chaos: Option<ChaosReport>,
    },
}

/// Runs the single worker or shard owning `endpoint` to completion.
///
/// All participants must build the run from identical `net_factory`, `data`
/// and `cfg` (deterministic agreement); the endpoint's fabric id decides its
/// role.
///
/// # Panics
///
/// Panics on configuration mismatch (fabric size ≠ `2 * cfg.workers`) and
/// on transport failures (a dead peer surfaces as a timeout panic naming
/// this endpoint).
pub fn run_endpoint<M: Model, T: Transport>(
    net_factory: &(dyn Fn() -> M + Sync),
    data: &Dataset,
    eval: Option<&Dataset>,
    cfg: &RuntimeConfig,
    endpoint: T,
) -> NodeOutcome<M> {
    assert!(cfg.workers > 0, "need at least one worker");
    assert!(cfg.iterations > 0, "need at least one iteration");
    let p = cfg.workers;
    assert_eq!(
        endpoint.endpoints(),
        2 * p,
        "fabric has {} endpoints but the config implies {} (2 x {p} workers)",
        endpoint.endpoints(),
        2 * p
    );

    telemetry::configure(&cfg.telemetry);
    // The replica the plan is read from is this endpoint's model.
    let net = net_factory();
    let run = build_run_plan(&net, cfg);
    let me = endpoint.endpoint_id();
    if cfg.telemetry.enabled {
        let role = if me < p { "worker" } else { "shard" };
        telemetry::set_process(me as u32, format!("poseidon-node e{me} ({role})"));
    }
    run_node(&run, net, data, eval, endpoint)
}

/// Runs one endpoint of `run` to completion, for [`train`](super::train)
/// and [`run_endpoint`] alike: wraps the chaos plane around `endpoint` when
/// `cfg.faults` is active, takes this endpoint's slice of `cfg.resume`, and
/// runs the worker or the shard. `net` is this endpoint's copy of the
/// initial model — a worker's replica, a shard's initial master values;
/// `data` is the whole training set.
pub(super) fn run_node<M: Model, T: Transport>(
    run: &RunPlan<'_>,
    net: M,
    data: &Dataset,
    eval: Option<&Dataset>,
    endpoint: T,
) -> NodeOutcome<M> {
    let faults = &run.cfg.faults;
    if !faults.active() {
        return run_role(run, net, data, eval, endpoint);
    }
    // The fault layer breaks originals on the way out; the reliability layer
    // above it (whose retransmits pass the fault layer unfaulted) heals the
    // stream before the role sees it.
    let faulty = FaultyTransport::new(endpoint, &faults.plan.clone().unwrap_or_default());
    let log = faulty.log();
    let reliable = ReliableTransport::new(faulty, faults.reliability.clone().unwrap_or_default());
    let stats = reliable.stats();
    let mut outcome = run_role(run, net, data, eval, reliable);
    let (NodeOutcome::Worker { chaos, .. } | NodeOutcome::Server { chaos, .. }) = &mut outcome;
    *chaos = Some(ChaosReport::of_endpoint(&log, &stats));
    outcome
}

/// The endpoint's role, over whatever transport the runner settled on.
fn run_role<M: Model, T: Transport>(
    run: &RunPlan<'_>,
    net: M,
    data: &Dataset,
    eval: Option<&Dataset>,
    endpoint: T,
) -> NodeOutcome<M> {
    let (p, me) = (run.cfg.workers, endpoint.endpoint_id());
    let resume = run.cfg.resume.as_ref();
    if me < p {
        let restore = resume.map(|ck| {
            ck.workers
                .iter()
                .find(|w| w.worker as usize == me)
                .cloned()
                .unwrap_or_else(|| panic!("checkpoint has no state for worker {me}"))
        });
        let local = worker::WorkerConfig {
            eval: eval.filter(|_| me == 0).cloned(),
            restore,
        };
        // Worker `me` trains on shard `me` of the same deterministic
        // partition every participant computes.
        worker::run_worker(run, local, net, data.part(p, me), endpoint)
    } else {
        let restore = resume.map(|ck| {
            ck.shards
                .iter()
                .find(|s| s.shard as usize == me - p)
                .cloned()
                .unwrap_or_else(|| panic!("checkpoint has no state for shard {}", me - p))
        });
        server::run_server(run, net, restore, endpoint)
    }
}

/// Flattens every trainable layer's parameters in slot order — a canonical
/// form for comparing replicas across process boundaries (the `poseidon-node`
/// parent asserts all workers' flats are bitwise identical).
pub fn flatten_model_params<M: Model>(net: &M) -> Vec<f32> {
    let mut flat = Vec::new();
    for slot in 0..net.num_slots() {
        if let Some(params) = net.slot(slot).and_then(|l| l.params()) {
            flat.extend(syncer::flatten_params(params));
        }
    }
    flat
}
