//! The distributed-training runtime.
//!
//! This backend executes Poseidon's protocol for real: `P` workers train real
//! [`poseidon_nn::Network`] replicas on disjoint data shards, and `P`
//! KV-store shards (colocated: shard *i* shares physical node *i* with worker
//! *i*) hold the master parameters. All synchronisation flows as serialised
//! byte messages over a pluggable [`crate::transport::Transport`].
//!
//! There is one runtime path. Both entry points build the same `RunPlan`
//! from the model and the [`RuntimeConfig`] — scheme assignment, chunk
//! table, membership schedule — and hand it, with one
//! endpoint's transport, to the one endpoint runner (`node.rs`): it wraps
//! the chaos plane when [`RuntimeConfig::faults`] asks for it, takes the
//! endpoint's slice of [`RuntimeConfig::resume`], and runs the worker or the
//! shard. [`train`] runs all `2P` endpoints as threads over
//! [`InProcTransport`](crate::transport::InProcTransport) channels and folds
//! their outcomes into a [`TrainResult`]; [`run_endpoint`] runs one, so one
//! OS process per worker/shard forms the same protocol over
//! [`TcpTransport`](crate::transport::TcpTransport) (the `poseidon-node`
//! binary). Either way the traffic the integration tests measure is the
//! traffic the analytic cost model predicts.
//!
//! The runtime implements synchronous (BSP) data-parallel SGD exactly as in
//! the paper, and no other consistency model: per-KV-pair update counts on
//! the server side, a per-layer completion vector on the worker side, and
//! gradient averaging such that the distributed trajectory equals
//! single-node large-batch SGD.

mod node;
mod server;
mod worker;

pub use crate::wire::LAYER_GRANULAR_CHUNK;
pub use node::{flatten_model_params, run_endpoint, NodeOutcome};
pub use worker::evaluate_error;

use crate::checkpoint::TrainingCheckpoint;
use crate::config::{
    ClusterConfig, Codec, CodecPolicy, CommScheme, ComputeConfig, Partition, SchemePolicy,
};
use crate::coordinator::Coordinator;
use crate::faults::{FaultPlan, FiredFault};
use crate::membership::MembershipSchedule;
use crate::route::Dest;
use crate::telemetry::{self, TelemetryConfig};
use crate::transport::{
    self, Message, ReliabilityConfig, ReliabilityStats, TrafficCounters, Transport,
};
use poseidon_nn::data::Dataset;
use poseidon_nn::Model;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Total poisoned frames dropped by workers and shards since process start
/// (`poseidon_poisoned_frames_total`). A frame is poisoned when its payload
/// fails validation or its header fits nothing the receiver holds: it is
/// counted, emitted as a `frame.poisoned` telemetry instant and a stderr
/// diagnostic, and dropped, instead of aborting the process; a run that then
/// starves still fails within `comm_timeout` with the usual diagnosis.
pub fn poisoned_frames() -> u64 {
    crate::metrics::counter("poseidon_poisoned_frames_total", &[]).get()
}

/// Records one poisoned frame: bumps the process-wide counter and names the
/// link and the error on stderr/telemetry. The caller drops the frame. Cold
/// path (a frame was just refused), so the registry lookup is fine.
pub(crate) fn note_poisoned_frame(
    endpoint: usize,
    from: usize,
    what: &str,
    err: &crate::wire::CodecError,
) {
    crate::metrics::counter("poseidon_poisoned_frames_total", &[]).inc();
    if telemetry::is_enabled() {
        telemetry::instant("frame.poisoned", endpoint as u64, from as u64);
    }
    eprintln!(
        "poseidon: endpoint {endpoint}: poisoned {what} frame from endpoint {from} dropped: {err}"
    );
}

/// A learning-rate schedule evaluated per BSP iteration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LrSchedule {
    /// Constant learning rate (the default).
    Constant,
    /// Multiply the learning rate by `factor` every `every` iterations
    /// (Caffe's `step` policy, used by the paper's solvers).
    Step {
        /// Iterations between decays.
        every: usize,
        /// Multiplicative factor (e.g. 0.1).
        factor: f32,
    },
}

impl LrSchedule {
    /// The learning-rate multiplier at `iter`.
    pub fn multiplier(&self, iter: usize) -> f32 {
        match *self {
            LrSchedule::Constant => 1.0,
            LrSchedule::Step { every, factor } => factor.powi((iter / every.max(1)) as i32),
        }
    }
}

/// Fault-injection and recovery knobs of a run (the chaos plane).
///
/// With either field set, the endpoint runner wraps every endpoint's
/// transport — under [`train`] and [`run_endpoint`] alike — as
/// `Reliable(Faulty(transport))`: the
/// [`FaultyTransport`](crate::faults::FaultyTransport) executes the plan on
/// the send path (an empty plan when only `reliability` is set), and the
/// [`ReliableTransport`](crate::transport::ReliableTransport) above it heals
/// whatever the plan breaks — so the
/// run either converges bitwise identical to the fault-free run, or (for
/// unrecoverable plans like a black-holed link) aborts within
/// [`RuntimeConfig::comm_timeout`] with a
/// [`TimeoutDiag`](crate::transport::TimeoutDiag)-bearing panic.
#[derive(Clone, Debug, Default)]
pub struct FaultConfig {
    /// The scripted faults, if any.
    pub plan: Option<FaultPlan>,
    /// Reliability-layer tuning; `None` means
    /// [`ReliabilityConfig::default`] when the chaos plane is active.
    pub reliability: Option<ReliabilityConfig>,
}

impl FaultConfig {
    /// Whether the chaos plane (fault wrapper + reliability layer) is on.
    pub fn active(&self) -> bool {
        self.plan.is_some() || self.reliability.is_some()
    }
}

/// What the chaos plane observed during a run: every fault that fired, and
/// the recovery work the reliability layer did to survive it, summed over
/// all endpoints.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosReport {
    /// Every fired fault, ordered by (sender, receiver, frame index).
    pub fired: Vec<FiredFault>,
    /// Data frames retransmitted in response to nacks.
    pub retransmits: u64,
    /// Duplicate data frames dropped.
    pub dups_dropped: u64,
    /// Gap nacks sent.
    pub nacks_sent: u64,
    /// Cumulative acks sent.
    pub acks_sent: u64,
    /// Tail-loss probe rounds.
    pub probes_sent: u64,
    /// Out-of-order frames stashed for reordering.
    pub reorders_stashed: u64,
}

impl ChaosReport {
    /// Sum of repair actions (retransmits + dup drops + reorders + nacks) —
    /// non-zero iff the reliability layer ever had to fix anything.
    pub fn recovery_actions(&self) -> u64 {
        self.retransmits + self.dups_dropped + self.nacks_sent + self.reorders_stashed
    }

    /// One endpoint's report, read off its fault log and recovery counters.
    fn of_endpoint(log: &Mutex<Vec<FiredFault>>, stats: &ReliabilityStats) -> Self {
        let mut fired = log.lock().expect("fault log lock").clone();
        fired.sort_by_key(|f| (f.from, f.to, f.frame));
        Self {
            fired,
            ..Self::from(stats)
        }
    }

    /// Folds another endpoint's report into this one.
    fn absorb(&mut self, other: ChaosReport) {
        self.fired.extend(other.fired);
        self.fired.sort_by_key(|f| (f.from, f.to, f.frame));
        self.retransmits += other.retransmits;
        self.dups_dropped += other.dups_dropped;
        self.nacks_sent += other.nacks_sent;
        self.acks_sent += other.acks_sent;
        self.probes_sent += other.probes_sent;
        self.reorders_stashed += other.reorders_stashed;
    }
}

/// One endpoint's recovery counts, with no fault log.
impl From<&ReliabilityStats> for ChaosReport {
    fn from(stats: &ReliabilityStats) -> Self {
        Self {
            fired: Vec::new(),
            retransmits: stats.retransmits.get(),
            dups_dropped: stats.dups_dropped.get(),
            nacks_sent: stats.nacks_sent.get(),
            acks_sent: stats.acks_sent.get(),
            probes_sent: stats.probes_sent.get(),
            reorders_stashed: stats.reorders_stashed.get(),
        }
    }
}

/// Configuration of a distributed training run. The straggler verdict in
/// [`TrainResult::health`] is judged at the constant
/// [`DEFAULT_STRAGGLER_FACTOR`](crate::health::DEFAULT_STRAGGLER_FACTOR).
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Number of workers (`P1`); shards are colocated, so also `P2`.
    pub workers: usize,
    /// Per-worker minibatch size (`K`).
    pub batch_per_worker: usize,
    /// Learning rate applied to the *averaged* gradient, so the distributed
    /// update equals a single-node step on the `K·P` global batch.
    pub learning_rate: f32,
    /// Classical momentum µ applied to the aggregated gradient (0 = plain
    /// SGD, the default). PS/Adam layers keep velocity on their server shard,
    /// SFB layers keep identical velocity on every replica, 1-bit layers on
    /// the aggregate before its quantization.
    pub momentum: f32,
    /// Learning-rate schedule applied on top of `learning_rate`.
    pub lr_schedule: LrSchedule,
    /// Layer-to-scheme policy.
    pub policy: SchemePolicy,
    /// Layer-to-codec policy, orthogonal to the scheme policy. The default
    /// [`CodecPolicy::Identity`] is bitwise identical to the pre-codec wire;
    /// [`SchemePolicy::OneBit`] overrides this with [`Codec::OneBit`] on FC
    /// layers regardless (the named CNTK baseline).
    pub codec: CodecPolicy,
    /// Parameter partitioning across shards.
    pub partition: Partition,
    /// Training iterations.
    pub iterations: usize,
    /// Evaluate the eval set every this many iterations (0 = never).
    pub eval_every: usize,
    /// Inject a straggler for experiments: `(worker, extra ms per iteration)`.
    pub straggler_delay_ms: Option<(usize, u64)>,
    /// Compute-thread budget for the layer kernels, divided evenly across
    /// worker threads so nested parallelism stays bounded. Thread count
    /// never affects results (kernels are bitwise thread-count independent).
    pub compute: ComputeConfig,
    /// How long a worker or shard waits on its transport before declaring a
    /// peer lost: one `recv_timeout` of this budget. A stalled run fails with
    /// a diagnosable
    /// [`TransportError::Timeout`](crate::transport::TransportError::Timeout)
    /// naming the starved endpoint instead of hanging forever.
    pub comm_timeout: Duration,
    /// Telemetry recorder knobs. Disabled by default; enabling records
    /// per-layer compute spans, WFBP sync windows and transport counters into
    /// [`TrainResult::trace`] without perturbing the numerics (runs are
    /// bitwise identical either way).
    pub telemetry: TelemetryConfig,
    /// The chaos plane: scripted fault injection plus the reliability layer
    /// that heals it. Off by default; with faults scripted the run must
    /// still produce bitwise-identical results (or abort bounded, for
    /// unrecoverable plans). See [`FaultConfig`].
    pub faults: FaultConfig,
    /// Scripted elastic-membership plan (shard joins/leaves/restarts at
    /// logical iterations). Empty = fixed membership. Non-trivial plans
    /// exclude layer-granular (AdamSf) shards; workers are
    /// never elastic (the mesh stays `2P` endpoints), only KV ownership
    /// moves, so the elastic run is bitwise-identical to the fixed one.
    pub membership: crate::membership::MembershipPlan,
    /// First absolute iteration of this run segment. Non-zero requires
    /// [`RuntimeConfig::resume`] — parameters and optimizer state must come
    /// from the checkpoint for the segmented run to continue bitwise.
    pub start_iter: usize,
    /// Training state exported by a previous segment's `export_state` run.
    pub resume: Option<crate::checkpoint::TrainingCheckpoint>,
    /// Export the full training state (worker replicas + syncer stream
    /// state + shard masters) into [`TrainResult::checkpoint`].
    pub export_state: bool,
}

impl RuntimeConfig {
    /// A reasonable default: hybrid policy, 2 MB KV pairs, no evaluation.
    pub fn new(
        workers: usize,
        batch_per_worker: usize,
        learning_rate: f32,
        iterations: usize,
    ) -> Self {
        Self {
            workers,
            batch_per_worker,
            learning_rate,
            momentum: 0.0,
            lr_schedule: LrSchedule::Constant,
            policy: SchemePolicy::Hybrid,
            codec: CodecPolicy::Identity,
            partition: Partition::default_kv_pairs(),
            iterations,
            eval_every: 0,
            straggler_delay_ms: None,
            compute: ComputeConfig::default(),
            comm_timeout: Duration::from_secs(30),
            telemetry: TelemetryConfig::default(),
            faults: FaultConfig::default(),
            membership: crate::membership::MembershipPlan::empty(),
            start_iter: 0,
            resume: None,
            export_state: false,
        }
    }
}

/// The result of a distributed training run.
pub struct TrainResult<M: Model> {
    /// Mean training loss per iteration, averaged over workers.
    pub losses: Vec<f32>,
    /// `(iteration, top-1 error)` samples from worker 0 on the eval set.
    pub test_errors: Vec<(usize, f32)>,
    /// Worker 0's final replica (every replica ends bitwise identical).
    pub net: M,
    /// Per-node traffic counters for the whole run.
    pub traffic: Arc<TrafficCounters>,
    /// The scheme the coordinator chose per trainable layer.
    pub schemes: Vec<(usize, CommScheme)>,
    /// The gradient codec the coordinator chose per trainable layer.
    pub codecs: Vec<(usize, Codec)>,
    /// Everything the telemetry recorder captured, when
    /// [`RuntimeConfig::telemetry`] was enabled (`None` otherwise). Export
    /// with [`crate::telemetry::chrome::to_chrome_json`] or summarise with
    /// [`crate::telemetry::report::summarize`].
    pub trace: Option<telemetry::Trace>,
    /// What the chaos plane did, when [`RuntimeConfig::faults`] was active
    /// (`None` otherwise): the fired fault events and the summed recovery
    /// work of every endpoint's reliability layer.
    pub fault_report: Option<ChaosReport>,
    /// Per-worker health verdicts: each worker's busy-time p50 judged
    /// against the mesh median at
    /// [`DEFAULT_STRAGGLER_FACTOR`](crate::health::DEFAULT_STRAGGLER_FACTOR).
    /// The p50s are recorded run-locally, so the verdicts come with the
    /// global metrics gate off too and never perturb numerics.
    pub health: crate::health::HealthReport,
    /// Full training state at `start_iter + iterations`, when
    /// [`RuntimeConfig::export_state`] was set (`None` otherwise). Feed it
    /// to a later segment's [`RuntimeConfig::resume`] to continue the run
    /// bitwise-identically.
    pub checkpoint: Option<crate::checkpoint::TrainingCheckpoint>,
}

/// Everything derived from the model + config that every participant (worker
/// or shard, in-process or remote) must agree on — the one thing both entry
/// points execute. What an endpoint needs beyond it, it reads from `cfg`.
pub(crate) struct RunPlan<'a> {
    pub cfg: &'a RuntimeConfig,
    pub coordinator: Coordinator,
    /// The resolved membership schedule every participant routes by.
    pub schedule: Arc<MembershipSchedule>,
}

impl RunPlan<'_> {
    /// `-learning_rate / P · lr multiplier`: the f32 product a gradient of
    /// iteration `iter` is scaled by — on the PS shard, and client-side by
    /// the schemes that fold without one.
    pub fn scale_at(&self, iter: usize) -> f32 {
        let update_scale = -self.cfg.learning_rate / self.cfg.workers as f32;
        update_scale * self.cfg.lr_schedule.multiplier(iter)
    }
}

/// Transmits one frame a worker's syncer or a shard handed out, or panics
/// naming the broken link: a worker id is its endpoint, a shard id whichever
/// endpoint owns that shard's pairs at `epoch`.
fn route<T: Transport>(run: &RunPlan<'_>, endpoint: &T, epoch: u32, to: Dest, msg: Message) {
    let to = match to {
        Dest::Worker(worker) => worker,
        Dest::Shard(shard) => run.cfg.workers + run.schedule.owner(shard, epoch),
    };
    let me = endpoint.endpoint_id();
    endpoint
        .send(to, msg)
        .unwrap_or_else(|e| panic!("endpoint {me}: send to endpoint {to} failed: {e}"));
}

/// Builds the shared run plan deterministically from the reference replica.
pub(crate) fn build_run_plan<'a, M: Model>(reference: &M, cfg: &'a RuntimeConfig) -> RunPlan<'a> {
    let p = cfg.workers;
    let cluster = ClusterConfig::colocated(p, cfg.batch_per_worker);
    let coordinator = Coordinator::from_model(reference, cluster, cfg.policy, cfg.partition)
        .with_codec_policy(cfg.codec);
    let schedule = MembershipSchedule::resolve(&cfg.membership, p)
        .unwrap_or_else(|e| panic!("invalid membership plan: {e}"));
    assert!(
        cfg.start_iter == 0 || cfg.resume.is_some(),
        "a mid-run segment (start_iter > 0) must resume from a checkpoint"
    );

    RunPlan {
        cfg,
        coordinator,
        schedule,
    }
}

/// Trains `net_factory()`-built replicas on `data` across threads.
///
/// `net_factory` must be deterministic — every endpoint builds its model from
/// it and the replicas must start identical (same seed). The training set is
/// partitioned into `workers` contiguous shards; `eval` (if any) is scored by
/// worker 0 every [`RuntimeConfig::eval_every`] iterations.
///
/// # Panics
///
/// Panics if the configuration is degenerate (zero workers/iterations) or the
/// dataset is smaller than the worker count.
pub fn train<M: Model>(
    net_factory: &(dyn Fn() -> M + Sync),
    data: &Dataset,
    eval: Option<&Dataset>,
    cfg: &RuntimeConfig,
) -> TrainResult<M> {
    assert!(cfg.workers > 0, "need at least one worker");
    assert!(cfg.iterations > 0, "need at least one iteration");
    let p = cfg.workers;
    telemetry::configure(&cfg.telemetry);
    let run = &build_run_plan(&net_factory(), cfg);

    // Endpoints 0..P are workers on nodes 0..P; endpoints P..2P are shards
    // colocated on the same nodes.
    let node_ids: Vec<usize> = (0..p).chain(0..p).collect();
    let (endpoints, traffic) = transport::fabric_with_nodes(&node_ids);
    let outcomes: Vec<NodeOutcome<M>> = std::thread::scope(|scope| {
        let handles: Vec<_> = endpoints
            .into_iter()
            .map(|endpoint| {
                scope.spawn(move || node::run_node(run, net_factory(), data, eval, endpoint))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("endpoint thread panicked"))
            .collect()
    });

    // Every endpoint is joined, so every recording thread has flushed;
    // collect the trace before anything else runs in this process.
    let trace = cfg.telemetry.enabled.then(|| {
        telemetry::disable();
        telemetry::drain()
    });

    let mut fault_report = cfg.faults.active().then(ChaosReport::default);
    let (mut worker_losses, mut busy_p50) = (Vec::new(), Vec::new());
    let (mut first, mut worker_states, mut shard_states) = (None, Vec::new(), Vec::new());
    for outcome in outcomes {
        let chaos = match outcome {
            NodeOutcome::Worker {
                losses,
                test_errors,
                net,
                busy_p50_ns,
                checkpoint: state,
                chaos,
            } => {
                // Health verdicts come from each worker's run-local busy
                // histogram — immune to the global metrics gate and to
                // whatever earlier runs left in the process-global registry.
                busy_p50.push((worker_losses.len(), busy_p50_ns));
                worker_losses.push(losses);
                first.get_or_insert((test_errors, net));
                worker_states.extend(state);
                chaos
            }
            NodeOutcome::Server {
                checkpoint: state,
                chaos,
            } => {
                shard_states.extend(state);
                chaos
            }
        };
        if let Some(report) = fault_report.as_mut() {
            report.absorb(chaos.expect("the chaos plane reports from every endpoint"));
        }
    }
    let losses = (0..cfg.iterations)
        .map(|i| worker_losses.iter().map(|l| l[i]).sum::<f32>() / p as f32)
        .collect();
    let (test_errors, net) = first.expect("worker 0 ran");

    TrainResult {
        losses,
        test_errors,
        net,
        traffic,
        schemes: run.coordinator.scheme_assignment(),
        codecs: run.coordinator.codec_assignment(),
        trace,
        fault_report,
        health: crate::health::detect(&busy_p50, crate::health::DEFAULT_STRAGGLER_FACTOR),
        checkpoint: cfg.export_state.then(|| TrainingCheckpoint {
            next_iter: (cfg.start_iter + cfg.iterations) as u64,
            workers: worker_states,
            shards: shard_states,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poseidon_nn::layer::TensorShape;
    use poseidon_nn::presets;
    use poseidon_nn::Network;

    fn dataset() -> Dataset {
        Dataset::gaussian_clusters(TensorShape::flat(8), 3, 64, 0.3, 7)
    }

    fn factory() -> Network {
        presets::mlp(&[8, 12, 3], 99)
    }

    /// Single-node large-batch SGD reference trajectory.
    fn serial_train(iters: usize, batch: usize, lr: f32) -> Network {
        let data = dataset();
        let mut net = factory();
        let head = poseidon_nn::loss::SoftmaxCrossEntropy;
        for it in 0..iters {
            let (x, y) = data.minibatch(it * batch, batch);
            let logits = net.forward(&x);
            let out = head.evaluate(&logits, &y);
            net.backward(&out.grad);
            net.apply_own_grads(-lr);
        }
        net
    }

    fn distributed(policy: SchemePolicy, workers: usize) -> TrainResult<Network> {
        let cfg = RuntimeConfig {
            policy,
            partition: Partition::KvPairs { pair_elems: 50 },
            ..RuntimeConfig::new(workers, 8, 0.2, 5)
        };
        train(&factory, &dataset(), None, &cfg)
    }

    /// The headline correctness property: P workers over disjoint shards with
    /// gradient averaging produce (nearly) the same parameters as one worker
    /// on the concatenated batch — for the PS path.
    ///
    /// Exact equality does not hold because the data shards differ from the
    /// serial minibatch windows; instead we check the *protocol* by running
    /// distributed with 1 worker, which must match serial exactly.
    #[test]
    fn single_worker_distributed_equals_serial() {
        let result = distributed(SchemePolicy::AlwaysPs, 1);
        let serial = serial_train(5, 8, 0.2);
        assert!(
            result.net.max_param_diff(&serial) < 1e-6,
            "diff {}",
            result.net.max_param_diff(&serial)
        );
        // One colocated node: zero network traffic.
        assert_eq!(result.traffic.total_bytes(), 0);
    }

    #[test]
    fn ps_and_sfb_agree() {
        let ps = distributed(SchemePolicy::AlwaysPs, 4);
        let sfb = distributed(SchemePolicy::AlwaysSfbForFc, 4);
        let diff = ps.net.max_param_diff(&sfb.net);
        assert!(diff < 1e-4, "PS and SFB trajectories diverged by {diff}");
        // And SFB on this small model moves fewer bytes than... not
        // necessarily; just check both actually trained.
        assert!(ps.losses[4] < ps.losses[0]);
        assert!(sfb.traffic.total_bytes() > 0);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = distributed(SchemePolicy::Hybrid, 3);
        let b = distributed(SchemePolicy::Hybrid, 3);
        assert_eq!(
            a.net.max_param_diff(&b.net),
            0.0,
            "BSP runs must be bitwise identical"
        );
        assert_eq!(a.losses, b.losses);
    }

    #[test]
    fn adam_strategy_trains() {
        let r = distributed(SchemePolicy::AdamSf, 2);
        assert!(r.losses[4] < r.losses[0], "losses {:?}", r.losses);
        // Adam matches the exact schemes' trajectory (it is exact too).
        let ps = distributed(SchemePolicy::AlwaysPs, 2);
        assert!(r.net.max_param_diff(&ps.net) < 1e-4);
    }

    #[test]
    fn one_bit_trains_but_differs() {
        let r = distributed(SchemePolicy::OneBit, 2);
        assert!(r.losses[4] < r.losses[0] * 1.5, "1-bit should still learn");
        // The named baseline is PS scheme + OneBit codec on FC layers.
        assert!(r.schemes.iter().all(|&(_, s)| s == CommScheme::Ps));
        assert!(r.codecs.iter().all(|&(_, c)| c == Codec::OneBit));
        let ps = distributed(SchemePolicy::AlwaysPs, 2);
        assert!(
            r.net.max_param_diff(&ps.net) > 1e-6,
            "1-bit is lossy and must not match the exact trajectory"
        );
    }

    #[test]
    fn explicit_identity_codec_matches_default_bitwise() {
        let base = distributed(SchemePolicy::Hybrid, 3);
        let cfg = RuntimeConfig {
            policy: SchemePolicy::Hybrid,
            codec: CodecPolicy::Always(Codec::Identity),
            partition: Partition::KvPairs { pair_elems: 50 },
            ..RuntimeConfig::new(3, 8, 0.2, 5)
        };
        let explicit = train(&factory, &dataset(), None, &cfg);
        assert_eq!(
            base.net.max_param_diff(&explicit.net),
            0.0,
            "explicit identity codec must be bitwise identical to the default"
        );
        assert_eq!(base.losses, explicit.losses);
        assert!(explicit.codecs.iter().all(|&(_, c)| c == Codec::Identity));
    }

    fn ps_with_codec(codec: Codec) -> TrainResult<Network> {
        let cfg = RuntimeConfig {
            policy: SchemePolicy::AlwaysPs,
            codec: CodecPolicy::Always(codec),
            partition: Partition::KvPairs { pair_elems: 50 },
            ..RuntimeConfig::new(3, 8, 0.2, 5)
        };
        train(&factory, &dataset(), None, &cfg)
    }

    #[test]
    fn lossy_ps_codecs_cut_traffic_and_stay_deterministic() {
        let identity = distributed(SchemePolicy::AlwaysPs, 3);
        let a = ps_with_codec(Codec::OneBit);
        assert!(
            a.losses.iter().all(|l| l.is_finite()),
            "onebit: non-finite loss"
        );
        assert!(
            a.traffic.total_bytes() < identity.traffic.total_bytes(),
            "onebit moved {} bytes, identity moved {}",
            a.traffic.total_bytes(),
            identity.traffic.total_bytes()
        );
        let b = ps_with_codec(Codec::OneBit);
        assert_eq!(
            a.net.max_param_diff(&b.net),
            0.0,
            "onebit: lossy BSP runs must be bitwise reproducible"
        );
        assert_eq!(a.losses, b.losses);
    }

    #[test]
    fn lossy_collectives_train_and_are_reproducible() {
        let mk = || {
            let cfg = RuntimeConfig {
                policy: SchemePolicy::AlwaysRing,
                codec: CodecPolicy::Always(Codec::OneBit),
                partition: Partition::KvPairs { pair_elems: 50 },
                ..RuntimeConfig::new(3, 8, 0.2, 5)
            };
            train(&factory, &dataset(), None, &cfg)
        };
        let a = mk();
        let b = mk();
        assert_eq!(
            a.net.max_param_diff(&b.net),
            0.0,
            "lossy ring runs must be bitwise reproducible"
        );
        assert_eq!(a.losses, b.losses);
        assert!(a.losses.iter().all(|l| l.is_finite()));
        assert!(a.codecs.iter().all(|&(_, c)| c == Codec::OneBit));
        let identity = distributed(SchemePolicy::AlwaysRing, 3);
        assert!(
            a.traffic.total_bytes() < identity.traffic.total_bytes(),
            "1-bit ring moved {} bytes, identity moved {}",
            a.traffic.total_bytes(),
            identity.traffic.total_bytes()
        );
    }

    /// The mixed-codec mesh: conv layers ride identity while FC layers ride
    /// 1-bit (the `OneBit` policy), in the same run, against the same shards —
    /// and the ledger shows the traffic reduction.
    #[test]
    fn mixed_codec_mesh_trains_with_reduced_traffic() {
        use poseidon_nn::layer::TensorShape;
        let shape = TensorShape::new(3, 8, 8);
        let conv_factory = move || presets::cifar_quick_scaled(shape, 4, 3, 42);
        let data = Dataset::gaussian_clusters(shape, 3, 32, 0.3, 11);
        let mk = |codec_policy| {
            let cfg = RuntimeConfig {
                policy: SchemePolicy::OneBit,
                codec: codec_policy,
                partition: Partition::KvPairs { pair_elems: 100 },
                ..RuntimeConfig::new(2, 4, 0.05, 3)
            };
            train(&conv_factory, &data, None, &cfg)
        };
        let mixed = mk(CodecPolicy::Identity);
        // The OneBit policy puts the codec on FC layers only; conv stays raw.
        assert!(mixed.codecs.iter().any(|&(_, c)| c == Codec::OneBit));
        assert!(mixed.codecs.iter().any(|&(_, c)| c == Codec::Identity));
        assert!(mixed.losses.iter().all(|l| l.is_finite()));
        let raw_cfg = RuntimeConfig {
            policy: SchemePolicy::AlwaysPs,
            partition: Partition::KvPairs { pair_elems: 100 },
            ..RuntimeConfig::new(2, 4, 0.05, 3)
        };
        let raw = train(&conv_factory, &data, None, &raw_cfg);
        assert!(
            mixed.traffic.total_bytes() < raw.traffic.total_bytes(),
            "mixed mesh moved {} bytes, raw PS moved {}",
            mixed.traffic.total_bytes(),
            raw.traffic.total_bytes()
        );
    }

    /// Inverse of [`flatten_model_params`]: writes a canonical flat back into
    /// a structurally identical model.
    fn install_model_params<M: Model>(net: &mut M, flat: &[f32]) {
        let mut off = 0;
        for slot in 0..net.num_slots() {
            if let Some(params) = net.slot_mut(slot).and_then(|l| l.params_mut()) {
                let n = params.num_params();
                assert!(off + n <= flat.len(), "flat parameter vector too short");
                crate::syncer::write_params_flat(params, &flat[off..off + n]);
                off += n;
            }
        }
        assert_eq!(off, flat.len(), "flat parameter vector too long");
    }

    /// Satellite regression: a gradient frame whose payload fails codec
    /// decode must be counted and dropped — never `expect`-abort the shard.
    #[test]
    fn poisoned_grad_frame_is_counted_and_skipped() {
        use crate::transport::Message;
        // One shard holding one four-element pair, [1, 2, 3, 4]: the whole
        // of a 3 → 1 FC layer, served with update scale −1.
        let factory = || {
            let mut net = presets::mlp(&[3, 1], 1);
            install_model_params(&mut net, &[1.0, 2.0, 3.0, 4.0]);
            net
        };
        let cfg = RuntimeConfig {
            policy: SchemePolicy::AlwaysPs,
            partition: Partition::KvPairs { pair_elems: 4 },
            comm_timeout: Duration::from_secs(10),
            ..RuntimeConfig::new(1, 1, 1.0, 1)
        };
        let data = Dataset::gaussian_clusters(TensorShape::flat(3), 2, 4, 0.3, 1);
        let (mut eps, _traffic) = transport::fabric_with_nodes(&[0, 0]);
        let server_ep = eps.pop().expect("server endpoint");
        let mut worker_ep = eps.pop().expect("worker endpoint");
        let before = poisoned_frames();
        std::thread::scope(|scope| {
            let h = scope.spawn(|| run_endpoint(&factory, &data, None, &cfg, server_ep));
            // Truncated payload: three f32s where the chunk expects four.
            worker_ep
                .send(
                    1,
                    Message::GradChunk {
                        iter: 0,
                        layer: 0,
                        chunk: 0,
                        codec: Codec::Identity,
                        data: crate::wire::encode_f32s(&[9.0, 9.0, 9.0]),
                    },
                )
                .expect("send corrupt frame");
            // The real push; the shard must still be alive to fold it.
            worker_ep
                .send(
                    1,
                    Message::GradChunk {
                        iter: 0,
                        layer: 0,
                        chunk: 0,
                        codec: Codec::Identity,
                        data: crate::wire::encode_f32s(&[0.5; 4]),
                    },
                )
                .expect("send valid frame");
            let env = worker_ep
                .recv_timeout(Duration::from_secs(10))
                .expect("fresh params after the poisoned frame was dropped");
            match env.msg {
                Message::ParamChunk { data, .. } => {
                    let params = crate::wire::decode_f32s(&data).expect("valid reply");
                    // θ += update_scale · grad = θ − 0.5.
                    assert_eq!(params, vec![0.5, 1.5, 2.5, 3.5]);
                }
                other => panic!("expected fresh params, got {other:?}"),
            }
            worker_ep.shutdown().expect("worker endpoint shutdown");
            h.join().expect("shard must survive the poisoned frame");
        });
        assert!(
            poisoned_frames() > before,
            "the poisoned frame must be counted"
        );
    }

    #[test]
    fn distributed_momentum_equals_serial_momentum_sgd() {
        // Serial reference: Sgd optimiser with momentum on the same global
        // batch stream (1 worker so the shard streams are identical).
        use poseidon_nn::sgd::{Sgd, SgdConfig};
        let data = dataset();
        let mut serial = factory();
        let mut opt = Sgd::new(
            &serial,
            SgdConfig {
                learning_rate: 0.1,
                momentum: 0.9,
                weight_decay: 0.0,
            },
        );
        let head = poseidon_nn::loss::SoftmaxCrossEntropy;
        for it in 0..6 {
            let (x, y) = data.minibatch(it * 8, 8);
            let logits = serial.forward(&x);
            let out = head.evaluate(&logits, &y);
            serial.backward(&out.grad);
            opt.step(&mut serial);
        }

        let cfg = RuntimeConfig {
            momentum: 0.9,
            policy: SchemePolicy::AlwaysPs,
            ..RuntimeConfig::new(1, 8, 0.1, 6)
        };
        let dist = train(&factory, &dataset(), None, &cfg);
        let diff = dist.net.max_param_diff(&serial);
        assert!(
            diff < 1e-5,
            "server-side momentum diverged from Sgd: {diff}"
        );
    }

    #[test]
    fn momentum_agrees_across_schemes() {
        let mk = |policy| {
            let cfg = RuntimeConfig {
                momentum: 0.9,
                policy,
                partition: Partition::KvPairs { pair_elems: 50 },
                ..RuntimeConfig::new(4, 8, 0.1, 6)
            };
            train(&factory, &dataset(), None, &cfg)
        };
        let ps = mk(SchemePolicy::AlwaysPs);
        let sfb = mk(SchemePolicy::AlwaysSfbForFc);
        let adam = mk(SchemePolicy::AdamSf);
        assert!(
            ps.net.max_param_diff(&sfb.net) < 1e-4,
            "PS vs SFB with momentum"
        );
        assert!(
            ps.net.max_param_diff(&adam.net) < 1e-4,
            "PS vs Adam with momentum"
        );
        // Momentum changes the trajectory relative to plain SGD.
        let plain = distributed(SchemePolicy::AlwaysPs, 4);
        assert!(ps.net.max_param_diff(&plain.net) > 1e-6);
    }

    #[test]
    fn lr_schedule_matches_serial_decayed_sgd() {
        use poseidon_nn::sgd::{Sgd, SgdConfig};
        let data = dataset();
        let mut serial = factory();
        let mut opt = Sgd::new(
            &serial,
            SgdConfig {
                learning_rate: 0.2,
                momentum: 0.9,
                weight_decay: 0.0,
            },
        );
        let head = poseidon_nn::loss::SoftmaxCrossEntropy;
        for it in 0..8 {
            // Step decay: x0.5 every 3 iterations.
            opt.set_learning_rate(0.2 * 0.5f32.powi((it / 3) as i32));
            let (x, y) = data.minibatch(it * 8, 8);
            let logits = serial.forward(&x);
            let out = head.evaluate(&logits, &y);
            serial.backward(&out.grad);
            opt.step(&mut serial);
        }

        let cfg = RuntimeConfig {
            momentum: 0.9,
            lr_schedule: LrSchedule::Step {
                every: 3,
                factor: 0.5,
            },
            policy: SchemePolicy::AlwaysPs,
            ..RuntimeConfig::new(1, 8, 0.2, 8)
        };
        let dist = train(&factory, &dataset(), None, &cfg);
        let diff = dist.net.max_param_diff(&serial);
        assert!(
            diff < 1e-5,
            "scheduled distributed SGD diverged from serial: {diff}"
        );
    }

    #[test]
    fn lr_schedule_multiplier_steps() {
        let s = LrSchedule::Step {
            every: 100,
            factor: 0.1,
        };
        assert_eq!(s.multiplier(0), 1.0);
        assert_eq!(s.multiplier(99), 1.0);
        assert!((s.multiplier(100) - 0.1).abs() < 1e-9);
        assert!((s.multiplier(250) - 0.01).abs() < 1e-9);
        assert_eq!(LrSchedule::Constant.multiplier(1_000_000), 1.0);
    }

    #[test]
    fn scheduled_runs_agree_across_schemes() {
        let mk = |policy| {
            let cfg = RuntimeConfig {
                momentum: 0.5,
                lr_schedule: LrSchedule::Step {
                    every: 2,
                    factor: 0.7,
                },
                policy,
                partition: Partition::KvPairs { pair_elems: 50 },
                ..RuntimeConfig::new(3, 8, 0.15, 6)
            };
            train(&factory, &dataset(), None, &cfg)
        };
        let ps = mk(SchemePolicy::AlwaysPs);
        let sfb = mk(SchemePolicy::AlwaysSfbForFc);
        assert!(ps.net.max_param_diff(&sfb.net) < 1e-4);
    }

    #[test]
    fn ring_and_tree_match_ps_bitwise() {
        let ps = distributed(SchemePolicy::AlwaysPs, 4);
        let ring = distributed(SchemePolicy::AlwaysRing, 4);
        let tree = distributed(SchemePolicy::AlwaysTree, 4);
        assert_eq!(
            ps.net.max_param_diff(&ring.net),
            0.0,
            "ring must replicate the PS fold bitwise"
        );
        assert_eq!(
            ps.net.max_param_diff(&tree.net),
            0.0,
            "tree must replicate the PS fold bitwise"
        );
        assert_eq!(ps.losses, ring.losses);
        assert_eq!(ps.losses, tree.losses);
        assert!(ring.schemes.iter().all(|&(_, s)| s == CommScheme::Ring));
        assert!(tree.schemes.iter().all(|&(_, s)| s == CommScheme::Tree));
        assert!(
            ring.traffic.total_bytes() > 0,
            "collectives move real bytes"
        );
    }

    #[test]
    fn collectives_match_ps_with_momentum_and_schedule() {
        let mk = |policy| {
            let cfg = RuntimeConfig {
                momentum: 0.9,
                lr_schedule: LrSchedule::Step {
                    every: 2,
                    factor: 0.5,
                },
                policy,
                partition: Partition::KvPairs { pair_elems: 50 },
                ..RuntimeConfig::new(3, 8, 0.1, 6)
            };
            train(&factory, &dataset(), None, &cfg)
        };
        let ps = mk(SchemePolicy::AlwaysPs);
        let ring = mk(SchemePolicy::AlwaysRing);
        let tree = mk(SchemePolicy::AlwaysTree);
        assert_eq!(
            ps.net.max_param_diff(&ring.net),
            0.0,
            "ring diverged under momentum + LR schedule"
        );
        assert_eq!(
            ps.net.max_param_diff(&tree.net),
            0.0,
            "tree diverged under momentum + LR schedule"
        );
    }

    #[test]
    fn single_worker_collective_reduces_to_ps() {
        let ring = distributed(SchemePolicy::AlwaysRing, 1);
        let serial = serial_train(5, 8, 0.2);
        assert!(ring.net.max_param_diff(&serial) < 1e-6);
        assert!(ring.schemes.iter().all(|&(_, s)| s == CommScheme::Ps));
    }

    /// Satellite regression: one worker starts late every iteration, so its
    /// peers run ahead and their collective frames for a future iteration
    /// arrive early — those must be stashed and replayed in arrival order,
    /// never dropped, and the trajectory must stay bitwise identical.
    #[test]
    fn collectives_survive_skewed_start() {
        let skewed = |policy| {
            let cfg = RuntimeConfig {
                policy,
                partition: Partition::KvPairs { pair_elems: 50 },
                straggler_delay_ms: Some((1, 5)),
                ..RuntimeConfig::new(3, 8, 0.2, 5)
            };
            train(&factory, &dataset(), None, &cfg)
        };
        let ps = distributed(SchemePolicy::AlwaysPs, 3);
        let ring = skewed(SchemePolicy::AlwaysRing);
        let tree = skewed(SchemePolicy::AlwaysTree);
        assert_eq!(
            ps.net.max_param_diff(&ring.net),
            0.0,
            "skewed ring run diverged"
        );
        assert_eq!(
            ps.net.max_param_diff(&tree.net),
            0.0,
            "skewed tree run diverged"
        );
    }

    /// The health plane names the delayed worker: a scripted straggler must
    /// come back flagged in `TrainResult::health`, and a clean mesh must not
    /// flag anyone.
    #[test]
    fn health_verdict_names_the_straggler() {
        let cfg = RuntimeConfig {
            partition: Partition::KvPairs { pair_elems: 50 },
            straggler_delay_ms: Some((1, 20)),
            ..RuntimeConfig::new(3, 8, 0.2, 4)
        };
        let result = train(&factory, &dataset(), None, &cfg);
        assert_eq!(result.health.verdicts.len(), 3);
        assert!(
            result.health.stragglers().contains(&1),
            "expected worker 1 flagged: {}",
            result.health.render()
        );

        // Clean-mesh check at a generous factor: busy times here are
        // sub-millisecond, where CPU contention from the parallel test
        // harness adds real skew — only pathological spread may flag. The
        // run's p50s are judged again at 16x.
        let clean_cfg = RuntimeConfig {
            partition: Partition::KvPairs { pair_elems: 50 },
            ..RuntimeConfig::new(3, 8, 0.2, 4)
        };
        let clean = train(&factory, &dataset(), None, &clean_cfg);
        let busy: Vec<(usize, u64)> = clean
            .health
            .verdicts
            .iter()
            .map(|v| (v.worker, v.busy_p50_ns))
            .collect();
        let clean = crate::health::detect(&busy, 16.0);
        assert!(
            clean.stragglers().is_empty(),
            "clean mesh flagged a straggler at 16x: {}",
            clean.render()
        );
    }

    #[test]
    fn topo_aware_policy_trains_exactly() {
        use poseidon_netsim::LinkConfig;
        // Whatever mix of PS/SFB/ring/tree the topology-aware pricer picks,
        // every scheme in the mix is exact, so the trajectory must match PS.
        let topo = crate::config::Topology::two_level(
            3,
            1,
            LinkConfig {
                bandwidth_gbps: 100.0,
                latency_s: 1e-6,
            },
            LinkConfig {
                bandwidth_gbps: 10.0,
                latency_s: 50e-6,
            },
            4.0,
        );
        let cfg = RuntimeConfig {
            policy: SchemePolicy::TopoAware(topo),
            partition: Partition::KvPairs { pair_elems: 50 },
            ..RuntimeConfig::new(3, 8, 0.2, 5)
        };
        let mixed = train(&factory, &dataset(), None, &cfg);
        let ps = distributed(SchemePolicy::AlwaysPs, 3);
        let diff = ps.net.max_param_diff(&mixed.net);
        if mixed.schemes.iter().any(|&(_, s)| s == CommScheme::Sfb) {
            // SFB reconstructs the dense gradient worker-side — exact but not
            // bitwise against the server fold (same bound as ps_and_sfb_agree).
            assert!(diff < 1e-4, "topology-aware mix diverged from PS: {diff}");
        } else {
            assert_eq!(diff, 0.0, "topology-aware mix diverged from PS");
        }
    }

    #[test]
    fn eval_hook_reports_errors() {
        let cfg = RuntimeConfig {
            eval_every: 2,
            ..RuntimeConfig::new(2, 8, 0.2, 6)
        };
        let eval = dataset();
        let r = train(&factory, &dataset(), Some(&eval), &cfg);
        assert_eq!(r.test_errors.len(), 3);
        assert_eq!(r.test_errors[0].0, 2);
        assert!(r.test_errors.iter().all(|&(_, e)| (0.0..=1.0).contains(&e)));
    }
}
