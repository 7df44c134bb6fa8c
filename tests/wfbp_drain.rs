//! Wait-free backpropagation, the receive half: a worker drains its endpoint
//! between the layers of backward, so replies land in the replica, factors
//! are applied and collective frames hop on while the layers below still
//! compute. Which frame is handled where — inside backward or in the blocking
//! tail after it — is decided by arrival times and must not decide a single
//! bit:
//!
//! * a run whose endpoints never yield a frame without blocking (everything
//!   goes through the tail, as before the drain existed) ends on the same
//!   replicas as a run that drains, and the always-on counter
//!   `poseidon_wfbp_drained_frames_total` tells the two apart;
//! * a neighbour that is ahead delivers a ring or tree REDUCE before the
//!   local `Send` of that layer has fired; the frame is parked and replayed
//!   after it, and the run stays bitwise equal to the parameter-server run.
//!
//! All through public API, over the in-process fabric and a TCP loopback
//! mesh, every endpoint a thread of this process.

use poseidon::config::{ClusterConfig, CommScheme, Partition, SchemePolicy};
use poseidon::coordinator::Coordinator;
use poseidon::runtime::{flatten_model_params, run_endpoint, train, NodeOutcome, RuntimeConfig};
use poseidon::transport::{
    bind_ephemeral, fabric_with_nodes, Envelope, Message, TcpFabricSpec, TcpTransport,
    TrafficCounters, Transport, TransportError,
};
use poseidon_nn::data::Dataset;
use poseidon_nn::layer::TensorShape;
use poseidon_nn::presets;
use poseidon_nn::Network;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

const BATCH: usize = 8;
const ITERS: usize = 5;
const LR: f32 = 0.15;

fn dataset() -> Dataset {
    Dataset::gaussian_clusters(TensorShape::flat(12), 4, 96, 0.4, 21)
}

/// Wide enough below and narrow enough on top that `Hybrid` sends the two
/// lower FC layers as sufficient factors and the top one through the
/// parameter server.
fn factory() -> Network {
    presets::mlp(&[12, 64, 32, 4], 5)
}

fn config(policy: SchemePolicy, workers: usize) -> RuntimeConfig {
    RuntimeConfig {
        policy,
        momentum: 0.9,
        partition: Partition::KvPairs { pair_elems: 37 },
        comm_timeout: Duration::from_secs(60),
        ..RuntimeConfig::new(workers, BATCH, LR, ITERS)
    }
}

/// The drained-frames counter is process-global and read as a delta; every
/// test here moves it, so each takes this lock and the harness's parallel
/// test threads cannot interleave.
fn exclusive() -> MutexGuard<'static, ()> {
    static GLOBALS: Mutex<()> = Mutex::new(());
    GLOBALS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Frames dispatched from inside backward so far, over all workers.
fn drained_frames(workers: usize) -> u64 {
    let snap = poseidon::metrics::snapshot();
    (0..workers)
        .map(|w| {
            snap.value(
                "poseidon_wfbp_drained_frames_total",
                &[("worker", w.to_string().as_str())],
            )
            .unwrap_or(0)
        })
        .sum()
}

/// An endpoint that never has a frame ready without blocking: whoever drives
/// it receives everything through its blocking path.
struct TailOnly<T>(T);

impl<T: Transport> Transport for TailOnly<T> {
    fn node(&self) -> usize {
        self.0.node()
    }
    fn endpoint_id(&self) -> usize {
        self.0.endpoint_id()
    }
    fn endpoints(&self) -> usize {
        self.0.endpoints()
    }
    fn traffic(&self) -> &Arc<TrafficCounters> {
        self.0.traffic()
    }
    fn send_seq(&self, to: usize, msg: Message, seq: u32) -> Result<(), TransportError> {
        self.0.send_seq(to, msg, seq)
    }
    fn recv(&self) -> Result<Envelope, TransportError> {
        self.0.recv()
    }
    fn try_recv(&self) -> Result<Option<Envelope>, TransportError> {
        Ok(None)
    }
    fn recv_timeout(&self, timeout: Duration) -> Result<Envelope, TransportError> {
        self.0.recv_timeout(timeout)
    }
    fn set_epoch(&self, epoch: u32) {
        self.0.set_epoch(epoch)
    }
    fn current_epoch(&self) -> u32 {
        self.0.current_epoch()
    }
    fn shutdown(&mut self) -> Result<(), TransportError> {
        self.0.shutdown()
    }
}

/// Runs every endpoint of a `2P` mesh as a thread; worker replicas come back
/// in worker order.
fn run_mesh<T: Transport + 'static>(endpoints: Vec<T>, cfg: &RuntimeConfig) -> Vec<Network> {
    let data = dataset();
    let outcomes: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = endpoints
            .into_iter()
            .map(|ep| {
                let data = &data;
                s.spawn(move || run_endpoint(&factory, data, None, cfg, ep))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("endpoint thread"))
            .collect()
    });
    let nets: Vec<Network> = outcomes
        .into_iter()
        .filter_map(|outcome| match outcome {
            NodeOutcome::Worker { net, .. } => Some(net),
            NodeOutcome::Server { .. } => None,
        })
        .collect();
    assert_eq!(nets.len(), cfg.workers, "endpoints 0..P are the workers");
    nets
}

fn inproc_mesh(workers: usize) -> Vec<impl Transport + 'static> {
    let nodes: Vec<usize> = (0..workers).chain(0..workers).collect();
    fabric_with_nodes(&nodes).0
}

fn tcp_mesh(workers: usize) -> Vec<TcpTransport> {
    let (listeners, addrs) = bind_ephemeral(2 * workers).expect("bind");
    let spec = TcpFabricSpec {
        addrs,
        node_of_endpoint: (0..workers).chain(0..workers).collect(),
        connect_timeout: Duration::from_secs(10),
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(50),
        reconnect_timeout: Duration::from_secs(5),
    };
    let counters = Arc::new(TrafficCounters::new(workers));
    // Every endpoint dials every other while accepting: connect them all at
    // once.
    std::thread::scope(|s| {
        let handles: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(me, listener)| {
                let (spec, counters) = (&spec, Arc::clone(&counters));
                s.spawn(move || {
                    TcpTransport::connect_with_listener(spec, me, listener, Some(counters))
                        .expect("mesh connect")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connect thread"))
            .collect()
    })
}

fn assert_replicas_equal(nets: &[Network], want: &[f32], what: &str) {
    for (w, net) in nets.iter().enumerate() {
        let got = flatten_model_params(net);
        assert!(
            got.iter()
                .zip(want)
                .all(|(a, b)| a.to_bits() == b.to_bits())
                && got.len() == want.len(),
            "{what}: worker {w}'s replica differs"
        );
    }
}

/// A straggling worker wakes up to a queue of its neighbours' frames and
/// handles them between the layers of its backward pass; a mesh that can only
/// receive by blocking handles every frame in the tail. Same bits, and the
/// counter moves for the first and only for the first.
#[test]
fn draining_inside_backward_ends_on_the_tail_only_replicas() {
    let _globals = exclusive();
    let workers = 2;
    let hybrid: Vec<CommScheme> = Coordinator::from_model(
        &factory(),
        ClusterConfig::colocated(workers, BATCH),
        SchemePolicy::Hybrid,
        Partition::KvPairs { pair_elems: 37 },
    )
    .scheme_assignment()
    .into_iter()
    .map(|(_, scheme)| scheme)
    .collect();
    assert_eq!(
        hybrid,
        [CommScheme::Sfb, CommScheme::Sfb, CommScheme::Ps],
        "the hybrid run is meant to mix schemes"
    );
    for policy in [SchemePolicy::Hybrid, SchemePolicy::AlwaysRing] {
        let cfg = RuntimeConfig {
            straggler_delay_ms: Some((1, 15)),
            ..config(policy, workers)
        };
        for fabric in ["in-process", "tcp"] {
            let what = format!("{policy:?} over {fabric}");
            let before = drained_frames(workers);
            let tail_only = match fabric {
                "tcp" => run_mesh(tcp_mesh(workers).into_iter().map(TailOnly).collect(), &cfg),
                _ => run_mesh(
                    inproc_mesh(workers).into_iter().map(TailOnly).collect(),
                    &cfg,
                ),
            };
            assert_eq!(
                drained_frames(workers),
                before,
                "{what}: a mesh that never yields a frame without blocking drained one"
            );
            let drained = match fabric {
                "tcp" => run_mesh(tcp_mesh(workers), &cfg),
                _ => run_mesh(inproc_mesh(workers), &cfg),
            };
            assert!(
                drained_frames(workers) > before,
                "{what}: nothing was dispatched from inside backward"
            );
            let want = flatten_model_params(&tail_only[0]);
            assert_replicas_equal(&tail_only, &want, &format!("{what}, tail only"));
            assert_replicas_equal(&drained, &want, &format!("{what}, draining"));
        }
    }
}

/// The straggler is the *receiving* end of a REDUCE: ring worker `w` gets
/// worker `w − 1`'s partial sums, the tree's root its children's
/// contributions, for every layer, before its own backward has produced
/// anything. Parked and replayed, the collectives still replicate the
/// parameter-server fold bit for bit.
#[test]
fn a_reduce_that_beats_the_local_send_is_parked_and_replayed() {
    let _globals = exclusive();
    let workers = 3;
    let ps = train(
        &factory,
        &dataset(),
        None,
        &config(SchemePolicy::AlwaysPs, workers),
    );
    let want = flatten_model_params(&ps.net);
    let cases = [
        (SchemePolicy::AlwaysRing, 1),
        (SchemePolicy::AlwaysRing, 2),
        (SchemePolicy::AlwaysTree, 0),
    ];
    for (policy, receiver) in cases {
        let cfg = RuntimeConfig {
            straggler_delay_ms: Some((receiver, 15)),
            ..config(policy, workers)
        };
        let what = format!("{policy:?}, worker {receiver} straggling");
        let inproc = train(&factory, &dataset(), None, &cfg);
        assert_replicas_equal(
            std::slice::from_ref(&inproc.net),
            &want,
            &format!("{what}, in-process"),
        );
        assert_eq!(inproc.losses, ps.losses, "{what}: losses");
        let tcp = run_mesh(tcp_mesh(workers), &cfg);
        assert_replicas_equal(&tcp, &want, &format!("{what}, tcp"));
    }
}
