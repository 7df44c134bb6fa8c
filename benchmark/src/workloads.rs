//! The five workloads: what each trains (or simulates), on which scheme and
//! codec, and the helpers that run them through the program's public API.
//!
//! Every training workload is a closed loop under BSP: the training loop is
//! the load, `WORKERS` workers and as many colocated KV shards on one
//! evented-TCP loopback mesh, one compute thread per worker. Iteration
//! counts are a fixed function of `--seconds` — never adapted to elapsed
//! time — so a faster program finishes sooner instead of doing different
//! work.

use poseidon::config::{CodecPolicy, ComputeConfig, Partition, SchemePolicy};
use poseidon::runtime::{run_endpoint, NodeOutcome, RuntimeConfig};
use poseidon::telemetry::{self, TelemetryConfig};
use poseidon::transport::{bind_ephemeral, TcpFabricSpec, TcpTransport, TrafficCounters};
use poseidon_nn::data::Dataset;
use poseidon_nn::layer::{Layer, TensorShape};
use poseidon_nn::layers::{Conv2d, FullyConnected, MaxPool2d, ReLU};
use poseidon_nn::loss::SoftmaxCrossEntropy;
use poseidon_nn::{presets, Network};
use poseidon_tensor::compress::Codec;
use poseidon_tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Workers (and colocated shards) of every training workload.
pub const WORKERS: usize = 2;

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 5] = [
    "vgg_hybrid_tcp",
    "fc_ps_tcp",
    "fc_ps_onebit_tcp",
    "fc_ring_tcp",
    "sim_zoo32",
];

/// Feature widths of the FC-heavy model (~2.1 M parameters).
pub const MLP_SIZES: [usize; 5] = [512, 1024, 1024, 512, 16];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModelKind {
    /// `cifar_quick`'s conv stack (3×32×32 → 64×4×4) under FC
    /// 1024→1024→1024→10: compute-heavy bottom, parameter-heavy top, the
    /// shape of the paper's VGG19-22K.
    MiniVgg,
    /// `presets::mlp(MLP_SIZES)`: all parameters in FC layers.
    Mlp,
}

#[derive(Clone, Debug)]
pub struct TrainSpec {
    pub name: &'static str,
    pub model: ModelKind,
    pub policy: SchemePolicy,
    pub codec: CodecPolicy,
    /// Per-worker minibatch `K`.
    pub batch: usize,
    pub learning_rate: f32,
    /// Iterations of one measured run (one child process).
    pub iters: usize,
    /// Iterations of the warm-up prefix that is also checked bitwise against
    /// the in-process runtime and against serial SGD.
    pub prefix_iters: usize,
    /// Iterations of the traced run. Short on purpose: the program's trace
    /// validator is quadratic in the size of the trace (see README).
    pub traced_iters: usize,
}

#[derive(Clone, Debug)]
pub enum Workload {
    Train(TrainSpec),
    /// `sim::simulate` over the whole zoo × six systems × 32 nodes ×
    /// {10, 40} GbE, `passes` passes per measured run.
    SimZoo {
        passes: usize,
    },
}

/// `--seconds` the per-run sizes below were chosen for.
pub const DEFAULT_SECONDS: usize = 10;
/// Measured runs (child processes) per workload; each is a fifth of
/// `--seconds`.
pub const DEFAULT_REPEATS: usize = 5;

/// The workload named `name`, with measured runs sized for `seconds` of
/// measuring in total; `quick` shrinks it to smoke-test size instead.
pub fn workload(name: &str, seconds: usize, quick: bool) -> Option<Workload> {
    // `per_run` values were sized once on the 2-core reference host so that
    // one measured run lasts about 2 s at the default `--seconds`; see
    // README "Sizes". They scale with `--seconds` and with nothing else.
    let sized = |per_run: usize, smoke: usize| {
        if quick {
            smoke
        } else {
            (per_run * seconds / DEFAULT_SECONDS).max(smoke)
        }
    };
    let train = |model, policy, codec, batch, learning_rate, per_run: usize| {
        Workload::Train(TrainSpec {
            name: NAMES.iter().find(|n| **n == name).expect("known name"),
            model,
            policy,
            codec,
            batch,
            learning_rate,
            iters: sized(per_run, 12),
            prefix_iters: if quick { 2 } else { 4 },
            traced_iters: 12,
        })
    };
    let onebit = CodecPolicy::Always(Codec::OneBit);
    let (ps, ring) = (SchemePolicy::AlwaysPs, SchemePolicy::AlwaysRing);
    let dense = CodecPolicy::Identity;
    Some(match name {
        "vgg_hybrid_tcp" => train(
            ModelKind::MiniVgg,
            SchemePolicy::Hybrid,
            dense,
            16,
            0.01,
            20,
        ),
        "fc_ps_tcp" => train(ModelKind::Mlp, ps, dense, 16, 0.02, 64),
        "fc_ps_onebit_tcp" => train(ModelKind::Mlp, ps, onebit, 16, 0.02, 26),
        "fc_ring_tcp" => train(ModelKind::Mlp, ring, dense, 16, 0.02, 72),
        "sim_zoo32" => Workload::SimZoo {
            passes: sized(4, 1),
        },
        _ => return None,
    })
}

impl TrainSpec {
    /// Builds the model replica; deterministic in `seed`.
    pub fn build_model(&self, seed: u64) -> Network {
        match self.model {
            ModelKind::Mlp => presets::mlp(&MLP_SIZES, seed),
            ModelKind::MiniVgg => mini_vgg(seed),
        }
    }

    /// Generates the training set; deterministic in `seed`. Minibatches wrap
    /// around, so the set only has to be larger than a few global batches.
    pub fn dataset(&self, seed: u64) -> Dataset {
        match self.model {
            ModelKind::Mlp => {
                Dataset::gaussian_clusters(TensorShape::flat(MLP_SIZES[0]), 16, 2048, 1.5, seed)
            }
            ModelKind::MiniVgg => {
                Dataset::smooth_clusters(TensorShape::new(3, 32, 32), 10, 512, 1.0, seed)
            }
        }
    }

    /// The runtime configuration of a run of `iters` iterations.
    pub fn runtime_config(&self, iters: usize, traced: bool) -> RuntimeConfig {
        RuntimeConfig {
            policy: self.policy,
            codec: self.codec,
            partition: Partition::default_kv_pairs(),
            // One compute thread per worker, stated explicitly: results must
            // not depend on `available_parallelism` of whoever runs this.
            compute: ComputeConfig::Fixed(WORKERS),
            // A wedged mesh fails the run instead of hanging it.
            comm_timeout: Duration::from_secs(20),
            telemetry: if traced {
                TelemetryConfig::enabled()
            } else {
                TelemetryConfig::default()
            },
            ..RuntimeConfig::new(WORKERS, self.batch, self.learning_rate, iters)
        }
    }

    pub fn is_identity(&self) -> bool {
        self.codec == CodecPolicy::Identity
    }
}

fn mini_vgg(seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let input = TensorShape::new(3, 32, 32);
    let mut net = Network::new(input);
    let mut shape = input;
    for (i, channels) in [32usize, 32, 64].into_iter().enumerate() {
        let n = i + 1;
        let conv = Conv2d::new(format!("conv{n}"), shape, channels, 5, 1, 2, &mut rng);
        let conv_out = conv.output_shape();
        net.push(Box::new(conv));
        net.push(Box::new(ReLU::new(format!("relu{n}"), conv_out)));
        let pool = MaxPool2d::new(format!("pool{n}"), conv_out, 2, 2);
        shape = pool.output_shape();
        net.push(Box::new(pool));
    }
    let widths = [shape.len(), 1024, 1024, 10];
    for (i, pair) in widths.windows(2).enumerate() {
        let n = i + 6;
        net.push(Box::new(FullyConnected::new(
            format!("fc{n}"),
            pair[0],
            pair[1],
            &mut rng,
        )));
        if i + 2 < widths.len() {
            net.push(Box::new(ReLU::new(
                format!("relu{n}"),
                TensorShape::flat(pair[1]),
            )));
        }
    }
    net
}

/// The fabric of endpoints listening on `addrs`, endpoint `i` on physical
/// node `node_of_endpoint[i]`.
pub fn loopback_spec(addrs: Vec<SocketAddr>, node_of_endpoint: Vec<usize>) -> TcpFabricSpec {
    TcpFabricSpec {
        addrs,
        node_of_endpoint,
        connect_timeout: Duration::from_secs(10),
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(50),
        reconnect_timeout: Duration::from_secs(5),
    }
}

/// What one run of all `2·WORKERS` endpoints over a TCP loopback mesh gave.
pub struct MeshRun {
    /// Worker replicas, in worker order.
    pub nets: Vec<Network>,
    /// Per-worker, per-iteration training loss.
    pub losses: Vec<Vec<f32>>,
    /// When the mesh was connected and training started.
    pub started: Instant,
    /// The same moment and the moment the last endpoint was joined, on the
    /// telemetry recorder's clock: the ledger keeps spans inside this window.
    pub train_window_ns: (u64, u64),
    /// The ledger all endpoints counted into.
    pub traffic: Arc<TrafficCounters>,
}

impl MeshRun {
    /// Mean loss over workers, per iteration — what `train()` reports.
    pub fn mean_losses(&self) -> Vec<f32> {
        let iters = self.losses[0].len();
        (0..iters)
            .map(|i| self.losses.iter().map(|l| l[i]).sum::<f32>() / self.losses.len() as f32)
            .collect()
    }
}

/// Runs `cfg` with every endpoint as a thread of this process over an
/// evented-TCP mesh on ephemeral loopback ports. An endpoint that panics
/// (starved by `comm_timeout`, say) or fails to connect makes the run an
/// `Err` naming it.
pub fn run_tcp_mesh(
    factory: &(dyn Fn() -> Network + Sync),
    data: &Dataset,
    cfg: &RuntimeConfig,
) -> Result<MeshRun, String> {
    let workers = cfg.workers;
    let n = 2 * workers;
    telemetry::span_begin("connect", 0, 0);
    let (listeners, addrs) = bind_ephemeral(n).map_err(|e| format!("bind: {e}"))?;
    let spec = loopback_spec(addrs, (0..workers).chain(0..workers).collect());
    let traffic = Arc::new(TrafficCounters::new(workers));
    // Every endpoint and this thread meet here once the mesh is up, so no
    // endpoint starts training while another still connects.
    let connected = Barrier::new(n + 1);

    type WorkerOut = (Vec<f32>, Network);
    let (outcomes, started, train_window_ns) = std::thread::scope(|s| {
        let handles: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(me, listener)| {
                let (spec, traffic, connected) = (&spec, Arc::clone(&traffic), &connected);
                s.spawn(move || -> Result<Option<WorkerOut>, String> {
                    let endpoint =
                        TcpTransport::connect_with_listener(spec, me, listener, Some(traffic));
                    connected.wait();
                    let endpoint = endpoint.map_err(|e| format!("endpoint {me} connect: {e}"))?;
                    Ok(match run_endpoint(factory, data, None, cfg, endpoint) {
                        NodeOutcome::Worker { losses, net, .. } => Some((losses, net)),
                        NodeOutcome::Server { .. } => None,
                    })
                })
            })
            .collect();
        connected.wait();
        let started = Instant::now();
        telemetry::span_end("connect", 0, 0);
        telemetry::span_begin("train", 0, 0);
        let window_start = telemetry::now_ns();
        let outcomes: Vec<_> = handles
            .into_iter()
            .enumerate()
            .map(|(me, h)| match h.join() {
                Ok(result) => result,
                Err(panic) => Err(format!("endpoint {me} panicked: {}", panic_text(&panic))),
            })
            .collect();
        telemetry::span_end("train", 0, 0);
        let window = (window_start, telemetry::now_ns());
        (outcomes, started, window)
    });

    let mut run = MeshRun {
        nets: Vec::new(),
        losses: Vec::new(),
        started,
        train_window_ns,
        traffic,
    };
    // Endpoints 0..P are the workers, in order.
    for outcome in outcomes {
        if let Some((losses, net)) = outcome? {
            run.losses.push(losses);
            run.nets.push(net);
        }
    }
    Ok(run)
}

/// What `runtime.final_loss` reports: the mean loss over the last ten steps.
pub fn final_loss(losses: &[f32]) -> f64 {
    let tail = &losses[losses.len().saturating_sub(10)..];
    tail.iter().map(|l| f64::from(*l)).sum::<f64>() / tail.len() as f64
}

/// The message of a caught panic payload.
pub fn panic_text(payload: &Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic".into())
}

/// Serial large-batch SGD over the reassembled worker shards: the trajectory
/// the distributed run must reproduce. Computed here with nothing but
/// `forward`/`backward`/`apply_own_grads`.
pub fn serial_reference(
    mut net: Network,
    data: &Dataset,
    batch: usize,
    learning_rate: f32,
    iters: usize,
) -> Network {
    let shards = data.partition(WORKERS);
    let width = data.shape().len();
    for it in 0..iters {
        let mut xs = Matrix::zeros(WORKERS * batch, width);
        let mut ys = Vec::with_capacity(WORKERS * batch);
        for (w, shard) in shards.iter().enumerate() {
            let (x, y) = shard.minibatch(it * batch, batch);
            for r in 0..batch {
                xs.row_mut(w * batch + r).copy_from_slice(x.row(r));
            }
            ys.extend(y);
        }
        let logits = net.forward(&xs);
        let out = SoftmaxCrossEntropy.evaluate(&logits, &ys);
        net.backward(&out.grad);
        net.apply_own_grads(-learning_rate);
    }
    net
}
