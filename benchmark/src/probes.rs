//! Layer probes: each times one public function of one module on the shapes
//! the workload uses, from outside the program. A probe answers "how fast is
//! this layer alone"; the training runs answer how much of that shows up in
//! a step. Every probe reports a median.

use crate::stats::median;
use crate::workloads::{loopback_spec, TrainSpec, WORKERS};
use bytes::Bytes;
use poseidon::chunk::Chunk;
use poseidon::config::{ClusterConfig, CommScheme, Partition};
use poseidon::coordinator::Coordinator;
use poseidon::kvstore::ShardState;
use poseidon::sim::{simulate, SimConfig, System};
use poseidon::syncer::{reconstruct_sf_batches, Syncer};
use poseidon::transport::{bind_ephemeral, fabric, Message, TcpTransport, Transport};
use poseidon::wire;
use poseidon_netsim::{EventQueue, HierNetwork, LinkConfig, NodeId, Topology};
use poseidon_nn::layer::LayerKind;
use poseidon_nn::loss::SoftmaxCrossEntropy;
use poseidon_nn::zoo;
use poseidon_tensor::bytesio::{decode_sf_batch, encode_sf_batch};
use poseidon_tensor::compress::{make_compressor, Codec};
use poseidon_tensor::sf::{SfBatch, SufficientFactor};
use poseidon_tensor::Matrix;
use std::hint::black_box;
use std::time::Instant;

/// One named measurement.
pub type Probe = (&'static str, f64);

/// Elements of a default KV pair (2 MiB of f32), the unit the PS path moves.
const PAIR_ELEMS: usize = 512 * 1024;
const PAIR_BYTES: f64 = (PAIR_ELEMS * 4) as f64;
const SMALL_BYTES: usize = 256;
/// The SFB-layer shape of `vgg_hybrid_tcp` and its per-worker batch.
const SF_DIM: usize = 1024;
const SF_BATCH: usize = 16;

/// Median seconds per call of `f`: `reps` samples of `inner` calls each,
/// after one untimed sample.
fn time_median(reps: usize, inner: usize, mut f: impl FnMut()) -> f64 {
    let mut sample = || {
        let t0 = Instant::now();
        for _ in 0..inner {
            f();
        }
        t0.elapsed().as_secs_f64() / inner as f64
    };
    sample();
    median(&(0..reps).map(|_| sample()).collect::<Vec<_>>())
}

/// Deterministic, non-constant f32s; the probes never depend on the values.
fn ramp(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| ((i * 2654435761) % 2001) as f32 / 1000.0 - 1.0)
        .collect()
}

fn payload_message(bytes: usize) -> Message {
    Message::ParamChunk {
        iter: 1,
        layer: 3,
        chunk: 0,
        codec: Codec::Identity,
        data: Bytes::from(vec![0x5Au8; bytes]),
    }
}

/// Probes that need the workload's model: `nn`, `tensor.gemm`, `coordinator`.
fn model_probes(spec: &TrainSpec, seed: u64, out: &mut Vec<Probe>) {
    // One compute thread, as every worker of every workload has.
    poseidon_nn::parallel::set_compute_threads(1);
    let mut net = spec.build_model(seed);
    let data = spec.dataset(seed);
    let head = SoftmaxCrossEntropy;
    let (x, y) = data.minibatch(0, spec.batch);
    let (mut fwd, mut bwd) = (Vec::new(), Vec::new());
    for rep in 0..31 {
        let t0 = Instant::now();
        let logits = net.forward(&x);
        let t1 = Instant::now();
        let loss = head.evaluate(&logits, &y);
        let t2 = Instant::now();
        net.backward(&loss.grad);
        // The first repetition faults buffers in.
        if rep > 0 {
            fwd.push((t1 - t0).as_secs_f64() * 1e3);
            bwd.push(t2.elapsed().as_secs_f64() * 1e3);
        }
    }
    out.push(("nn.forward_ms", median(&fwd)));
    out.push(("nn.backward_ms", median(&bwd)));

    // The plain single-worker loop on the same task: the baseline scaling
    // efficiency is measured against.
    let steps = 30;
    let t0 = Instant::now();
    for it in 0..steps {
        let (x, y) = data.minibatch(it * spec.batch, spec.batch);
        let logits = net.forward(&x);
        let loss = head.evaluate(&logits, &y);
        net.backward(&loss.grad);
        net.apply_own_grads(-spec.learning_rate);
    }
    out.push((
        "nn.serial_samples_per_s",
        (steps * spec.batch) as f64 / t0.elapsed().as_secs_f64(),
    ));

    let (fc_out, fc_in) = (0..net.num_layers())
        .filter(|&l| net.layer(l).kind() == LayerKind::FullyConnected)
        .filter_map(|l| net.layer(l).params().map(|p| p.weights.shape()))
        .max_by_key(|(r, c)| r * c)
        .expect("every workload model has an FC layer");
    let a = Matrix::from_vec(spec.batch, fc_in, ramp(spec.batch * fc_in));
    let b = Matrix::from_vec(fc_in, fc_out, ramp(fc_in * fc_out));
    let t = time_median(30, 1, || {
        black_box(black_box(&a).matmul(black_box(&b)));
    });
    out.push((
        "tensor.gemm_gflops",
        2.0 * (spec.batch * fc_in * fc_out) as f64 / t / 1e9,
    ));

    let cluster = ClusterConfig::colocated(WORKERS, spec.batch);
    let t = time_median(30, 1, || {
        let c = Coordinator::from_model(&net, cluster, spec.policy, Partition::default_kv_pairs())
            .with_codec_policy(spec.codec);
        black_box((c.scheme_assignment(), c.codec_assignment()));
    });
    out.push(("coordinator.plan_ms", t * 1e3));
}

fn tensor_probes(out: &mut Vec<Probe>) {
    let vals = ramp(PAIR_ELEMS);
    let mut comp = make_compressor(Codec::OneBit, PAIR_ELEMS);
    let payload = wire::encode_codec(&mut *comp, &vals);
    let t = time_median(20, 1, || {
        black_box(wire::encode_codec(&mut *comp, black_box(&vals)));
    });
    out.push((
        "tensor.onebit_encode_ns_per_elem",
        t * 1e9 / PAIR_ELEMS as f64,
    ));
    let t = time_median(20, 1, || {
        black_box(wire::decode_codec(
            Codec::OneBit,
            black_box(&payload),
            PAIR_ELEMS,
        ))
        .expect("own encoding decodes");
    });
    out.push((
        "tensor.onebit_decode_ns_per_elem",
        t * 1e9 / PAIR_ELEMS as f64,
    ));

    let batch = sf_batch();
    let t = time_median(50, 1, || {
        let encoded = encode_sf_batch(black_box(&batch));
        black_box(decode_sf_batch(&encoded)).expect("own encoding decodes");
    });
    out.push(("tensor.sf_codec_us", t * 1e6));
}

fn sf_batch() -> SfBatch {
    SfBatch::from_factors(
        (0..SF_BATCH)
            .map(|_| SufficientFactor::new(ramp(SF_DIM), ramp(SF_DIM)))
            .collect(),
    )
}

fn wire_probes(out: &mut Vec<Probe>) {
    let large = payload_message(PAIR_ELEMS * 4);
    let frame = wire::encode_frame(&large);
    let frame_bytes = frame.len() as f64;
    let t = time_median(30, 1, || {
        black_box(wire::encode_frame(black_box(&large)));
    });
    out.push(("wire.encode_frame_GBps", frame_bytes / t / 1e9));
    let t = time_median(30, 1, || {
        black_box(wire::decode_frame(black_box(&frame))).expect("own frame decodes");
    });
    out.push(("wire.decode_frame_GBps", frame_bytes / t / 1e9));
    let small = payload_message(SMALL_BYTES);
    let t = time_median(30, 2000, || {
        let frame = wire::encode_frame(black_box(&small));
        black_box(wire::decode_frame(&frame)).expect("own frame decodes");
    });
    out.push(("wire.frame_small_ns", t * 1e9));

    let vals = ramp(PAIR_ELEMS);
    let encoded = wire::encode_f32s_pooled(&vals);
    let t = time_median(30, 1, || {
        black_box(wire::encode_f32s_pooled(black_box(&vals)));
    });
    out.push(("wire.f32_encode_GBps", PAIR_BYTES / t / 1e9));
    let t = time_median(30, 1, || {
        black_box(wire::decode_f32s(black_box(&encoded))).expect("whole f32s");
    });
    out.push(("wire.f32_decode_GBps", PAIR_BYTES / t / 1e9));
}

/// Round-trip times of `trips` unloaded ping-pongs of `bytes` payloads
/// between two endpoints: `a` (endpoint 0) sends, `b` (endpoint 1) echoes on
/// a thread of its own and is handed back.
fn ping_pong<T: Transport>(a: &T, b: T, bytes: usize, trips: usize) -> (Vec<f64>, T) {
    std::thread::scope(|s| {
        let echo = s.spawn(move || {
            for _ in 0..trips {
                let env = b.recv().expect("echo side receives");
                b.send(0, env.msg).expect("echo side sends");
            }
            b
        });
        let msg = payload_message(bytes);
        let rtts = (0..trips)
            .map(|_| {
                let t0 = Instant::now();
                a.send(1, msg.clone()).expect("ping");
                a.recv().expect("pong");
                t0.elapsed().as_secs_f64()
            })
            .collect();
        (rtts, echo.join().expect("echo thread"))
    })
}

/// Median round trip, microseconds, after a tenth as many untimed trips.
fn rtt_us<T: Transport>(a: &T, b: T, bytes: usize, trips: usize) -> (f64, T) {
    let (_, b) = ping_pong(a, b, bytes, trips / 10);
    let (rtts, b) = ping_pong(a, b, bytes, trips);
    (median(&rtts) * 1e6, b)
}

/// Connects `n` evented-TCP endpoints on ephemeral loopback ports, each on
/// its own node, and returns them with the time from binding to the last
/// endpoint being connected.
fn tcp_mesh(n: usize) -> (Vec<TcpTransport>, f64) {
    let t0 = Instant::now();
    let (listeners, addrs) = bind_ephemeral(n).expect("bind loopback listeners");
    let spec = loopback_spec(addrs, (0..n).collect());
    let endpoints: Vec<TcpTransport> = std::thread::scope(|s| {
        let handles: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(me, l)| {
                let spec = &spec;
                s.spawn(move || TcpTransport::connect_with_listener(spec, me, l, None))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connect thread").expect("mesh connects"))
            .collect()
    });
    (endpoints, t0.elapsed().as_secs_f64())
}

fn shutdown_all<T: Transport>(endpoints: Vec<T>) {
    for mut e in endpoints {
        e.shutdown().expect("transport shuts down");
    }
}

fn transport_probes(out: &mut Vec<Probe>) {
    let connect_ms: Vec<f64> = (0..5)
        .map(|_| {
            let (endpoints, s) = tcp_mesh(2 * WORKERS);
            shutdown_all(endpoints);
            s * 1e3
        })
        .collect();
    out.push(("transport.connect_ms", median(&connect_ms)));

    let (mut pair, _) = tcp_mesh(2);
    let (b, a) = (
        pair.pop().expect("two endpoints"),
        pair.pop().expect("two endpoints"),
    );
    let (small, b) = rtt_us(&a, b, SMALL_BYTES, 2000);
    let (large, b) = rtt_us(&a, b, PAIR_ELEMS * 4, 60);
    out.push(("transport.tcp_rtt_small_us", small));
    out.push(("transport.tcp_rtt_large_us", large));

    // One-way stream: the sender never waits for the receiver, so frames
    // queue and the link stays loaded; the receiver's clock stops on the
    // last frame.
    let frames = 200;
    let (stream_s, b) = std::thread::scope(|s| {
        let receiver = s.spawn(move || {
            for _ in 0..frames {
                b.recv().expect("stream frame");
            }
            (Instant::now(), b)
        });
        let msg = payload_message(PAIR_ELEMS * 4);
        let t0 = Instant::now();
        for _ in 0..frames {
            a.send(1, msg.clone()).expect("stream send");
        }
        let (done, b) = receiver.join().expect("receiver thread");
        (done.duration_since(t0).as_secs_f64(), b)
    });
    out.push((
        "transport.tcp_stream_GBps",
        frames as f64 * PAIR_BYTES / stream_s / 1e9,
    ));
    shutdown_all(vec![a, b]);

    let (mut pair, _) = fabric(2);
    let (b, a) = (
        pair.pop().expect("two endpoints"),
        pair.pop().expect("two endpoints"),
    );
    let (small, b) = rtt_us(&a, b, SMALL_BYTES, 5000);
    out.push(("transport.inproc_rtt_small_us", small));
    shutdown_all(vec![a, b]);
}

fn syncer_probes(out: &mut Vec<Probe>) {
    let vals = ramp(PAIR_ELEMS);
    let pair = Chunk {
        layer: 0,
        offset: 0,
        len: PAIR_ELEMS,
        shard: 0,
    };
    let mut syncer = Syncer::new(0, CommScheme::Ps, vec![pair], PAIR_ELEMS, WORKERS, 0);
    let t = time_median(30, 1, || {
        black_box(syncer.encode_push(0, black_box(&vals)));
    });
    out.push(("syncer.encode_push_GBps", PAIR_BYTES / t / 1e9));

    let segment = wire::encode_f32s_pooled(&vals);
    let t = time_median(30, 1, || {
        black_box(wire::add_f32s_pooled(black_box(&segment), black_box(&vals)))
            .expect("lengths agree");
    });
    out.push(("syncer.ring_hop_add_GBps", PAIR_BYTES / t / 1e9));

    let batches: Vec<SfBatch> = (0..WORKERS).map(|_| sf_batch()).collect();
    let t = time_median(10, 1, || {
        black_box(reconstruct_sf_batches(black_box(&batches), SF_DIM, SF_DIM));
    });
    out.push(("syncer.sf_reconstruct_ms", t * 1e3));
}

fn kvstore_probes(out: &mut Vec<Probe>) {
    let grad = ramp(PAIR_ELEMS);
    let mut shard = ShardState::new(WORKERS, -0.01 / WORKERS as f32);
    shard.init_pair((0, 0), vec![0.0; PAIR_ELEMS]);
    let t = time_median(30, 1, || {
        for w in 0..WORKERS {
            black_box(shard.receive_grad(w, (0, 0), black_box(&grad)));
        }
    });
    out.push((
        "kvstore.fold_apply_GBps",
        WORKERS as f64 * PAIR_BYTES / t / 1e9,
    ));
}

fn sim_probes(out: &mut Vec<Probe>) {
    let models = zoo::all_models();
    let cfg = SimConfig::system(System::Poseidon, 32, 40.0);
    for (model, host, speedup) in [
        (
            "VGG19-22K",
            "sim.host_ms_vgg19_22k",
            Some("sim.speedup_vgg19_22k_32"),
        ),
        (
            "Inception-V3",
            "sim.host_ms_inception_v3",
            Some("sim.speedup_inception_v3_32"),
        ),
        ("ResNet-152", "sim.host_ms_resnet152", None),
    ] {
        let spec = models
            .iter()
            .find(|m| m.name == model)
            .expect("zoo has the paper's models");
        let t = time_median(10, 1, || {
            black_box(simulate(black_box(spec), &cfg));
        });
        out.push((host, t * 1e3));
        if let Some(name) = speedup {
            out.push((name, simulate(spec, &cfg).speedup));
        }
    }

    // One transfer scheduled through the hierarchical network and the event
    // queue, the way the engine issues them.
    let link = LinkConfig::gbe(40.0);
    let mut net = HierNetwork::new(Topology::two_level(8, 4, link, link, 2.0));
    let mut queue: EventQueue<usize> = EventQueue::new();
    let devices = net.devices();
    let mut i = 0usize;
    let t = time_median(20, 10_000, || {
        i += 1;
        let (src, dst) = (NodeId(i % devices), NodeId((i * 7 + 3) % devices));
        let arrive = net.transfer(queue.now(), src, dst, 1 << 20);
        queue.schedule_at(arrive, i);
        black_box(queue.pop());
    });
    out.push(("netsim.transfer_ns", t * 1e9));
}

/// Restricts the calling thread, and every thread it spawns afterwards, to
/// the first CPU it may run on. Returns whether that worked.
///
/// A probe times one layer's software path. Left alone, the kernel places a
/// ping-pong's two threads on one CPU or on two depending on how busy the
/// machine was a moment ago, and on a 2-vCPU VM that alone moves a loopback
/// round trip between 4 µs and 36 µs.
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() -> bool {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // 1024 CPUs, the size of glibc's `cpu_set_t`.
    let mut mask = [0u64; 16];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of exactly `bytes` bytes, and
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return false;
    }
    let Some(word) = mask.iter().position(|w| *w != 0) else {
        return false;
    };
    let lowest = mask[word] & mask[word].wrapping_neg();
    mask = [0; 16];
    mask[word] = lowest;
    // SAFETY: as above; the call only reads `bytes` bytes from `mask`.
    unsafe { sched_setaffinity(0, bytes, mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() -> bool {
    false
}

/// Runs the probes of a workload on one CPU: the training-layer probes on
/// `spec`'s shapes, or the simulator probes when there is no training model.
pub fn run(spec: Option<&TrainSpec>, seed: u64) -> Vec<Probe> {
    if !pin_to_one_cpu() {
        eprintln!(
            "probes: could not pin to one CPU; round-trip probes will depend on thread placement"
        );
    }
    let mut out = Vec::new();
    match spec {
        Some(spec) => {
            model_probes(spec, seed, &mut out);
            tensor_probes(&mut out);
            wire_probes(&mut out);
            transport_probes(&mut out);
            syncer_probes(&mut out);
            kvstore_probes(&mut out);
        }
        None => sim_probes(&mut out),
    }
    out
}
