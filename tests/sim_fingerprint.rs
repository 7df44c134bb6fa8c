//! The simulator's statistics, pinned bit for bit.
//!
//! Every number `simulate` reports is a pure function of the order in which
//! its event queue pops, so a change to the event core (state tables, event
//! layout, queue) is correct exactly when none of these digests moves. The
//! constants below were produced by the engine of commit `dcd486c` (the
//! parent of the dense-state rewrite); a model change that moves them on
//! purpose re-pins them from the failure message, which prints the table as
//! source.
//!
//! A digest is FNV-1a over the `f64::to_bits` of `iter_time_s`,
//! `throughput_ips`, `speedup`, `stall_fraction` and every `per_node_gbit`
//! entry of each report, in the order the reports were produced.
//!
//! The traced timelines are pinned too, event for event ([`trace_digest`]),
//! from the engine of commit `7521cda`, which queued one event per push and
//! per pull: an engine that queues fewer events must still handle the ones
//! it keeps in the same order, ties included.

use poseidon::config::{Codec, CodecPolicy, Scheduler, SchemePolicy, Topology};
use poseidon::sim::{simulate, simulate_with_trace, IterationReport, SimConfig, System};
use poseidon::telemetry::Trace;
use poseidon_netsim::LinkConfig;
use poseidon_nn::zoo::{self, ModelSpec};

const SYSTEMS: [System; 6] = [
    System::CaffePs,
    System::WfbpPs,
    System::Poseidon,
    System::TensorFlow,
    System::Adam,
    System::Cntk1Bit,
];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        self.raw(&w.to_le_bytes());
    }

    /// A length-prefixed byte string.
    fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        self.raw(bytes);
    }

    fn raw(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn report(&mut self, r: &IterationReport) {
        for v in [r.iter_time_s, r.throughput_ips, r.speedup, r.stall_fraction] {
            self.word(v.to_bits());
        }
        self.word(r.per_node_gbit.len() as u64);
        for g in &r.per_node_gbit {
            self.word(g.to_bits());
        }
    }
}

fn digest_of(r: &IterationReport) -> u64 {
    let mut h = Fnv::new();
    h.report(r);
    h.0
}

/// Compares computed digests with their golden copies, in order; on a
/// mismatch the panic message is the computed table as pasteable source.
fn check(what: &str, got: &[(String, u64)], golden: &[u64]) {
    if !got.iter().map(|(_, d)| d).eq(golden) {
        let table: String = got
            .iter()
            .map(|(label, d)| format!("    {d:#018x}, // {label}\n"))
            .collect();
        let moved: Vec<&str> = got
            .iter()
            .zip(golden.iter().map(Some).chain(std::iter::repeat(None)))
            .filter(|((_, d), want)| Some(d) != *want)
            .map(|((label, _), _)| label.as_str())
            .collect();
        panic!("{what}: digests moved for {moved:?}; computed table:\n{table}");
    }
}

/// Zoo × the six systems × {1, 2, 8, 32} nodes × {10, 40} GbE, one digest
/// per model.
const ZOO_GOLDEN: [u64; 7] = [
    0x6aedd36820e399f9, // CIFAR-10 quick
    0x1ed5563f59e3f17b, // GoogLeNet
    0xacec594856db89cc, // Inception-V3
    0x3d6558edffe6a353, // VGG19
    0x70c60fdb16152e2b, // VGG19-22K
    0xe2753ee37263e7b1, // ResNet-152
    0xd17b5fe91e67ed21, // AlexNet
];

#[test]
fn zoo_sweep_repeats_the_parent_engine_bit_for_bit() {
    let got: Vec<(String, u64)> = zoo::all_models()
        .iter()
        .map(|model| {
            let mut h = Fnv::new();
            for system in SYSTEMS {
                for nodes in [1, 2, 8, 32] {
                    for gbe in [10.0, 40.0] {
                        h.report(&simulate(model, &SimConfig::system(system, nodes, gbe)));
                    }
                }
            }
            (model.name.to_string(), h.0)
        })
        .collect();
    check("zoo sweep", &got, &ZOO_GOLDEN);
}

fn with(system: System, nodes: usize, gbe: f64, edit: impl FnOnce(&mut SimConfig)) -> SimConfig {
    let mut cfg = SimConfig::system(system, nodes, gbe);
    edit(&mut cfg);
    cfg
}

/// The paths `sim_zoo32` never runs but which share the engine's progress
/// tables: collectives (with the REDUCE that outruns a slow worker's
/// backward), the fluid bandwidth model, stragglers kept and dropped on PS
/// and SFB layers, multi-GPU nodes, the sequential scheduler under HybComm
/// and lossy codecs on PS and collective layers.
fn paths() -> Vec<(&'static str, ModelSpec, SimConfig)> {
    let oversubscribed = Topology::two_level(
        4,
        2,
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
    let straggler = |node: usize, factor: f64, drop: bool| {
        move |c: &mut SimConfig| {
            c.straggler = Some((node, factor));
            c.drop_stragglers = drop;
        }
    };
    vec![
        (
            "ring vgg19 8x40",
            zoo::vgg19(),
            with(System::WfbpPs, 8, 40.0, |c| {
                c.policy = SchemePolicy::AlwaysRing
            }),
        ),
        (
            "ring googlenet 32x10",
            zoo::googlenet(),
            with(System::WfbpPs, 32, 10.0, |c| {
                c.policy = SchemePolicy::AlwaysRing
            }),
        ),
        (
            "ring googlenet 8x40 straggler 3",
            zoo::googlenet(),
            with(System::WfbpPs, 8, 40.0, |c| {
                c.policy = SchemePolicy::AlwaysRing;
                straggler(3, 2.0, false)(c);
            }),
        ),
        (
            "ring googlenet 8x40 straggler 3 dropped",
            zoo::googlenet(),
            with(System::WfbpPs, 8, 40.0, |c| {
                c.policy = SchemePolicy::AlwaysRing;
                straggler(3, 2.0, true)(c);
            }),
        ),
        (
            "ring googlenet 2x10",
            zoo::googlenet(),
            with(System::WfbpPs, 2, 10.0, |c| {
                c.policy = SchemePolicy::AlwaysRing
            }),
        ),
        (
            "topo-aware vgg19 8x10",
            zoo::vgg19(),
            with(System::WfbpPs, 8, 10.0, |c| {
                c.policy = SchemePolicy::TopoAware(oversubscribed)
            }),
        ),
        (
            "topo-aware vgg19 8x10 straggler 6",
            zoo::vgg19(),
            with(System::WfbpPs, 8, 10.0, |c| {
                c.policy = SchemePolicy::TopoAware(oversubscribed);
                straggler(6, 1.7, false)(c);
            }),
        ),
        (
            "fair-share poseidon vgg19 8x40",
            zoo::vgg19(),
            with(System::Poseidon, 8, 40.0, |c| c.fair_share = true),
        ),
        (
            "fair-share wfbp-ps googlenet 8x5",
            zoo::googlenet(),
            with(System::WfbpPs, 8, 5.0, |c| c.fair_share = true),
        ),
        (
            "fair-share ring alexnet 4x10",
            zoo::alexnet(),
            with(System::WfbpPs, 4, 10.0, |c| {
                c.policy = SchemePolicy::AlwaysRing;
                c.fair_share = true;
            }),
        ),
        (
            "straggler wfbp-ps googlenet 8x40",
            zoo::googlenet(),
            with(System::WfbpPs, 8, 40.0, straggler(3, 2.0, false)),
        ),
        (
            "straggler dropped wfbp-ps googlenet 8x40",
            zoo::googlenet(),
            with(System::WfbpPs, 8, 40.0, straggler(3, 2.0, true)),
        ),
        (
            "mild straggler dropped caffe-ps alexnet 8x10",
            zoo::alexnet(),
            with(System::CaffePs, 8, 10.0, straggler(7, 1.05, true)),
        ),
        (
            "straggler poseidon vgg19 8x10",
            zoo::vgg19(),
            with(System::Poseidon, 8, 10.0, straggler(0, 3.0, false)),
        ),
        (
            "straggler dropped poseidon vgg19 8x10",
            zoo::vgg19(),
            with(System::Poseidon, 8, 10.0, straggler(0, 3.0, true)),
        ),
        (
            "straggler dropped poseidon vgg19-22k 32x10",
            zoo::vgg19_22k(),
            with(System::Poseidon, 32, 10.0, straggler(17, 1.3, true)),
        ),
        (
            "straggler dropped adam vgg19 8x40",
            zoo::vgg19(),
            with(System::Adam, 8, 40.0, straggler(2, 2.0, true)),
        ),
        (
            "straggler dropped fair-share poseidon alexnet 4x10",
            zoo::alexnet(),
            with(System::Poseidon, 4, 10.0, |c| {
                c.fair_share = true;
                straggler(1, 2.5, true)(c);
            }),
        ),
        (
            "4 gpus poseidon googlenet 1x40",
            zoo::googlenet(),
            with(System::Poseidon, 1, 40.0, |c| c.gpus_per_node = 4),
        ),
        (
            "4 gpus poseidon vgg19 8x40",
            zoo::vgg19(),
            with(System::Poseidon, 8, 40.0, |c| c.gpus_per_node = 4),
        ),
        (
            "4 gpus caffe-ps googlenet 4x10",
            zoo::googlenet(),
            with(System::CaffePs, 4, 10.0, |c| c.gpus_per_node = 4),
        ),
        (
            "4 gpus ring alexnet 4x40",
            zoo::alexnet(),
            with(System::WfbpPs, 4, 40.0, |c| {
                c.policy = SchemePolicy::AlwaysRing;
                c.gpus_per_node = 4;
            }),
        ),
        (
            "sequential hybrid vgg19 8x10",
            zoo::vgg19(),
            with(System::Poseidon, 8, 10.0, |c| {
                c.scheduler = Scheduler::Sequential
            }),
        ),
        (
            "sequential hybrid inception-v3 32x40",
            zoo::inception_v3(),
            with(System::Poseidon, 32, 40.0, |c| {
                c.scheduler = Scheduler::Sequential
            }),
        ),
        (
            "onebit caffe-ps memcpy alexnet 8x10",
            zoo::alexnet(),
            with(System::CaffePs, 8, 10.0, |c| {
                c.codec_policy = CodecPolicy::Always(Codec::OneBit)
            }),
        ),
        (
            "always-sfb googlenet batch 16 8x40",
            zoo::googlenet(),
            with(System::Poseidon, 8, 40.0, |c| {
                c.policy = SchemePolicy::AlwaysSfbForFc;
                c.batch_per_node = Some(16);
            }),
        ),
    ]
}

const PATHS_GOLDEN: [u64; 26] = [
    0x67dae89c221d9f4e, // ring vgg19 8x40
    0xc6d6af84e5a67c04, // ring googlenet 32x10
    0x1edc7a8464cfc5c4, // ring googlenet 8x40 straggler 3
    0x238498574f52b7a7, // ring googlenet 8x40 straggler 3 dropped
    0x9c173e50600ed585, // ring googlenet 2x10
    0x028cf477aa6addd3, // topo-aware vgg19 8x10
    0x2d0893fc93646ad1, // topo-aware vgg19 8x10 straggler 6
    0x9aa8813bab67f996, // fair-share poseidon vgg19 8x40
    0x96fc788077755b68, // fair-share wfbp-ps googlenet 8x5
    0xc9e49e9a90bfd7e4, // fair-share ring alexnet 4x10
    0x9df9cdfc9463e5c2, // straggler wfbp-ps googlenet 8x40
    0x2fa013f18a126f0f, // straggler dropped wfbp-ps googlenet 8x40
    0x72b4af4f891dbb0f, // mild straggler dropped caffe-ps alexnet 8x10
    0xe49804a3e5017ac6, // straggler poseidon vgg19 8x10
    0xf3eb211bac3e2ecf, // straggler dropped poseidon vgg19 8x10
    0xbca7828b64ad5bde, // straggler dropped poseidon vgg19-22k 32x10
    0x449b87f97e4ffec2, // straggler dropped adam vgg19 8x40
    0x56a1478b9a587fc4, // straggler dropped fair-share poseidon alexnet 4x10
    0xa28b084019166b40, // 4 gpus poseidon googlenet 1x40
    0x00cb6237518f65e6, // 4 gpus poseidon vgg19 8x40
    0x1a98f6b1cd0449c7, // 4 gpus caffe-ps googlenet 4x10
    0x512a6c8c45a95403, // 4 gpus ring alexnet 4x40
    0x9652508242dd728c, // sequential hybrid vgg19 8x10
    0x7af2109fddb345ca, // sequential hybrid inception-v3 32x40
    0xd8f7119eecfe20bf, // onebit caffe-ps memcpy alexnet 8x10
    0x457530faf791db82, // always-sfb googlenet batch 16 8x40
];

#[test]
fn paths_outside_the_sweep_repeat_the_parent_engine_and_tracing_observes_only() {
    let got: Vec<(String, u64)> = paths()
        .into_iter()
        .map(|(label, model, cfg)| {
            let plain = digest_of(&simulate(&model, &cfg));
            let (traced, trace) = simulate_with_trace(&model, &cfg);
            assert_eq!(
                plain,
                digest_of(&traced),
                "{label}: simulate_with_trace changed the statistics"
            );
            assert!(trace.event_count() > 0, "{label}: empty trace");
            (label.to_string(), plain)
        })
        .collect();
    check("paths", &got, &PATHS_GOLDEN);
}

/// FNV-1a over every event of a traced timeline: per track its id, name
/// and event count, then each event's `ts_ns`, kind, name, lane, `a` and
/// `b`, in the order the track holds them. Events that tie on `ts_ns` keep
/// the order the engine recorded them in, so this moves if the engine
/// handles tied events in another order, even where no statistic does.
fn trace_digest(trace: &Trace) -> u64 {
    let mut h = Fnv::new();
    h.word(trace.tracks.len() as u64);
    for track in &trace.tracks {
        h.word(track.tid);
        h.bytes(track.name.as_bytes());
        h.word(track.events.len() as u64);
        for e in &track.events {
            h.word(e.ts_ns);
            h.word(e.kind as u64);
            h.bytes(e.name.as_bytes());
            h.word(u64::from(e.lane));
            h.word(e.a);
            h.word(e.b);
        }
    }
    h.0
}

/// The six systems, a dropped straggler and multi-GPU nodes on VGG19 at 8
/// nodes: PS chunks with several per shard, SFB, Adam's factors and the
/// 1-bit codec, with and without the memcpy stream.
fn traced() -> Vec<(String, SimConfig)> {
    let mut runs: Vec<(String, SimConfig)> = SYSTEMS
        .iter()
        .map(|&system| {
            let label = format!("{} vgg19 8x10", system.label());
            (label, SimConfig::system(system, 8, 10.0))
        })
        .collect();
    runs.push((
        "straggler dropped poseidon vgg19 8x10".into(),
        with(System::Poseidon, 8, 10.0, |c| {
            c.straggler = Some((5, 1.5));
            c.drop_stragglers = true;
        }),
    ));
    runs.push((
        "4 gpus poseidon vgg19 8x40".into(),
        with(System::Poseidon, 8, 40.0, |c| c.gpus_per_node = 4),
    ));
    runs
}

const TRACE_GOLDEN: [u64; 8] = [
    0x734583078b808c11, // Caffe+PS vgg19 8x10
    0xbd5fd543143d52a9, // WFBP(PS) vgg19 8x10
    0xfd3e6ee71c2496db, // Poseidon vgg19 8x10
    0xa2ca07df899d8f14, // TF vgg19 8x10
    0xaad2606125361964, // Adam vgg19 8x10
    0x3dce678c968029fb, // CNTK-1bit vgg19 8x10
    0x5232d31d5b21c953, // straggler dropped poseidon vgg19 8x10
    0x15e5352a317d33cc, // 4 gpus poseidon vgg19 8x40
];

#[test]
fn traced_timelines_repeat_the_parent_engine_event_for_event() {
    let model = zoo::vgg19();
    let got: Vec<(String, u64)> = traced()
        .into_iter()
        .map(|(label, cfg)| {
            let (_, trace) = simulate_with_trace(&model, &cfg);
            (label, trace_digest(&trace))
        })
        .collect();
    check("traced timelines", &got, &TRACE_GOLDEN);
}
