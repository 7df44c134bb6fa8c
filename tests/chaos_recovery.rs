//! The chaos matrix: every communication scheme under scripted faults.
//!
//! The contract under test is the strongest one the repo makes: a run whose
//! transport drops, duplicates, reorders and severs scripted frames must
//! produce **bitwise identical** replicas and losses to the fault-free run —
//! the reliability layer repairs the stream completely, and the repair is
//! invisible to the training math. Conversely an *unrecoverable* fault (a
//! black-holed link) must abort with a diagnosable timeout within the
//! configured budget, never hang.
//!
//! Runs here use the threaded `train()` over the in-process fabric with the
//! chaos plane enabled ([`FaultConfig`]), and once the same mesh as
//! `run_endpoint` threads; the per-process TCP variant (a real socket
//! severed mid-run) lives in `crates/bench/tests/tcp_sever_reconnect.rs`.

use poseidon::config::{Codec, CodecPolicy, Partition, SchemePolicy};
use poseidon::faults::{FaultAction, FaultPlan};
use poseidon::runtime::{
    run_endpoint, train, FaultConfig, NodeOutcome, RuntimeConfig, TrainResult,
};
use poseidon::transport::{fabric_with_nodes, ReliabilityConfig};
use poseidon_nn::data::Dataset;
use poseidon_nn::layer::TensorShape;
use poseidon_nn::presets;
use poseidon_nn::Network;
use std::time::Duration;

const WORKERS: usize = 2;
const BATCH: usize = 8;
const ITERS: usize = 4;
const LR: f32 = 0.2;

fn dataset() -> Dataset {
    Dataset::gaussian_clusters(TensorShape::flat(12), 4, 96, 0.4, 21)
}

fn factory() -> Network {
    presets::mlp(&[12, 16, 8, 4], 5)
}

fn config(policy: SchemePolicy, faults: FaultConfig) -> RuntimeConfig {
    RuntimeConfig {
        policy,
        partition: Partition::KvPairs { pair_elems: 37 },
        comm_timeout: Duration::from_secs(20),
        faults,
        ..RuntimeConfig::new(WORKERS, BATCH, LR, ITERS)
    }
}

fn run(policy: SchemePolicy, faults: FaultConfig) -> TrainResult<Network> {
    train(&factory, &dataset(), None, &config(policy, faults))
}

/// A fault plan exercising every recoverable action on links that carry
/// traffic under `policy`. Endpoints: 0,1 = workers on nodes 0,1; 2,3 =
/// shards colocated on the same nodes. PS traffic flows worker→shard and
/// back; SFB traffic flows worker→worker.
fn plan_for(policy: SchemePolicy) -> FaultPlan {
    let text = match policy {
        // All layers on the PS path: fault the worker→shard and
        // shard→worker links, including an (iter, layer) trigger and a
        // sever (a no-op disconnect on channels; the socket variant is
        // covered by the TCP suite).
        SchemePolicy::AlwaysPs => {
            "drop:0>3@n2;delay2:3>0@n1;dup:1>2@n3;sever:0>3@n4;drop:2>1@n2;drop:1>3@i2l0"
        }
        // All FC layers broadcast sufficient factors worker→worker.
        SchemePolicy::AlwaysSfbForFc => "drop:0>1@n1;delay1:1>0@n2;dup:0>1@n3;sever:1>0@n1",
        // Ring: 0→1 carries REDUCE, 1→0 the DISTRIBUTE originated by the
        // last worker. Every hop is a single point of failure for the whole
        // fold, so faults here are maximally disruptive.
        SchemePolicy::AlwaysRing => "drop:0>1@n1;delay1:1>0@n2;dup:0>1@n3;sever:1>0@n1",
        // Tree (P=2): worker 1 gathers to the root over 1→0, the root
        // broadcasts back over 0→1.
        SchemePolicy::AlwaysTree => "drop:1>0@n1;delay1:0>1@n2;dup:1>0@n3;sever:0>1@n1",
        // Hybrid picks per layer; fault both kinds of links and let
        // whichever carries traffic fire.
        _ => "drop:0>3@n1;drop:0>1@n1;dup:3>0@n2;delay1:1>0@n1;sever:1>2@n1",
    };
    FaultPlan::parse(text).expect("plan parses")
}

#[test]
fn faulty_runs_converge_bitwise_for_every_scheme() {
    for policy in [
        SchemePolicy::AlwaysPs,
        SchemePolicy::AlwaysSfbForFc,
        SchemePolicy::AlwaysRing,
        SchemePolicy::AlwaysTree,
        SchemePolicy::Hybrid,
    ] {
        let clean = run(policy, FaultConfig::default());
        assert!(clean.fault_report.is_none(), "chaos plane off by default");

        let faulty = run(
            policy,
            FaultConfig {
                plan: Some(plan_for(policy)),
                reliability: None,
            },
        );

        // The headline: scripted drops, reorders, dups and severs change
        // NOTHING about the result.
        assert_eq!(
            faulty.net.max_param_diff(&clean.net),
            0.0,
            "{policy:?}: faulty run must be bitwise identical to the clean run"
        );
        assert_eq!(
            faulty.losses, clean.losses,
            "{policy:?}: per-iteration losses must match exactly"
        );

        // The chaos plane actually did something and repaired it.
        let report = faulty.fault_report.expect("chaos plane was on");
        assert!(
            !report.fired.is_empty(),
            "{policy:?}: at least one scripted fault must fire"
        );
        assert!(
            report.fired.iter().any(|f| f.action == FaultAction::Drop),
            "{policy:?}: a drop must fire to exercise retransmission"
        );
        assert!(
            report.retransmits >= 1,
            "{policy:?}: dropped frames heal via retransmit, got {report:?}"
        );
        assert!(
            report.acks_sent > 0,
            "{policy:?}: the reliability layer acks delivered frames"
        );

        // The repair is visible in the traffic ledger: retransmitted frames
        // and control traffic cost real (counted) bytes on cross-node links.
        assert!(
            faulty.traffic.total_bytes() > clean.traffic.total_bytes(),
            "{policy:?}: recovery traffic must show up in the ledger \
             (faulty {} <= clean {})",
            faulty.traffic.total_bytes(),
            clean.traffic.total_bytes()
        );
    }
}

/// A longer ring (P = 3) puts an interior relay on the fault path: frames
/// dropped, duplicated or severed mid-chain must heal without perturbing
/// the fixed fold order — the repaired run stays bitwise identical.
#[test]
fn three_worker_ring_and_tree_survive_mid_chain_faults() {
    for (policy, plan) in [
        (
            SchemePolicy::AlwaysRing,
            // REDUCE walks 0→1→2, DISTRIBUTE walks 2→0→1.
            "drop:1>2@n2;dup:2>0@n1;delay1:0>1@n3;sever:1>2@n4",
        ),
        (
            SchemePolicy::AlwaysTree,
            // Children 1,2 gather to root 0; the root broadcasts back down.
            "drop:2>0@n1;dup:1>0@n2;delay1:0>2@n1;sever:0>1@n2",
        ),
    ] {
        let cfg = |faults| RuntimeConfig {
            policy,
            partition: Partition::KvPairs { pair_elems: 37 },
            comm_timeout: Duration::from_secs(20),
            faults,
            ..RuntimeConfig::new(3, BATCH, LR, ITERS)
        };
        let clean = train(&factory, &dataset(), None, &cfg(FaultConfig::default()));
        let faulty = train(
            &factory,
            &dataset(),
            None,
            &cfg(FaultConfig {
                plan: Some(FaultPlan::parse(plan).expect("plan parses")),
                reliability: None,
            }),
        );
        assert_eq!(
            faulty.net.max_param_diff(&clean.net),
            0.0,
            "{policy:?}: mid-chain faults must be invisible to the fold"
        );
        assert_eq!(faulty.losses, clean.losses, "{policy:?}");
        let report = faulty.fault_report.expect("chaos plane on");
        assert!(
            report.fired.iter().any(|f| f.action == FaultAction::Drop),
            "{policy:?}: a drop must fire: {report:?}"
        );
        assert!(
            report.retransmits >= 1,
            "{policy:?}: the chain heals via retransmit: {report:?}"
        );
    }
}

/// The chaos contract extends to lossy codecs: residual-carrying compressors
/// make the stream *stateful*, so exactly-once in-order repair is load-bearing
/// — a dropped-then-retransmitted or duplicated compressed frame must leave
/// the error-feedback state, and therefore every replica, bitwise identical
/// to the fault-free lossy run.
#[test]
fn compressed_frames_survive_chaos_bitwise() {
    for (policy, codec) in [
        (SchemePolicy::AlwaysPs, Codec::OneBit),
        (SchemePolicy::AlwaysPs, Codec::TopK { permille: 100 }),
        (SchemePolicy::AlwaysRing, Codec::Bf16),
    ] {
        let cfg = |faults| RuntimeConfig {
            codec: CodecPolicy::Always(codec),
            ..config(policy, faults)
        };
        let clean = train(&factory, &dataset(), None, &cfg(FaultConfig::default()));
        let faulty = train(
            &factory,
            &dataset(),
            None,
            &cfg(FaultConfig {
                plan: Some(plan_for(policy)),
                reliability: None,
            }),
        );
        assert_eq!(
            faulty.net.max_param_diff(&clean.net),
            0.0,
            "{policy:?}+{codec}: chaos must be invisible to the lossy stream"
        );
        assert_eq!(faulty.losses, clean.losses, "{policy:?}+{codec}");
        let report = faulty.fault_report.expect("chaos plane on");
        assert!(
            report.fired.iter().any(|f| f.action == FaultAction::Drop),
            "{policy:?}+{codec}: a drop must fire to exercise retransmission"
        );
        assert!(
            report.retransmits >= 1,
            "{policy:?}+{codec}: compressed frames heal via retransmit: {report:?}"
        );
    }
}

/// The chaos × membership matrix: an elastic run (shard 1 drains out at
/// iteration 2 and rejoins at 4, crossing two handoff boundaries) under
/// scripted drops, dups, delays and severs — aimed at the shard→shard
/// handoff links and the PS links of the reduced-membership window — must
/// stay bitwise identical to the *clean* elastic run, which itself must be
/// bitwise identical to the fixed-membership run. Reconfiguration and
/// fault recovery compose without perturbing the math.
#[test]
fn elastic_reconfiguration_survives_chaos_bitwise() {
    use poseidon::membership::MembershipPlan;
    let elastic_cfg = |faults| RuntimeConfig {
        membership: MembershipPlan::parse("leave:1@2;join:1@4").expect("plan"),
        iterations: 6,
        ..config(SchemePolicy::AlwaysPs, faults)
    };

    let fixed = train(
        &factory,
        &dataset(),
        None,
        &RuntimeConfig {
            iterations: 6,
            ..config(SchemePolicy::AlwaysPs, FaultConfig::default())
        },
    );
    let clean = train(
        &factory,
        &dataset(),
        None,
        &elastic_cfg(FaultConfig::default()),
    );

    // Membership invariance first: who holds the pairs is invisible.
    assert_eq!(
        clean.net.max_param_diff(&fixed.net),
        0.0,
        "elastic run must be bitwise identical to the fixed-membership run"
    );
    assert_eq!(clean.losses, fixed.losses);

    // Endpoints: workers 0,1; shards 2,3. The leave at iter 2 drains 3→2,
    // the rejoin at 4 drains 2→3; both handoff links get a drop or dup on
    // their first frame (the handoff itself), the reduced-membership PS
    // links get drops, delays and a sever mid-window.
    let plan = "drop:3>2@n1;dup:2>3@n1;drop:0>2@n3;delay1:2>1@n2;sever:1>2@n2;drop:1>2@i3l0";
    let faulty = train(
        &factory,
        &dataset(),
        None,
        &elastic_cfg(FaultConfig {
            plan: Some(FaultPlan::parse(plan).expect("plan parses")),
            reliability: None,
        }),
    );
    assert_eq!(
        faulty.net.max_param_diff(&clean.net),
        0.0,
        "chaos during reconfiguration must be invisible to the result"
    );
    assert_eq!(faulty.losses, clean.losses);

    let report = faulty.fault_report.expect("chaos plane was on");
    assert!(
        report.fired.iter().any(|f| f.action == FaultAction::Drop),
        "a drop must fire to exercise retransmission: {report:?}"
    );
    assert!(
        report.retransmits >= 1,
        "dropped frames (handoff included) heal via retransmit: {report:?}"
    );
    assert!(
        faulty.traffic.total_bytes() > clean.traffic.total_bytes(),
        "recovery traffic must show up in the ledger"
    );
}

#[test]
fn chaos_runs_are_deterministic() {
    let faults = || FaultConfig {
        plan: Some(plan_for(SchemePolicy::AlwaysPs)),
        reliability: None,
    };
    let a = run(SchemePolicy::AlwaysPs, faults());
    let b = run(SchemePolicy::AlwaysPs, faults());
    assert_eq!(a.net.max_param_diff(&b.net), 0.0);
    assert_eq!(a.losses, b.losses);
    // The same plan fires the same faults on the same logical frames.
    assert_eq!(
        a.fault_report.expect("report").fired,
        b.fault_report.expect("report").fired,
        "fired-fault logs must be identical run to run"
    );
}

#[test]
fn reliability_layer_alone_is_transparent() {
    let clean = run(SchemePolicy::Hybrid, FaultConfig::default());
    let reliable = run(
        SchemePolicy::Hybrid,
        FaultConfig {
            plan: None,
            reliability: Some(ReliabilityConfig::default()),
        },
    );
    assert_eq!(
        reliable.net.max_param_diff(&clean.net),
        0.0,
        "sequencing + acks must not change the training math"
    );
    assert_eq!(reliable.losses, clean.losses);
    let report = reliable.fault_report.expect("chaos plane was on");
    assert!(report.fired.is_empty(), "no plan, no faults");
    assert_eq!(
        report.retransmits, 0,
        "a fault-free stream needs no repair: {report:?}"
    );
}

/// An unrecoverable fault — a link black-holed mid-run, control traffic
/// included — must end in a clean diagnostic abort within the comm-timeout
/// budget, never a hang. The starved endpoint's panic (carrying its
/// `TimeoutDiag`) propagates out of `train` through the thread joins.
#[test]
fn blackholed_link_aborts_bounded_instead_of_hanging() {
    let cfg = RuntimeConfig {
        comm_timeout: Duration::from_millis(600),
        ..config(
            SchemePolicy::AlwaysPs,
            FaultConfig {
                plan: Some(FaultPlan::parse("hole:0>3@n1").expect("plan")),
                reliability: None,
            },
        )
    };
    let started = std::time::Instant::now();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        train(&factory, &dataset(), None, &cfg)
    }));
    assert!(result.is_err(), "a dead link must abort the run");
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "the dead-peer verdict must be bounded, took {:?}",
        started.elapsed()
    );
}

/// `run_endpoint` wraps the chaos plane exactly as `train` does: the same
/// mesh as `2P` `run_endpoint` threads under a drop/dup/sever plan lands on
/// the clean run's parameters, and its endpoints fire, between them, exactly
/// the faults `train` fires for that plan.
#[test]
fn endpoint_mesh_heals_the_same_faults_as_train() {
    let faults = || FaultConfig {
        plan: Some(plan_for(SchemePolicy::AlwaysPs)),
        reliability: None,
    };
    let clean = run(SchemePolicy::AlwaysPs, FaultConfig::default());
    let trained = run(SchemePolicy::AlwaysPs, faults());

    let cfg = &config(SchemePolicy::AlwaysPs, faults());
    let nodes: Vec<usize> = (0..WORKERS).chain(0..WORKERS).collect();
    let (endpoints, _traffic) = fabric_with_nodes(&nodes);
    let data = &dataset();
    let outcomes: Vec<NodeOutcome<Network>> = std::thread::scope(|s| {
        let handles: Vec<_> = endpoints
            .into_iter()
            .map(|ep| s.spawn(move || run_endpoint(&factory, data, None, cfg, ep)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("endpoint thread panicked"))
            .collect()
    });

    let mut fired = Vec::new();
    for outcome in outcomes {
        let chaos = match outcome {
            NodeOutcome::Worker { net, chaos, .. } => {
                assert_eq!(
                    net.max_param_diff(&clean.net),
                    0.0,
                    "a faulty endpoint mesh must be bitwise identical to the clean run"
                );
                chaos
            }
            NodeOutcome::Server { chaos, .. } => chaos,
        };
        fired.extend(chaos.expect("the chaos plane was on").fired);
    }
    fired.sort_by_key(|f| (f.from, f.to, f.frame));
    assert!(
        fired.iter().any(|f| f.action == FaultAction::Drop),
        "a drop must fire: {fired:?}"
    );
    assert_eq!(
        fired,
        trained.fault_report.expect("chaos plane on").fired,
        "run_endpoint and train must fire the same faults for one plan"
    );
}
