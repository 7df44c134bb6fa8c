//! Ablations of Poseidon's design choices (DESIGN.md §4), beyond what the
//! paper's figures show directly:
//!
//! 1. WFBP scheduling on/off, isolated from everything else.
//! 2. KV-pair granularity sweep (why 2MB pairs, not whole tensors or tiny
//!    pairs).
//! 3. HybComm vs forcing either scheme for every FC layer.
//! 4. Straggler policies: wait (BSP) vs drop (the paper's policy).
//! 5. The bandwidth model: FIFO NIC queues vs max-min fair flows.

use poseidon::config::{Partition, Scheduler, SchemePolicy};
use poseidon::sim::{simulate, SimConfig, System};
use poseidon_nn::zoo;

use super::{Page, TracedRun};

pub(super) fn ablation(out: &mut Page) {
    scheduler(out);
    granularity(out);
    scheme(out);
    straggler(out);
    bandwidth_model(out);
}

/// The traced run of ablation 4: GoogLeNet under WFBP with node 3 twice as
/// slow and dropped.
pub(super) fn trace() -> TracedRun {
    (
        "GoogLeNet WFBP, node 3 twice as slow and dropped (8 nodes, 40GbE)",
        zoo::googlenet(),
        straggler_config(true),
    )
}

fn straggler_config(drop: bool) -> SimConfig {
    let mut cfg = SimConfig::system(System::WfbpPs, 8, 40.0);
    cfg.straggler = Some((3, 2.0));
    cfg.drop_stragglers = drop;
    cfg
}

fn scheduler(out: &mut Page) {
    out.banner("Ablation 1 — WFBP overlap on/off (PS, KV pairs, 8 nodes, 40GbE)");
    let mut rows = Vec::new();
    for model in zoo::all_models() {
        if model.name == "CIFAR-10 quick" {
            continue; // trivial model, no calibration
        }
        let mut seq = SimConfig::system(System::WfbpPs, 8, 40.0);
        seq.scheduler = Scheduler::Sequential;
        let s = simulate(&model, &seq).speedup;
        let w = simulate(&model, &SimConfig::system(System::WfbpPs, 8, 40.0)).speedup;
        rows.push(vec![
            model.name.to_string(),
            format!("{s:.1}"),
            format!("{w:.1}"),
            format!("{:.0}%", (w / s - 1.0) * 100.0),
        ]);
    }
    out.table(&["model", "sequential", "WFBP", "gain"], &rows);
}

fn granularity(out: &mut Page) {
    out.banner("Ablation 2 — KV-pair size (VGG19, WFBP PS, 8 nodes, 40GbE): balance and speedup");
    let model = zoo::vgg19();
    let pairs = |pair_elems| Partition::KvPairs { pair_elems };
    let mut rows = Vec::new();
    for (partition, label) in [
        (pairs(16 * 1024), "64 KB pairs"),
        (pairs(512 * 1024), "2 MB pairs (Poseidon)"),
        (pairs(16 * 1024 * 1024), "64 MB pairs"),
        (Partition::WholeTensor, "whole tensors (TF)"),
    ] {
        let mut cfg = SimConfig::system(System::WfbpPs, 8, 40.0);
        cfg.partition = partition;
        let r = simulate(&model, &cfg);
        let mean = r.per_node_gbit.iter().sum::<f64>() / r.per_node_gbit.len() as f64;
        let max = r.per_node_gbit.iter().cloned().fold(0.0f64, f64::max);
        rows.push(vec![
            label.to_string(),
            format!("{:.2}", max / mean),
            format!("{:.1}", r.speedup),
        ]);
    }
    out.table(&["partition", "max/mean traffic", "speedup"], &rows);
}

fn scheme(out: &mut Page) {
    out.banner("Ablation 3 — forcing one scheme vs HybComm (VGG19-22K, 16 nodes, 10GbE)");
    let model = zoo::vgg19_22k();
    let mut rows = Vec::new();
    for (policy, label) in [
        (SchemePolicy::AlwaysPs, "always PS"),
        (SchemePolicy::AlwaysSfbForFc, "always SFB for FC"),
        (SchemePolicy::Hybrid, "HybComm (BestScheme)"),
    ] {
        let mut cfg = SimConfig::system(System::Poseidon, 16, 10.0);
        cfg.policy = policy;
        let r = simulate(&model, &cfg);
        rows.push(vec![label.to_string(), format!("{:.1}", r.speedup)]);
    }
    out.table(&["policy", "speedup"], &rows);
    out.line("HybComm is never worse than either forced choice (the coordinator");
    out.line("\"always chooses the best method from available ones\").\n");
}

fn straggler(out: &mut Page) {
    out.banner("Ablation 4 — straggler policy (GoogLeNet, 8 nodes, one node 2x slower)");
    let model = zoo::googlenet();
    let rows: Vec<Vec<String>> = [
        ("no straggler", SimConfig::system(System::WfbpPs, 8, 40.0)),
        ("wait (plain BSP)", straggler_config(false)),
        ("drop (Poseidon)", straggler_config(true)),
    ]
    .into_iter()
    .map(|(label, cfg)| {
        let r = simulate(&model, &cfg);
        vec![
            label.to_string(),
            format!("{:.3}s", r.iter_time_s),
            format!("{:.0}", r.throughput_ips),
        ]
    })
    .collect();
    out.table(&["policy", "iter time", "cluster img/s"], &rows);
    out.line("\"Poseidon handles stragglers by simply dropping them\": the barrier no");
    out.line("longer waits for the slow node; throughput recovers to ~7/8 of clean.\n");
}

fn bandwidth_model(out: &mut Page) {
    out.banner("Ablation 5 — bandwidth model: FIFO NIC queues vs max-min fair fluid flows");
    let cases = [
        (zoo::vgg19_22k(), System::WfbpPs, 16, 10.0),
        (zoo::vgg19_22k(), System::Poseidon, 16, 10.0),
        (zoo::googlenet(), System::WfbpPs, 16, 2.0),
        (zoo::vgg19(), System::Poseidon, 8, 40.0),
    ];
    let mut rows = Vec::new();
    for (model, sys, nodes, bw) in cases {
        let scheme = if sys == System::WfbpPs {
            "WFBP"
        } else {
            "Poseidon"
        };
        let label = format!("{}, {scheme}, {nodes}n, {bw:.0}GbE", model.name);
        let fifo = simulate(&model, &SimConfig::system(sys, nodes, bw)).speedup;
        let mut cfg = SimConfig::system(sys, nodes, bw);
        cfg.fair_share = true;
        let fair = simulate(&model, &cfg).speedup;
        rows.push(vec![label, format!("{fifo:.1}"), format!("{fair:.1}")]);
    }
    out.table(&["config", "FIFO", "fair-share"], &rows);
    out.line("The two bandwidth models agree within ~20% on every configuration, so");
    out.line("the reproduction's conclusions do not hinge on the queueing discipline.");
}
