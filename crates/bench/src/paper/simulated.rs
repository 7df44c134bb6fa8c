//! The tables and figures the cluster simulator and the cost model answer
//! on their own: Tables 1 and 3, Figures 5–8 and 10, and §5.1's
//! single-node and multi-GPU notes. All of them are deterministic.

use poseidon::config::ClusterConfig;
use poseidon::costmodel::{self, CommCost};
use poseidon::sim::{simulate, SimConfig, System};
use poseidon::telemetry::report::Report;
use poseidon_nn::zoo::{self, ModelSpec};

use super::{Page, TracedRun};

/// Table 1: estimated communication cost of PS, SFB and Adam for
/// synchronising an M×N FC layer, plus the Section 3.2 worked example and
/// Algorithm 1's choices for the evaluation networks' FC layers.
pub(super) fn table1(out: &mut Page) {
    out.banner("Table 1 — per-node communication cost (f32 values) for an M x N FC layer");
    // The paper's worked example: M = N = 4096, K = 32, P1 = P2 = 8.
    let (m, n) = (4096usize, 4096usize);
    let cluster = ClusterConfig::colocated(8, 32);
    let millions = |v: f64| format!("{:.2}M", v / 1e6);
    let row = |method: &str, c: CommCost| {
        let mut row = vec![method.to_string()];
        row.extend([c.server, c.worker, c.server_and_worker].map(millions));
        row
    };
    let sfb = costmodel::sfb_cost(m, n, &cluster);
    let rows = vec![
        row("PS", costmodel::ps_cost(m, n, &cluster)),
        vec!["SFB".into(), "n/a".into(), millions(sfb), "n/a".into()],
        row("Adam (max)", costmodel::adam_cost(m, n, &cluster)),
    ];
    out.line("M = N = 4096, K = 32, P1 = P2 = 8 (Section 3.2 worked example)");
    out.table(&["method", "server", "worker", "server+worker"], &rows);
    out.line("Paper quotes: PS worker ~34M, PS server ~34M, PS both ~58.7M, SFB ~3.7M.\n");

    // BestScheme crossovers: where HybComm switches for the paper's FC layers.
    out.banner("Algorithm 1 — BestScheme decisions for the evaluation networks' FC layers");
    let cases = [
        ("VGG19 fc6", 4096usize, 25088usize, 32usize),
        ("VGG19 fc7", 4096, 4096, 32),
        ("VGG19 fc8", 1000, 4096, 32),
        ("VGG19-22K fc8", 21841, 4096, 32),
        ("GoogLeNet classifier", 1000, 1024, 128),
        ("Inception-V3 fc", 1000, 2048, 32),
    ];
    let mut rows = Vec::new();
    for &(name, m, n, k) in &cases {
        for p in [8usize, 16, 32] {
            let scheme = costmodel::best_scheme_fc(m, n, &ClusterConfig::colocated(p, k));
            rows.push(vec![
                name.to_string(),
                m.to_string(),
                n.to_string(),
                k.to_string(),
                p.to_string(),
                scheme.to_string(),
            ]);
        }
    }
    out.table(&["layer", "M", "N", "K", "P", "scheme"], &rows);
    out.line(
        "Expected: VGG FC layers pick SFB at K=32; GoogLeNet's thin classifier at K=128 reduces to PS.",
    );
}

/// Table 3: the evaluation networks — parameter counts, datasets, batch
/// sizes — regenerated from the layer-by-layer zoo descriptors.
pub(super) fn table3(out: &mut Page) {
    out.banner("Table 3 — neural networks for evaluation");
    // The paper's counts, in `all_models` order.
    let paper = ["145.6K", "5M", "27M", "143M", "229M", "60.2M", "61.5M"];
    let rows: Vec<Vec<String>> = zoo::all_models()
        .iter()
        .zip(paper)
        .map(|(m, paper)| {
            let params = m.total_params() as f64;
            vec![
                m.name.to_string(),
                if params >= 1e6 {
                    format!("{:.1}M", params / 1e6)
                } else {
                    format!("{:.1}K", params / 1e3)
                },
                paper.to_string(),
                m.dataset.to_string(),
                m.default_batch.to_string(),
                m.layers.len().to_string(),
                format!("{:.0}%", m.fc_fraction() * 100.0),
                format!("{:.1}", m.fwd_flops() as f64 / 1e9),
            ]
        })
        .collect();
    let header = [
        "model",
        "# params",
        "paper",
        "dataset",
        "batch",
        "layers",
        "FC share",
        "fwd GFLOPs",
    ];
    out.table(&header, &rows);
    out.line("Notes: GoogLeNet's exact deploy count is 7.0M (the paper's 5M is the");
    out.line("'12x fewer than AlexNet' approximation); all other rows match Table 3");
    out.line("within 3%. 'FC share' is the fraction of parameters in FC layers — the");
    out.line("paper quotes 91% for VGG19-22K.");
}

/// Section 5.1 single-node overhead: images/sec of the native engine vs a
/// vanilla PS parallelisation vs Poseidon on ONE machine (no network),
/// rendered through the telemetry summary-report formatter so it reads
/// like the per-layer digests `poseidon-node --trace-out` prints.
pub(super) fn overhead(out: &mut Page) {
    out.banner("Section 5.1 — single-node throughput (img/s): native vs +PS vs Poseidon");
    let paper = [
        "257 / 213.3 / 257",
        "35.5 / 21.3 / 35.5",
        "34.6 / 18.5 / 34.2",
    ];
    let mut rows = Vec::new();
    for (model, paper) in [zoo::googlenet(), zoo::vgg19(), zoo::vgg19_22k()]
        .into_iter()
        .zip(paper)
    {
        let ps = simulate(&model, &SimConfig::system(System::CaffePs, 1, 40.0));
        let psd = simulate(&model, &SimConfig::system(System::Poseidon, 1, 40.0));
        rows.push(vec![
            model.name.to_string(),
            format!("{:.1}", ps.single_node_ips),
            format!("{:.1}", ps.throughput_ips),
            format!("{:.1}", psd.throughput_ips),
            paper.to_string(),
        ]);
    }
    let mut report = Report::new();
    report.table(
        "single-node img/s",
        &[
            "model",
            "native",
            "engine+PS",
            "Poseidon",
            "paper (native/+PS/PSD)",
        ],
        rows,
    );
    report.note("Shape: vanilla PS loses throughput on one node to unoverlapped GPU<->CPU");
    report.note("copies; Poseidon overlaps them and matches the native engine.");
    out.0.push_str(&report.render());
}

/// Section 5.1 "Multi-GPU Settings": Poseidon with several GPUs per node —
/// local PCIe aggregation onto a leader GPU, then the normal network
/// synchronisation. Reproduces the two reported results: (a) near-linear
/// scaling up to 4 GPUs in a single machine (where Caffe's own multi-GPU
/// tree reaches only ~3x on GoogLeNet and ~2x on VGG19), and (b) 4 nodes ×
/// 8 GPUs (32 GPUs total) reaching ~32x on GoogLeNet and ~28x on VGG19.
pub(super) fn multigpu(out: &mut Page) {
    out.banner("Section 5.1 multi-GPU — single machine: Poseidon vs Caffe's multi-GPU tree");
    let mut rows = Vec::new();
    // The paper reports 4 GPUs only: Poseidon's speedup vs Caffe's.
    for (model, reported) in [
        (zoo::googlenet(), "~4x vs ~3x"),
        (zoo::vgg19(), "~4x vs ~2x"),
    ] {
        for gpus in [1usize, 2, 4] {
            let paper = if gpus == 4 { reported } else { "-" };
            rows.push(vec![
                model.name.to_string(),
                gpus.to_string(),
                format!("{:.1}", poseidon_speedup(&model, 1, gpus)),
                format!("{:.1}", caffe_tree_speedup(&model, gpus)),
                paper.to_string(),
            ]);
        }
    }
    let header = ["model", "GPUs", "Poseidon", "Caffe multi-GPU", "paper"];
    out.table(&header, &rows);

    out.banner("Section 5.1 multi-GPU — 4 nodes x 8 GPUs (p2.8xlarge-like), 32 GPUs total");
    let rows: Vec<Vec<String>> = [(zoo::googlenet(), "32x"), (zoo::vgg19(), "28x")]
        .into_iter()
        .map(|(model, paper)| {
            vec![
                model.name.to_string(),
                "4 x 8 GPUs".to_string(),
                format!("{:.1}", poseidon_speedup(&model, 4, 8)),
                paper.to_string(),
            ]
        })
        .collect();
    out.table(&["model", "config", "speedup", "paper"], &rows);
    out.line("Shape: local PCIe aggregation keeps multi-GPU nodes near-linear; VGG19's");
    out.line("bigger parameter volume costs more per-node aggregation, so it lands");
    out.line("below GoogLeNet — the ordering the paper reports (32x vs 28x).");
}

/// Speedup of Poseidon with `nodes` machines × `gpus` GPUs over one GPU.
fn poseidon_speedup(model: &ModelSpec, nodes: usize, gpus: usize) -> f64 {
    let mut cfg = SimConfig::system(System::Poseidon, nodes, 40.0);
    cfg.gpus_per_node = gpus;
    simulate(model, &cfg).speedup
}

/// Caffe's unoverlapped multi-GPU tree on one machine: compute plus a
/// blocking 2·log2(G)-hop parameter exchange over unpinned PCIe per
/// iteration (the paper measured ~3x on GoogLeNet, ~2x on VGG19 at 4 GPUs).
fn caffe_tree_speedup(model: &ModelSpec, gpus: usize) -> f64 {
    let compute =
        model.default_batch as f64 / model.paper_single_node_ips.expect("calibrated model");
    let hops = 2.0 * (gpus as f64).log2().ceil();
    let pcie_unpinned = 3.0e9;
    let per_layer_overhead = 0.5e-3 * model.trainable_layers().len() as f64;
    let exchange = hops * (model.param_bytes() as f64 / pcie_unpinned) + hops * per_layer_overhead;
    let iter = compute + exchange;
    gpus as f64 * compute / iter
}

/// Figure 5: throughput scaling of Poseidon-parallelised **Caffe** at
/// 40GbE — GoogLeNet, VGG19 and VGG19-22K under Caffe+PS, Caffe+WFBP and
/// Poseidon.
pub(super) fn fig5(out: &mut Page) {
    out.banner("Figure 5 — Caffe-engine speedups at 40GbE (Caffe+PS vs Caffe+WFBP vs Poseidon)");
    let systems = [System::CaffePs, System::WfbpPs, System::Poseidon];
    for model in [zoo::googlenet(), zoo::vgg19(), zoo::vgg19_22k()] {
        out.speedup_panel(&model, &systems, 40.0);
    }
    out.line("Paper shape: WFBP(PS) and Poseidon near-linear to 32 nodes on GoogLeNet");
    out.line("and VGG19 (Poseidon 30x on VGG19-22K vs 21.5x for WFBP-only); the");
    out.line("vanilla Caffe+PS baseline starts below 1.0 on a single node (memcpy");
    out.line("overhead: 213/257 img/s on GoogLeNet) and scales sub-linearly.");
}

/// Figure 5's traced run: one VGG19 Poseidon iteration on 8 nodes.
pub(super) fn fig5_trace() -> TracedRun {
    (
        "one simulated VGG19 Poseidon iteration (8 nodes, 40GbE)",
        zoo::vgg19(),
        SimConfig::system(System::Poseidon, 8, 40.0),
    )
}

/// Figure 6: throughput scaling of Poseidon-parallelised **TensorFlow** at
/// 40GbE — Inception-V3, VGG19 and VGG19-22K under TF, TF+WFBP and
/// Poseidon.
pub(super) fn fig6(out: &mut Page) {
    out.banner("Figure 6 — TensorFlow-engine speedups at 40GbE (TF vs TF+WFBP vs Poseidon)");
    let systems = [System::TensorFlow, System::WfbpPs, System::Poseidon];
    for model in [zoo::inception_v3(), zoo::vgg19(), zoo::vgg19_22k()] {
        out.speedup_panel(&model, &systems, 40.0);
    }
    out.line("Paper shape: Poseidon ~31.5x on Inception-V3 at 32 nodes, ~50% above");
    out.line("open-source TF (~20x); distributed TF fails to scale on VGG19 and");
    out.line("VGG19-22K (coarse whole-tensor sharding creates server hot-spots),");
    out.line("while TF+WFBP and Poseidon stay near-linear.");
}

/// Figure 7: breakdown of GPU computation vs stall time on 8 nodes for the
/// three TF-engine models under TF, TF+WFBP and Poseidon.
pub(super) fn fig7(out: &mut Page) {
    out.banner("Figure 7 — GPU computation vs stall time, 8 nodes, 40GbE (TF engine)");
    let mut rows = Vec::new();
    for model in [zoo::inception_v3(), zoo::vgg19(), zoo::vgg19_22k()] {
        for (sys, label) in [
            (System::TensorFlow, "TF"),
            (System::WfbpPs, "TF+WFBP"),
            (System::Poseidon, "PSD"),
        ] {
            let r = simulate(&model, &SimConfig::system(sys, 8, 40.0));
            rows.push(vec![
                model.name.to_string(),
                label.to_string(),
                format!("{:.0}", (1.0 - r.stall_fraction) * 100.0),
                format!("{:.0}", r.stall_fraction * 100.0),
            ]);
        }
    }
    out.table(&["model", "system", "compute %", "stall %"], &rows);
    out.line("Paper shape: Poseidon keeps the GPU busy nearly all the time; TF wastes");
    out.line("a large fraction of the iteration waiting for parameter synchronisation,");
    out.line("worst on the FC-heavy VGG models. (Our idealised WFBP model slightly");
    out.line("overstates TF+WFBP's compute fraction — see EXPERIMENTS.md.)");
}

/// Figure 8: throughput scaling under limited bandwidth (tc-throttled
/// Ethernet) — Caffe engine, Caffe+WFBP vs Poseidon.
pub(super) fn fig8(out: &mut Page) {
    out.banner("Figure 8 — speedups with limited per-node bandwidth (Caffe engine)");
    let panels = [
        (zoo::googlenet(), [2.0, 5.0, 10.0]),
        (zoo::vgg19(), [10.0, 20.0, 30.0]),
        (zoo::vgg19_22k(), [10.0, 20.0, 30.0]),
    ];
    for (model, bws) in panels {
        out.line(&format!("{}:", model.name));
        let mut header = vec!["nodes".to_string()];
        for bw in bws {
            header.push(format!("PSD {bw:.0}GbE"));
            header.push(format!("WFBP {bw:.0}GbE"));
        }
        let rows: Vec<Vec<String>> = [1usize, 2, 4, 8, 16]
            .iter()
            .map(|&n| {
                let mut row = vec![n.to_string()];
                for bw in bws {
                    for sys in [System::Poseidon, System::WfbpPs] {
                        let r = simulate(&model, &SimConfig::system(sys, n, bw));
                        row.push(format!("{:.1}", r.speedup));
                    }
                }
                row
            })
            .collect();
        out.table(&header, &rows);
    }
    out.line("Paper shape: with 10GbE, PS-only training of VGG19 reaches only ~8x on");
    out.line("16 nodes while Poseidon stays near-linear (HybComm shrinks the FC");
    out.line("messages); on GoogLeNet (one thin FC, batch 128) Poseidon reduces to PS");
    out.line("and the two curves coincide.");
}

/// Figure 10: averaged per-node communication load (Gb per iteration) when
/// training VGG19 on 8 nodes with the TF engine — TF+WFBP vs Adam vs
/// Poseidon.
pub(super) fn fig10(out: &mut Page) {
    out.banner("Figure 10 — per-node traffic (Gb/iteration), VGG19, 8 nodes, 40GbE");
    let vgg = zoo::vgg19();
    let mut header = vec!["system".to_string()];
    header.extend((0..8).map(|n| format!("node{n}")));
    header.extend(["max/mean".to_string(), "speedup".to_string()]);
    let mut rows = Vec::new();
    for (sys, label) in [
        (System::WfbpPs, "TF-WFBP"),
        (System::Adam, "Adam"),
        (System::Poseidon, "Poseidon"),
    ] {
        let r = simulate(&vgg, &SimConfig::system(sys, 8, 40.0));
        let mean = r.per_node_gbit.iter().sum::<f64>() / 8.0;
        let max = r.per_node_gbit.iter().cloned().fold(0.0f64, f64::max);
        let mut row = vec![label.to_string()];
        row.extend(r.per_node_gbit.iter().map(|g| format!("{g:.1}")));
        row.push(format!("{:.2}", max / mean));
        row.push(format!("{:.1}", r.speedup));
        rows.push(row);
    }
    out.table(&header, &rows);
    out.line("Paper shape: TF-WFBP's PS traffic is evenly spread (~even bars); Adam's");
    out.line("SF-push/matrix-pull overloads the shard owning the big FC layers (one");
    out.line("bar several times the rest, ~5x speedup only); Poseidon is both small");
    out.line("and balanced.");
}
