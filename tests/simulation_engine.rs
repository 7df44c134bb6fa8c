//! The simulator's event engine through its public API: each scheme's
//! protocol completes on every node, the paper's qualitative behaviours hold
//! (WFBP beats sequential, HybComm beats PS under limited bandwidth, Adam's
//! hot-spot, stragglers gate BSP unless dropped), and tracing / metrics
//! replay observe a run without changing it. These lived in
//! `sim/engine.rs`'s unit-test module, which no offline package can run.

use poseidon::config::{CommScheme, SchemePolicy, Topology};
use poseidon::sim::{
    simulate, simulate_with_metrics, simulate_with_trace, speedup_series, IterationReport,
    SimConfig, System,
};
use poseidon::telemetry::{chrome, EventKind};
use poseidon_netsim::LinkConfig;
use poseidon_nn::zoo::{self, ModelSpec};

fn report(system: System, model: &ModelSpec, nodes: usize, bw: f64) -> IterationReport {
    simulate(model, &SimConfig::system(system, nodes, bw))
}

#[test]
fn single_node_poseidon_matches_native_throughput() {
    let vgg = zoo::vgg19();
    let r = report(System::Poseidon, &vgg, 1, 40.0);
    assert!(
        (r.throughput_ips - 35.5).abs() / 35.5 < 0.02,
        "single-node Poseidon VGG19 = {} img/s, expected ~35.5",
        r.throughput_ips
    );
    assert!(
        r.per_node_gbit.iter().all(|&g| g == 0.0),
        "no network traffic on 1 node"
    );
}

#[test]
fn single_node_caffe_ps_pays_memcpy_overhead() {
    let vgg = zoo::vgg19();
    let ps = report(System::CaffePs, &vgg, 1, 40.0);
    let psd = report(System::Poseidon, &vgg, 1, 40.0);
    assert!(
        ps.throughput_ips < 0.75 * psd.throughput_ips,
        "Caffe+PS ({}) should be well below Poseidon ({}) on one node",
        ps.throughput_ips,
        psd.throughput_ips
    );
}

#[test]
fn poseidon_scales_near_linearly_on_vgg_at_40gbe() {
    let vgg = zoo::vgg19();
    let r = report(System::Poseidon, &vgg, 32, 40.0);
    assert!(
        r.speedup > 28.0,
        "Poseidon VGG19 at 32 nodes: {}x",
        r.speedup
    );
}

#[test]
fn wfbp_beats_sequential_ps() {
    let vgg = zoo::vgg19();
    let seq = report(System::CaffePs, &vgg, 8, 40.0);
    let wfbp = report(System::WfbpPs, &vgg, 8, 40.0);
    assert!(
        wfbp.speedup > seq.speedup * 1.2,
        "WFBP {} vs sequential {}",
        wfbp.speedup,
        seq.speedup
    );
}

#[test]
fn hybrid_beats_pure_ps_under_limited_bandwidth() {
    let vgg = zoo::vgg19();
    let ps = report(System::WfbpPs, &vgg, 16, 10.0);
    let psd = report(System::Poseidon, &vgg, 16, 10.0);
    assert!(
        psd.speedup > ps.speedup * 1.3,
        "Poseidon {} vs WFBP-PS {} at 10GbE",
        psd.speedup,
        ps.speedup
    );
    assert!(
        psd.speedup > 13.0,
        "Poseidon should stay near-linear: {}",
        psd.speedup
    );
}

#[test]
fn tensorflow_hotspot_hurts_vgg() {
    let vgg = zoo::vgg19();
    let tf = report(System::TensorFlow, &vgg, 8, 40.0);
    let psd = report(System::Poseidon, &vgg, 8, 40.0);
    assert!(
        tf.speedup < 0.6 * psd.speedup,
        "TF {} should trail Poseidon {} badly on VGG19",
        tf.speedup,
        psd.speedup
    );
    assert!(tf.stall_fraction > psd.stall_fraction + 0.2);
}

#[test]
fn adam_creates_load_imbalance() {
    let vgg = zoo::vgg19();
    let adam = report(System::Adam, &vgg, 8, 40.0);
    let even = report(System::WfbpPs, &vgg, 8, 40.0);
    let imbalance = |g: &[f64]| {
        let max = g.iter().cloned().fold(0.0f64, f64::max);
        let mean = g.iter().sum::<f64>() / g.len() as f64;
        max / mean
    };
    assert!(
        imbalance(&adam.per_node_gbit) > 1.8,
        "Adam per-node traffic should be skewed: {:?}",
        adam.per_node_gbit
    );
    assert!(
        imbalance(&even.per_node_gbit) < 1.2,
        "KV-pair PS should be even: {:?}",
        even.per_node_gbit
    );
}

#[test]
fn traffic_matches_cost_model_for_ps() {
    // Per-node PS traffic for the whole model ≈ 2·params·4·(P1+P2−2)/P2.
    let vgg = zoo::vgg19();
    let r = report(System::WfbpPs, &vgg, 8, 40.0);
    let expect_gbit = 2.0 * vgg.param_bytes() as f64 * (8.0 + 8.0 - 2.0) / 8.0 * 8.0 / 1e9;
    let got = r.per_node_gbit[0];
    assert!(
        (got - expect_gbit).abs() / expect_gbit < 0.02,
        "per-node traffic {got} Gb vs cost model {expect_gbit} Gb"
    );
}

#[test]
fn sequential_iteration_is_compute_plus_comm() {
    let g = zoo::googlenet();
    let r = report(System::CaffePs, &g, 4, 10.0);
    assert!(r.iter_time_s > r.compute_s, "sequential must add comm time");
    assert_eq!(
        r.schemes
            .iter()
            .filter(|(_, s)| *s == CommScheme::Sfb)
            .count(),
        0
    );
}

#[test]
fn onebit_reduces_fc_traffic() {
    let vgg = zoo::vgg19();
    let onebit = report(System::Cntk1Bit, &vgg, 8, 40.0);
    let ps = report(System::WfbpPs, &vgg, 8, 40.0);
    assert!(
        onebit.per_node_gbit[0] < 0.45 * ps.per_node_gbit[0],
        "1-bit {} Gb vs PS {} Gb",
        onebit.per_node_gbit[0],
        ps.per_node_gbit[0]
    );
}

#[test]
fn multi_gpu_scales_with_local_aggregation() {
    let g = zoo::googlenet();
    let mut cfg = SimConfig::system(System::Poseidon, 1, 40.0);
    cfg.gpus_per_node = 4;
    let r = simulate(&g, &cfg);
    assert!(
        r.speedup > 3.8,
        "4 GPUs on one node should be near-linear: {}x",
        r.speedup
    );
    // 8-GPU nodes on the heavy VGG19 pay visible PCIe aggregation.
    let vgg = zoo::vgg19();
    let mut cfg = SimConfig::system(System::Poseidon, 4, 40.0);
    cfg.gpus_per_node = 8;
    let r = simulate(&vgg, &cfg);
    assert!(
        r.speedup > 28.0 && r.speedup < 32.0,
        "4x8 GPUs VGG19: {}x",
        r.speedup
    );
}

#[test]
fn multi_gpu_increases_effective_batch_for_best_scheme() {
    // GoogLeNet's thin classifier: SFB at K=32 single GPU on few nodes,
    // PS once 8 GPUs multiply the per-node batch.
    let g = zoo::googlenet();
    let mut small = SimConfig::system(System::Poseidon, 4, 40.0);
    small.batch_per_node = Some(32);
    let r_small = simulate(&g, &small);
    let mut big = small.clone();
    big.gpus_per_node = 8; // node batch 256 > the ~253 crossover
    let r_big = simulate(&g, &big);
    let fc_scheme = |r: &IterationReport| {
        r.schemes
            .iter()
            .find(|(n, _)| n.contains("classifier"))
            .map(|&(_, s)| s)
            .expect("classifier present")
    };
    assert_eq!(fc_scheme(&r_small), CommScheme::Sfb);
    assert_eq!(
        fc_scheme(&r_big),
        CommScheme::Ps,
        "bigger node batch flips to PS"
    );
}

#[test]
fn straggler_gates_bsp_iteration_time() {
    let g = zoo::googlenet();
    let clean = simulate(&g, &SimConfig::system(System::WfbpPs, 8, 40.0));
    let mut cfg = SimConfig::system(System::WfbpPs, 8, 40.0);
    cfg.straggler = Some((3, 2.0));
    let slow = simulate(&g, &cfg);
    // BSP waits for the slowest node: iteration roughly doubles.
    assert!(
        slow.iter_time_s > 1.8 * clean.iter_time_s,
        "straggler must gate the barrier: {} vs {}",
        slow.iter_time_s,
        clean.iter_time_s
    );
}

#[test]
fn dropping_the_straggler_recovers_throughput() {
    let g = zoo::googlenet();
    let mut gated = SimConfig::system(System::WfbpPs, 8, 40.0);
    gated.straggler = Some((3, 2.0));
    let waiting = simulate(&g, &gated);
    let mut dropping = gated.clone();
    dropping.drop_stragglers = true;
    let dropped = simulate(&g, &dropping);
    assert!(
        dropped.iter_time_s < 0.7 * waiting.iter_time_s,
        "dropping should cut the straggler tail: {} vs {}",
        dropped.iter_time_s,
        waiting.iter_time_s
    );
    // But the straggler still receives parameters, so the protocol
    // completes for every node.
    assert!(dropped.speedup > waiting.speedup);
}

#[test]
fn straggler_drop_works_for_sfb_layers_too() {
    let vgg = zoo::vgg19();
    let mut cfg = SimConfig::system(System::Poseidon, 8, 10.0);
    cfg.straggler = Some((0, 3.0));
    cfg.drop_stragglers = true;
    let r = simulate(&vgg, &cfg);
    assert!(r.schemes.iter().any(|(_, s)| *s == CommScheme::Sfb));
    // With the straggler's contributions dropped, the other 7 nodes are
    // barely slowed.
    let clean = simulate(&vgg, &SimConfig::system(System::Poseidon, 8, 10.0));
    assert!(r.iter_time_s < 1.25 * clean.iter_time_s);
}

#[test]
fn fair_share_model_agrees_with_fifo() {
    // The two bandwidth models must agree closely when comm is fully
    // overlapped, and within ~25% when bandwidth-bound.
    let vgg = zoo::vgg19();
    let fifo = simulate(&vgg, &SimConfig::system(System::Poseidon, 8, 40.0));
    let mut cfg = SimConfig::system(System::Poseidon, 8, 40.0);
    cfg.fair_share = true;
    let fair = simulate(&vgg, &cfg);
    assert!((fifo.speedup - fair.speedup).abs() / fifo.speedup < 0.02);
    assert!(
        (fifo.per_node_gbit[0] - fair.per_node_gbit[0]).abs() < 0.01,
        "traffic accounting must be identical across models"
    );

    let g = zoo::googlenet();
    let fifo = simulate(&g, &SimConfig::system(System::WfbpPs, 8, 5.0));
    let mut cfg = SimConfig::system(System::WfbpPs, 8, 5.0);
    cfg.fair_share = true;
    let fair = simulate(&g, &cfg);
    let rel = (fifo.speedup - fair.speedup).abs() / fifo.speedup;
    assert!(
        rel < 0.25,
        "bandwidth-bound disagreement {rel:.2} too large"
    );
}

#[test]
fn traced_simulation_matches_untraced_and_exports_valid_chrome_json() {
    let vgg = zoo::vgg19();
    let cfg = SimConfig::system(System::Poseidon, 4, 40.0);
    let plain = simulate(&vgg, &cfg);
    let (report, trace) = simulate_with_trace(&vgg, &cfg);
    // Tracing is pure observation: the simulation result is unchanged.
    assert_eq!(plain.iter_time_s, report.iter_time_s);
    assert_eq!(plain.per_node_gbit, report.per_node_gbit);
    assert!(trace.event_count() > 0, "trace must record the iteration");

    // WFBP is visible in the timeline: on node 0 some layer's sync
    // window opens strictly before the node's backward pass finishes.
    let t0 = trace
        .tracks
        .iter()
        .find(|t| t.name == "node 0")
        .expect("node 0 track");
    let last_bwd_end = t0
        .events
        .iter()
        .filter(|e| e.name == "bwd" && e.kind == EventKind::End)
        .map(|e| e.ts_ns)
        .max()
        .expect("bwd spans recorded");
    let first_sync_begin = t0
        .events
        .iter()
        .filter(|e| e.name == "wfbp.sync" && e.kind == EventKind::Begin)
        .map(|e| e.ts_ns)
        .min()
        .expect("sync spans recorded");
    assert!(
        first_sync_begin < last_bwd_end,
        "WFBP overlap missing: first sync at {first_sync_begin} ns, backward ends {last_bwd_end} ns"
    );

    // The exporter round-trips: structurally valid Chrome trace JSON.
    let json = chrome::to_chrome_json(&[trace]);
    let stats = chrome::validate(&json).expect("valid chrome trace");
    assert!(stats.spans > 0 && stats.tracks > 1);
}

#[test]
fn simulated_metrics_emit_live_run_families() {
    let vgg = zoo::vgg19();
    let cfg = SimConfig::system(System::Poseidon, 4, 40.0);
    let plain = simulate(&vgg, &cfg);
    let (report, snap) = simulate_with_metrics(&vgg, &cfg);
    // Metrics replay is pure observation too.
    assert_eq!(plain.iter_time_s, report.iter_time_s);
    // The virtual-clock run lands in the same families a live scrape
    // serves: per-node step histograms and per-peer traffic counters.
    let steps = snap
        .family("poseidon_step_time_ns")
        .expect("step time family");
    assert_eq!(steps.samples.len(), 4, "one step histogram per node");
    let tx = snap
        .family("poseidon_tx_bytes_total")
        .expect("tx bytes family");
    assert!(!tx.samples.is_empty(), "simulated sends must be counted");
    let text = snap.render();
    assert!(
        text.contains("poseidon_step_time_ns_bucket"),
        "exposition render must work on simulated snapshots: {text}"
    );
}

#[test]
fn ring_per_node_traffic_is_bounded_independent_of_p() {
    // Each ring worker relays every chunk at most twice in each
    // direction (one REDUCE hop, one DISTRIBUTE hop), so per-node
    // traffic caps at 2·dense sent + 2·dense received no matter how
    // many nodes join — PS per-node traffic instead grows with
    // (P1+P2−2)/P2. (The ledger counts both directions.)
    let vgg = zoo::vgg19();
    let dense_gbit = vgg.param_bytes() as f64 * 8.0 / 1e9;
    for p in [4usize, 8, 16] {
        let mut cfg = SimConfig::system(System::WfbpPs, p, 40.0);
        cfg.policy = SchemePolicy::AlwaysRing;
        let ring = simulate(&vgg, &cfg);
        assert!(
            ring.schemes.iter().all(|(_, s)| *s == CommScheme::Ring),
            "AlwaysRing must assign Ring everywhere: {:?}",
            ring.schemes
        );
        let max_gbit = ring.per_node_gbit.iter().cloned().fold(0.0, f64::max);
        assert!(
            max_gbit < 1.02 * 4.0 * dense_gbit,
            "P={p}: ring per-node traffic {max_gbit} Gb exceeds the 4·dense cap"
        );
        // Whole-cluster bytes: 2(P−1) hops, each counted at sender and
        // receiver.
        let total: f64 = ring.per_node_gbit.iter().sum();
        let expect = 2.0 * 2.0 * (p - 1) as f64 * dense_gbit;
        assert!(
            (total - expect).abs() / expect < 0.02,
            "P={p}: cluster ring traffic {total} Gb vs expected {expect} Gb"
        );
    }
}

#[test]
fn tree_completes_with_gather_and_broadcast() {
    let g = zoo::googlenet();
    let mut cfg = SimConfig::system(System::WfbpPs, 8, 40.0);
    cfg.policy = SchemePolicy::AlwaysTree;
    let r = simulate(&g, &cfg);
    assert!(r.schemes.iter().all(|(_, s)| *s == CommScheme::Tree));
    assert!(r.iter_time_s >= r.compute_s);
    assert!(r.per_node_gbit.iter().all(|&b| b > 0.0));
    // The root relays the most traffic (gather in + broadcast out plus
    // relayed interior contributions); leaves send one copy up and
    // forward at most two down.
    assert!(
        r.per_node_gbit[0] > r.per_node_gbit[7],
        "root should carry more than a leaf: {:?}",
        r.per_node_gbit
    );
}

#[test]
fn topo_aware_policy_mixes_schemes_in_simulation() {
    // An oversubscribed 2-level cluster (4 nodes × 2 GPUs): the cost
    // model keeps the latency-bound first conv on PS and the FC layers
    // on SFB, but moves the bandwidth-bound big convs — whose PS traffic
    // would all cross the oversubscribed core — onto a collective. This
    // is the FireCaffe-style crossover, end to end in the simulator.
    let vgg = zoo::vgg19();
    let topo = Topology::two_level(
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
    let mut cfg = SimConfig::system(System::WfbpPs, 8, 10.0);
    cfg.policy = SchemePolicy::TopoAware(topo);
    let r = simulate(&vgg, &cfg);
    let scheme_of = |name: &str| {
        r.schemes
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, s)| s)
            .unwrap_or_else(|| panic!("{name} missing from {:?}", r.schemes))
    };
    assert_eq!(
        scheme_of("conv1_1"),
        CommScheme::Ps,
        "tiny first conv stays latency-bound on PS: {:?}",
        r.schemes
    );
    assert!(
        matches!(scheme_of("conv5_4"), CommScheme::Ring | CommScheme::Tree),
        "big conv should go collective: {:?}",
        r.schemes
    );
    assert_eq!(
        scheme_of("fc6"),
        CommScheme::Sfb,
        "FC layers stay on sufficient factors: {:?}",
        r.schemes
    );
    // The mixed plan still completes every layer on every node (the
    // simulate() internal barrier assertion), and every scheme family
    // appears at once.
    let distinct: std::collections::HashSet<_> = r.schemes.iter().map(|&(_, s)| s).collect();
    assert!(distinct.len() >= 3, "expected a 3-way mix: {:?}", r.schemes);
}

#[test]
fn ring_has_no_straggler_drop_escape_hatch() {
    // Collectives are barrier-full: every worker is a link in the chain,
    // so even with drop_stragglers the slow node gates the fold (unlike
    // PS, where its pushes are simply discarded). The run must still
    // complete — the dropped node keeps sending.
    let g = zoo::googlenet();
    let mut cfg = SimConfig::system(System::WfbpPs, 8, 40.0);
    cfg.policy = SchemePolicy::AlwaysRing;
    let clean = simulate(&g, &cfg);
    let mut slow = cfg.clone();
    slow.straggler = Some((3, 2.0));
    slow.drop_stragglers = true;
    let gated = simulate(&g, &slow);
    assert!(
        gated.iter_time_s > 1.5 * clean.iter_time_s,
        "ring cannot drop a straggler: {} vs {}",
        gated.iter_time_s,
        clean.iter_time_s
    );
}

#[test]
fn speedup_series_is_monotone_for_poseidon() {
    let g = zoo::googlenet();
    let series = speedup_series(
        &g,
        |n| SimConfig::system(System::Poseidon, n, 40.0),
        &[1, 2, 4, 8],
    );
    assert!(
        (series[0].1 - 1.0).abs() < 0.02,
        "1-node speedup ~1: {series:?}"
    );
    for w in series.windows(2) {
        assert!(w[1].1 > w[0].1, "speedup must grow: {series:?}");
    }
}
