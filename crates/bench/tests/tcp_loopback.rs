//! The capstone integration test: `poseidon-node` really runs `2P` OS
//! processes over a localhost TCP mesh, and the result is *bitwise* the
//! in-process `train()` result — same replica bytes, same counted traffic.
//!
//! Each launch listens in its own port range (`common/mod.rs`), so the
//! tests of this binary run in parallel without colliding.

mod common;

use poseidon::config::{Partition, SchemePolicy};
use poseidon::runtime::{flatten_model_params, train, RuntimeConfig};
use poseidon_nn::data::Dataset;
use poseidon_nn::layer::TensorShape;
use poseidon_nn::presets;
use std::process::Command;
use std::time::Duration;

const WORKERS: usize = 2;
const ITERS: usize = 4;
const BATCH: usize = 8;
const LR: f32 = 0.2;
const PAIR: usize = 37;
const SEED: u64 = 5;
const LAYERS: [usize; 4] = [12, 16, 8, 4];
const SAMPLES: usize = 96;

/// What the launcher printed, scraped back out.
struct LaunchReport {
    worker_params_hex: Vec<String>,
    total_bytes: u64,
    per_node: Vec<u64>,
    replicas_ok: bool,
}

fn run_launcher(policy: &str, base_port: u16) -> LaunchReport {
    let out = Command::new(env!("CARGO_BIN_EXE_poseidon-node"))
        .args([
            "--workers".to_string(),
            WORKERS.to_string(),
            "--iters".to_string(),
            ITERS.to_string(),
            "--batch".to_string(),
            BATCH.to_string(),
            "--lr".to_string(),
            LR.to_string(),
            "--policy".to_string(),
            policy.to_string(),
            "--pair-elems".to_string(),
            PAIR.to_string(),
            "--base-port".to_string(),
            base_port.to_string(),
            "--seed".to_string(),
            SEED.to_string(),
        ])
        .output()
        .expect("spawn poseidon-node launcher");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        out.status.success(),
        "launcher failed ({}):\n--- stdout ---\n{stdout}\n--- stderr ---\n{stderr}",
        out.status
    );

    let mut report = LaunchReport {
        worker_params_hex: Vec::new(),
        total_bytes: u64::MAX,
        per_node: Vec::new(),
        replicas_ok: false,
    };
    for line in stdout.lines() {
        // Child lines arrive as `e{i}. key=value`; summary lines bare.
        let body = match line.split_once(". ") {
            Some((tag, rest)) if tag.starts_with('e') => rest,
            _ => line,
        };
        let Some((key, val)) = body.split_once('=') else {
            continue;
        };
        match key {
            "params" => report.worker_params_hex.push(val.to_string()),
            "traffic_total_bytes" => report.total_bytes = val.parse().expect("total bytes"),
            "traffic_per_node" => {
                report.per_node = val
                    .split(',')
                    .map(|s| s.parse().expect("node bytes"))
                    .collect();
            }
            "replicas" => report.replicas_ok = val == "bitwise-identical",
            _ => {}
        }
    }
    assert!(report.replicas_ok, "launcher summary missing:\n{stdout}");
    assert_eq!(
        report.worker_params_hex.len(),
        WORKERS,
        "one params line per worker:\n{stdout}"
    );
    report
}

/// The identical configuration run in-process over the channel transport.
fn run_inproc(policy: SchemePolicy) -> poseidon::runtime::TrainResult<poseidon_nn::Network> {
    // Must mirror the binary's defaults exactly: same data seed (seed+1),
    // same noise, same model seed.
    let data = Dataset::gaussian_clusters(
        TensorShape::flat(LAYERS[0]),
        *LAYERS.last().unwrap(),
        SAMPLES,
        0.3,
        SEED + 1,
    );
    let cfg = RuntimeConfig {
        policy,
        partition: Partition::KvPairs { pair_elems: PAIR },
        comm_timeout: Duration::from_secs(60),
        ..RuntimeConfig::new(WORKERS, BATCH, LR, ITERS)
    };
    train(&|| presets::mlp(&LAYERS, SEED), &data, None, &cfg)
}

fn hex(vals: &[f32]) -> String {
    let mut s = String::with_capacity(vals.len() * 8);
    for v in vals {
        for b in v.to_le_bytes() {
            s.push_str(&format!("{b:02x}"));
        }
    }
    s
}

#[test]
fn multiprocess_tcp_equals_inproc_ps() {
    let tcp = run_launcher("ps", common::port(common::TCP_LOOPBACK_PS));
    let inproc = run_inproc(SchemePolicy::AlwaysPs);
    let want = hex(&flatten_model_params(&inproc.net));
    for (w, got) in tcp.worker_params_hex.iter().enumerate() {
        assert_eq!(
            got, &want,
            "worker {w}'s TCP replica differs from the in-process run"
        );
    }
    assert_eq!(
        tcp.total_bytes,
        inproc.traffic.total_bytes(),
        "both transports must count identical traffic for identical runs"
    );
    assert_eq!(tcp.per_node, inproc.traffic.per_node_totals());
}

/// The ring's exactness claim, end to end over real sockets: a ring run on
/// the 4-endpoint TCP loopback mesh produces replicas bitwise identical to
/// the *PS baseline* — not merely internally consistent — and counts the
/// same traffic as its in-process twin.
#[test]
fn multiprocess_tcp_ring_and_tree_equal_inproc_ps() {
    let ps = run_inproc(SchemePolicy::AlwaysPs);
    let want = hex(&flatten_model_params(&ps.net));
    let tcp = run_launcher("ring", common::port(common::TCP_LOOPBACK_RING));
    for (w, got) in tcp.worker_params_hex.iter().enumerate() {
        assert_eq!(
            got, &want,
            "ring: worker {w}'s TCP replica differs from in-process PS"
        );
    }
    let inproc = run_inproc(SchemePolicy::AlwaysRing);
    assert_eq!(
        hex(&flatten_model_params(&inproc.net)),
        want,
        "ring: in-process collective differs from PS"
    );
    assert_eq!(
        tcp.total_bytes,
        inproc.traffic.total_bytes(),
        "ring: both transports must count identical traffic"
    );
    assert_eq!(tcp.per_node, inproc.traffic.per_node_totals());
}

#[test]
fn multiprocess_tcp_equals_inproc_hybrid() {
    let tcp = run_launcher("hybrid", common::port(common::TCP_LOOPBACK_HYBRID));
    let inproc = run_inproc(SchemePolicy::Hybrid);
    let want = hex(&flatten_model_params(&inproc.net));
    assert_eq!(tcp.worker_params_hex[0], want, "hybrid TCP replica differs");
    assert_eq!(tcp.total_bytes, inproc.traffic.total_bytes());
}
