//! The elastic front door end to end: a real multi-process TCP mesh executes
//! a membership plan (a shard leaves, rejoins, then a worker restarts across
//! a generation boundary) while this test queries `--serve-addr` over raw
//! sockets mid-training. The serving plane must answer inference requests
//! from snapshots of *every* membership epoch (full, reduced, rejoined) while
//! the reconfiguration is in flight, snapshots must advance, and the run itself
//! must finish with every replica bitwise identical — serving and elasticity
//! change nothing about the training math.

mod common;

use poseidon::serving::{query, SERVE_OK};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const WORKERS: usize = 2;
/// Default model of the node binary: input width 12, output width 4.
const D: usize = 12;
const K: usize = 4;

#[test]
fn serving_stays_live_through_reconfiguration() {
    let base_port = common::port(common::ELASTIC_SERVING_MESH);
    let serve_port = common::port(common::ELASTIC_SERVING_SERVE);
    // 10 ms per iteration on worker 0 stretches the epochs so the query
    // loop observably samples them; the restart at 160 splits the run into
    // two generations (kill + checkpoint-restore over real processes).
    let mut child = Command::new(env!("CARGO_BIN_EXE_poseidon-node"))
        .args([
            "--workers",
            &WORKERS.to_string(),
            "--iters",
            "200",
            "--batch",
            "8",
            "--policy",
            "ps",
            "--base-port",
            &base_port.to_string(),
            "--membership-plan",
            "leave:1@60;join:1@120;restart:0@160",
            "--serve-addr",
            &format!("127.0.0.1:{serve_port}"),
            "--straggler",
            "0:10",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn poseidon-node launcher");

    // Query worker 0's front door until replies from the full (0), reduced
    // (1) and rejoined (2) membership epochs have been observed. Connection errors
    // are expected while processes come up and across the restart boundary;
    // every lap is throttled so the sampling loop cannot starve the mesh of
    // CPU on a loaded machine (the plan stretches over ~2 s, so ~5 ms
    // sampling still sees hundreds of replies).
    let addr = format!("127.0.0.1:{serve_port}");
    let inputs: Vec<f32> = (0..2 * D).map(|j| (j % 7) as f32 * 0.3 - 1.0).collect();
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut oks = 0u64;
    let mut min_iter = u64::MAX;
    let mut max_iter = 0u64;
    let mut epochs_seen = [false; 3];
    while !epochs_seen.iter().all(|&seen| seen) {
        assert!(
            Instant::now() < deadline,
            "never saw every epoch (oks={oks}, epochs={epochs_seen:?})"
        );
        if child.try_wait().expect("child status").is_some() {
            break; // run over; the launcher asserts below diagnose why
        }
        std::thread::sleep(Duration::from_millis(5));
        let Ok(reply) = query(&addr, 2, D, &inputs) else {
            continue;
        };
        if reply.status != SERVE_OK {
            continue; // no snapshot yet
        }
        assert_eq!(reply.k, K, "output width");
        assert_eq!(reply.outputs.len(), 2 * K, "torn reply");
        assert!(
            reply.outputs.iter().all(|v| v.is_finite()),
            "non-finite inference output"
        );
        assert!(
            (reply.epoch as usize) < epochs_seen.len(),
            "epoch beyond plan"
        );
        epochs_seen[reply.epoch as usize] = true;
        oks += 1;
        min_iter = min_iter.min(reply.iter);
        max_iter = max_iter.max(reply.iter);
    }

    let out = child.wait_with_output().expect("wait for mesh");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        out.status.success(),
        "launcher failed ({}):\n--- stdout ---\n{stdout}\n--- stderr ---\n{stderr}",
        out.status
    );
    // The front door actually answered, from every membership epoch, with
    // snapshots that advanced.
    assert!(oks > 0, "no inference request was ever answered");
    assert!(
        max_iter > min_iter,
        "snapshots never advanced (stuck at iter {max_iter})"
    );
    assert!(
        epochs_seen.iter().all(|&seen| seen),
        "every membership epoch must answer queries mid-flight: {epochs_seen:?}"
    );
    // Serving and the reconfiguration were invisible to the math...
    assert!(
        stdout.contains("replicas=bitwise-identical"),
        "replica check missing:\n{stdout}"
    );
    // ...the plan actually ran (3 epochs, restart split into 2 generations)...
    assert!(
        stdout.contains("membership_epochs=3 generations=2"),
        "membership summary missing:\n{stdout}"
    );
    // ...and the loss kept descending across the whole elastic run.
    let final_loss: f32 = stdout
        .lines()
        .find_map(|l| l.strip_prefix("final_loss="))
        .expect("final_loss line")
        .parse()
        .expect("final_loss parses");
    assert!(
        final_loss.is_finite() && final_loss < 1.0,
        "training did not converge: final_loss={final_loss}\n{stdout}"
    );
}
