//! Elastic membership end to end: a real multi-process TCP mesh executes a
//! membership plan (a shard leaves, rejoins, then a worker restarts across a
//! generation boundary) while this test scrapes worker 0's `--metrics-addr`
//! endpoint mid-training. Every membership epoch (full, reduced, rejoined)
//! must be observed while the reconfiguration is in flight, and the run
//! itself must finish with every replica bitwise identical — elasticity
//! changes nothing about the training math.

mod common;

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const WORKERS: usize = 2;

#[test]
fn every_membership_epoch_is_scraped_mid_run() {
    let base_port = common::port(common::ELASTIC_MEMBERSHIP_MESH);
    let metrics_port = common::port(common::ELASTIC_MEMBERSHIP_METRICS);
    // 10 ms per iteration on worker 0 stretches the epochs so the scrape
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
            "--metrics-addr",
            &format!("127.0.0.1:{metrics_port}"),
            "--straggler",
            "0:10",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn poseidon-node launcher");

    // Scrape worker 0 until the full (0), reduced (1) and rejoined (2)
    // membership epochs have each been observed: one body showing the epoch
    // gauge at that value after the process has finished a step. Connection
    // errors are expected while processes come up and across the restart
    // boundary; every lap is throttled so the sampling loop cannot starve
    // the mesh of CPU on a loaded machine (each epoch lasts ≥ 0.6 s).
    let addr = format!("127.0.0.1:{metrics_port}");
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut scrapes = 0u64;
    let mut epochs_seen = [false; 3];
    while !epochs_seen.iter().all(|&seen| seen) {
        assert!(
            Instant::now() < deadline,
            "never saw every epoch (scrapes={scrapes}, epochs={epochs_seen:?})"
        );
        if child.try_wait().expect("child status").is_some() {
            break; // run over; the launcher asserts below diagnose why
        }
        std::thread::sleep(Duration::from_millis(10));
        let Ok(body) = common::scrape(&addr) else {
            continue;
        };
        scrapes += 1;
        if common::sample(&body, "poseidon_step_time_ns_count").unwrap_or(0) == 0 {
            continue; // no step finished in this process yet
        }
        let epoch = common::sample(&body, "poseidon_membership_epoch")
            .unwrap_or_else(|| panic!("no membership epoch gauge in scrape:\n{body}"));
        assert!(
            (epoch as usize) < epochs_seen.len(),
            "epoch {epoch} beyond plan"
        );
        epochs_seen[epoch as usize] = true;
    }

    let out = child.wait_with_output().expect("wait for mesh");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        out.status.success(),
        "launcher failed ({}):\n--- stdout ---\n{stdout}\n--- stderr ---\n{stderr}",
        out.status
    );
    assert!(
        epochs_seen.iter().all(|&seen| seen),
        "every membership epoch must be scraped mid-flight: {epochs_seen:?}"
    );
    // The reconfiguration was invisible to the math...
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
