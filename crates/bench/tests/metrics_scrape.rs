//! `poseidon-node --metrics-addr` end to end: a real multi-process TCP mesh
//! where every endpoint process serves Prometheus text while it trains. The
//! test launches the mesh with one scripted straggler, scrapes EVERY
//! endpoint over a raw `TcpStream` while the run is in flight, asserts the
//! required metric families are present in the exposition, and then checks
//! the launcher's health verdict names the delayed worker.

mod common;

use common::scrape_until;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const WORKERS: usize = 2;
/// Endpoints in the mesh: P workers + P colocated shards.
const ENDPOINTS: usize = 2 * WORKERS;

fn kill(mut child: Child) -> ! {
    child.kill().ok();
    child.wait().ok();
    panic!("mesh run ended while scrapes were outstanding");
}

#[test]
fn every_endpoint_serves_prometheus_text_while_training() {
    let base_port = common::port(common::METRICS_SCRAPE_MESH);
    let metrics_port = common::port(common::METRICS_SCRAPE_METRICS);
    // Enough iterations to hold the mesh open (the delayed worker adds
    // 15 ms per iteration) while every endpoint gets scraped.
    let mut child = Command::new(env!("CARGO_BIN_EXE_poseidon-node"))
        .args([
            "--workers",
            &WORKERS.to_string(),
            "--iters",
            "400",
            "--batch",
            "8",
            "--policy",
            "hybrid",
            "--base-port",
            &base_port.to_string(),
            "--metrics-addr",
            &format!("127.0.0.1:{metrics_port}"),
            "--straggler",
            "1:15",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn poseidon-node launcher");

    // Families every process must expose, and the per-role ones.
    let worker_families = [
        "poseidon_step_time_ns_bucket",
        "poseidon_sync_wait_ns",
        "poseidon_busy_time_ns",
        "poseidon_apply_ns",
    ];
    let shard_families = ["poseidon_serve_ns"];
    let transport_families = ["poseidon_tx_frames_total", "poseidon_tx_bytes_total"];

    let deadline = Instant::now() + Duration::from_secs(60);
    for me in 0..ENDPOINTS {
        let addr = format!("127.0.0.1:{}", metrics_port + me as u16);
        // Wait until the endpoint has trained far enough that its role
        // families are populated, then assert the full set in one body.
        let probe = if me < WORKERS {
            "poseidon_step_time_ns_count"
        } else {
            "poseidon_serve_ns_count"
        };
        let body = scrape_until(&addr, deadline, |b| b.contains(probe));
        if child.try_wait().expect("child status").is_some() {
            kill(child); // diagnoses "run finished before we scraped"
        }
        let required: &[&str] = if me < WORKERS {
            &worker_families
        } else {
            &shard_families
        };
        for family in required.iter().chain(&transport_families) {
            assert!(
                body.contains(family),
                "endpoint {me}: family {family} missing from scrape:\n{body}"
            );
        }
        assert!(
            body.contains("# TYPE poseidon_step_time_ns histogram")
                || body.contains("# TYPE poseidon_serve_ns histogram"),
            "endpoint {me}: exposition lacks TYPE headers:\n{body}"
        );
    }

    // A second scrape of a worker observes progress: the step count grew.
    let w0 = format!("127.0.0.1:{metrics_port}");
    let count_of = |body: &str| common::sample(body, "poseidon_step_time_ns_count").unwrap_or(0);
    let first = count_of(&scrape_until(&w0, deadline, |b| count_of(b) > 0));
    scrape_until(&w0, deadline, |b| count_of(b) > first);

    let out = child.wait_with_output().expect("wait for mesh");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        out.status.success(),
        "launcher failed ({}):\n--- stdout ---\n{stdout}\n--- stderr ---\n{stderr}",
        out.status
    );
    // The run stayed correct under concurrent scraping...
    assert!(
        stdout.contains("replicas=bitwise-identical"),
        "replica check missing:\n{stdout}"
    );
    // ...and the health plane named the delayed worker.
    let verdict = stdout
        .lines()
        .find(|l| l.starts_with("health=straggler"))
        .unwrap_or_else(|| panic!("no straggler verdict:\n{stdout}"));
    assert!(
        verdict.contains('1'),
        "verdict does not name worker 1: {verdict}\n{stdout}"
    );
    assert!(
        stdout.contains("health worker=1") && stdout.contains("STRAGGLER"),
        "per-worker verdict lines missing:\n{stdout}"
    );
}
