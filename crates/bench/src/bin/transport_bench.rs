//! Many-link smoke of the TCP transport on an all-to-all mesh.
//!
//! Every endpoint `i` of a full mesh streams frames to `(i+1) % E` while
//! draining its own inbox, for `E` in `--endpoints` and payload sizes in
//! `--payloads` — the 8- and 32-endpoint scale `benchmark/`'s two-endpoint
//! probes do not reach. Each run asserts that every frame arrived, from the
//! right peer and in order, and that the traffic ledger holds exactly the
//! bytes sent. Reported per scenario: aggregate frames/s and bytes/s, plus
//! the p50/p99 *queueing delay* under that saturating load (send-enqueue to
//! recv-dequeue, micros — the `iter` header field carries the send
//! timestamp, so no extra wire bytes are involved). That is a backlog
//! figure, not a latency: unloaded round trips are `benchmark/`'s
//! `transport.tcp_rtt_*` probes, which also track the transport PR over PR.
//!
//! Results land in `--out` (one scenario per line; a temp file by default —
//! the committed `BENCH_transport.json` is the frozen PR-10 record of this
//! ring raced against the since-deleted thread-per-peer transport).
//!
//! ```text
//! cargo run --release -p poseidon-bench --bin transport_bench -- \
//!     --endpoints 2,8,32 --payloads 256,65536
//! ```

use poseidon::transport::{
    bind_ephemeral, Message, TcpFabricSpec, TcpTransport, TrafficCounters, Transport,
};
use std::process::ExitCode;
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

const USAGE: &str = "transport_bench: all-to-all mesh smoke (ring traffic) of the TCP transport
  --endpoints A,B,..  mesh sizes to sweep                     [2,8,32]
  --payloads A,B,..   payload bytes per frame                 [256,65536]
  --frames A,B,..     frames per endpoint, one per payload    [20000,1500]
  --repeat N          runs per scenario; best-of-N is kept    [3]
  --out PATH          write results JSON here                 [$TMPDIR/poseidon_transport_bench.json]";

#[derive(Clone)]
struct Args {
    endpoints: Vec<usize>,
    payloads: Vec<usize>,
    frames: Vec<usize>,
    out: String,
    repeat: usize,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            endpoints: vec![2, 8, 32],
            payloads: vec![256, 65536],
            frames: vec![20000, 1500],
            out: std::env::temp_dir()
                .join("poseidon_transport_bench.json")
                .to_string_lossy()
                .into_owned(),
            repeat: 3,
        }
    }
}

fn parse_list(val: &str, flag: &str) -> Result<Vec<usize>, String> {
    val.split(',')
        .map(|s| {
            s.trim()
                .parse()
                .map_err(|e| format!("bad value for {flag}: {e}"))
        })
        .collect()
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Err(USAGE.to_string());
        }
        let val = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        match flag.as_str() {
            "--endpoints" => args.endpoints = parse_list(&val, &flag)?,
            "--payloads" => args.payloads = parse_list(&val, &flag)?,
            "--frames" => args.frames = parse_list(&val, &flag)?,
            "--repeat" => {
                args.repeat = val
                    .parse()
                    .map_err(|_| format!("--repeat needs a positive integer, got {val}"))?;
                if args.repeat == 0 {
                    return Err("--repeat needs a positive integer".into());
                }
            }
            "--out" => args.out = val,
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    if args.frames.len() != args.payloads.len() {
        return Err("--frames needs one entry per --payloads entry".into());
    }
    if args.endpoints.iter().any(|&e| e < 2) {
        return Err("--endpoints entries must be >= 2 (a ring needs a peer)".into());
    }
    Ok(args)
}

/// One measured scenario.
struct Record {
    endpoints: usize,
    payload_bytes: usize,
    frames_per_endpoint: usize,
    frames_per_s: f64,
    bytes_per_s: f64,
    queue_delay_p50_us: u64,
    queue_delay_p99_us: u64,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// Runs one ring scenario, checks delivery and the byte audit, and returns
/// the aggregate rates plus the queueing-delay distribution.
fn run_ring(endpoints: usize, payload_bytes: usize, frames: usize) -> Record {
    let (listeners, addrs) = bind_ephemeral(endpoints).expect("bind mesh");
    let spec = TcpFabricSpec {
        addrs,
        node_of_endpoint: (0..endpoints).collect(),
        connect_timeout: Duration::from_secs(60),
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(100),
        reconnect_timeout: Duration::from_secs(10),
    };
    // Frame payload: a shared refcounted buffer, so the send loop measures
    // the transport, not the allocator. `encode_f32s` emits 4 + 4n bytes.
    let elems = payload_bytes.saturating_sub(4) / 4;
    let payload = poseidon::wire::encode_f32s(&vec![1.0f32; elems]);
    let frame = |k: usize, sent_us: u64| Message::GradChunk {
        iter: sent_us,
        layer: 0,
        chunk: k as u32,
        codec: poseidon::wire::Codec::Identity,
        data: payload.clone(),
    };
    let wire_frame_bytes = frame(0, 0).wire_bytes();

    let counters = Arc::new(TrafficCounters::new(endpoints));
    let barrier = Barrier::new(endpoints);
    let epoch = Instant::now();
    let done = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for (me, listener) in listeners.into_iter().enumerate() {
            let (spec, barrier, done, frame) = (&spec, &barrier, &done, &frame);
            let counters = Arc::clone(&counters);
            s.spawn(move || {
                let mut ep =
                    TcpTransport::connect_with_listener(spec, me, listener, Some(counters))
                        .expect("connect");
                let next = (me + 1) % endpoints;
                let prev = (me + endpoints - 1) % endpoints;
                barrier.wait();
                let start = epoch.elapsed();
                let mut delays = Vec::with_capacity(frames);
                let note = |env: poseidon::transport::Envelope, delays: &mut Vec<u64>| {
                    let now = epoch.elapsed().as_micros() as u64;
                    assert_eq!(env.from, prev, "endpoint {me}: frame from the wrong peer");
                    let Message::GradChunk { chunk, .. } = env.msg else {
                        panic!("endpoint {me}: unexpected {}", env.msg.tag_name());
                    };
                    assert_eq!(
                        chunk as usize,
                        delays.len(),
                        "endpoint {me}: lost or reordered"
                    );
                    delays.push(now.saturating_sub(env.msg.iter()));
                };
                for k in 0..frames {
                    ep.send(next, frame(k, epoch.elapsed().as_micros() as u64))
                        .expect("ring send");
                    // Drain eagerly so inboxes (and pooled buffers) stay
                    // bounded no matter how far ahead the sender runs.
                    while let Some(env) = ep.try_recv().expect("ring try_recv") {
                        note(env, &mut delays);
                    }
                }
                while delays.len() < frames {
                    let env = ep
                        .recv_timeout(Duration::from_secs(60))
                        .expect("ring recv starved");
                    note(env, &mut delays);
                }
                let elapsed = epoch.elapsed() - start;
                ep.shutdown().expect("shutdown");
                done.lock().unwrap().push((elapsed, delays));
            });
        }
    });

    // The byte audit: every endpoint sent and received `frames` whole frames.
    let per_node = frames as u64 * wire_frame_bytes;
    for node in 0..endpoints {
        assert_eq!(counters.tx_bytes(node), per_node, "node {node} tx ledger");
        assert_eq!(counters.rx_bytes(node), per_node, "node {node} rx ledger");
    }

    let finished = done.into_inner().unwrap();
    let slowest = finished
        .iter()
        .map(|(e, _)| *e)
        .max()
        .expect("at least one endpoint");
    let mut delays: Vec<u64> = finished.into_iter().flat_map(|(_, d)| d).collect();
    delays.sort_unstable();
    let total_frames = (endpoints * frames) as f64;
    let secs = slowest.as_secs_f64().max(1e-9);
    Record {
        endpoints,
        payload_bytes,
        frames_per_endpoint: frames,
        frames_per_s: total_frames / secs,
        bytes_per_s: total_frames * wire_frame_bytes as f64 / secs,
        queue_delay_p50_us: percentile(&delays, 0.50),
        queue_delay_p99_us: percentile(&delays, 0.99),
    }
}

fn render(records: &[Record]) -> String {
    let mut out = String::from("{\n  \"bench\": \"transport_ring\",\n  \"results\": [\n");
    for (i, r) in records.iter().enumerate() {
        let sep = if i + 1 == records.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"endpoints\": {}, \"payload_bytes\": {}, \
             \"frames_per_endpoint\": {}, \"frames_per_s\": {:.1}, \"bytes_per_s\": {:.1}, \
             \"queue_delay_p50_us\": {}, \"queue_delay_p99_us\": {}}}{sep}\n",
            r.endpoints,
            r.payload_bytes,
            r.frames_per_endpoint,
            r.frames_per_s,
            r.bytes_per_s,
            r.queue_delay_p50_us,
            r.queue_delay_p99_us,
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let mut records = Vec::new();
    for &endpoints in &args.endpoints {
        for (&payload, &frames) in args.payloads.iter().zip(&args.frames) {
            // Best-of-N: on a contended box one run can land in a bad
            // scheduling mode; the max measures what the transport can
            // actually sustain, and is a far stabler statistic across
            // invocations than any single sample.
            let rec = (0..args.repeat)
                .map(|_| run_ring(endpoints, payload, frames))
                .max_by(|a, b| a.frames_per_s.total_cmp(&b.frames_per_s))
                .expect("repeat >= 1");
            println!(
                "E={:<2} payload={:<6} {:>10.0} frames/s {:>12.0} B/s queue delay p50={}us p99={}us",
                rec.endpoints,
                rec.payload_bytes,
                rec.frames_per_s,
                rec.bytes_per_s,
                rec.queue_delay_p50_us,
                rec.queue_delay_p99_us
            );
            records.push(rec);
        }
    }

    if let Err(e) = std::fs::write(&args.out, render(&records)) {
        eprintln!("writing {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    println!("results written to {}", args.out);
    ExitCode::SUCCESS
}
