//! Races the synchronization schemes over the evented TCP transport.
//!
//! For each scheme in `--schemes` and tensor size in `--elems`, a mesh of
//! real localhost sockets performs `--iters` full BSP allreduce steps of one
//! `elems`-value f32 tensor, segmented into KV-pair-sized chunks
//! (`--seg-elems`), using the same frame types and fold discipline as the
//! runtime:
//!
//! - `ps`: `2P` endpoints (P workers + P colocated shards). Workers push
//!   every segment to its owner shard (`GradChunk`), the shard folds all `P`
//!   contributions and broadcasts the result back (`ParamChunk`).
//! - `ring`: `P` endpoints. Worker 0 seeds each segment down the id-ordered
//!   chain (`Collective`/REDUCE); every hop adds its own contribution to the
//!   partial in one pass into a fresh pooled lease
//!   ([`poseidon::wire::add_f32s_pooled`]); the last worker originates the
//!   DISTRIBUTE lap.
//! - `tree`: `P` endpoints. Non-roots send origin-tagged segments towards
//!   worker 0 through the binary tree; the root folds and broadcasts down.
//!
//! Reported per scenario: steps/s (best-of-`--repeat`, BSP-barriered) and
//! measured wire bytes per step from the transport's own traffic counters,
//! which must equal the scheme's frame count times the frame sizes exactly
//! (the traffic audit; the binary panics otherwise). Results land in `--out`
//! (a temp file by default); rates are printed, not gated.
//!
//! ```text
//! cargo run --release -p poseidon-bench --bin collective_bench -- \
//!     --workers 4 --elems 16384,1048576,8388608
//! ```

use poseidon::transport::{
    bind_ephemeral, Envelope, Message, TcpFabricSpec, TcpTransport, Transport,
};
use poseidon::wire::{self, COLLECTIVE_DISTRIBUTE, COLLECTIVE_REDUCE};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

const USAGE: &str = "collective_bench: allreduce step time per scheme over evented TCP
  --workers N         worker count P                          [4]
  --elems A,B,..      tensor sizes (f32 values) to sweep      [16384,1048576,8388608]
  --seg-elems N       segment size in f32 values              [524288]
  --iters N           measured BSP steps per scenario         [4]
  --repeat N          runs per scenario; best-of-N kept       [3]
  --schemes LIST      ps,ring,tree (any subset)               [ps,ring,tree]
  --out PATH          write results JSON here                 [$TMPDIR/poseidon_collective_bench.json]";

#[derive(Clone)]
struct Args {
    workers: usize,
    elems: Vec<usize>,
    seg_elems: usize,
    iters: usize,
    repeat: usize,
    schemes: Vec<String>,
    out: String,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            workers: 4,
            elems: vec![16_384, 1_048_576, 8_388_608],
            seg_elems: 524_288,
            iters: 4,
            repeat: 3,
            schemes: vec!["ps".into(), "ring".into(), "tree".into()],
            out: std::env::temp_dir()
                .join("poseidon_collective_bench.json")
                .to_string_lossy()
                .into_owned(),
        }
    }
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
        let bad = |e: &dyn std::fmt::Display| format!("bad value for {flag}: {e}");
        match flag.as_str() {
            "--workers" => args.workers = val.parse().map_err(|e| bad(&e))?,
            "--elems" => {
                args.elems = val
                    .split(',')
                    .map(|s| s.trim().parse().map_err(|e| bad(&e)))
                    .collect::<Result<_, _>>()?;
            }
            "--seg-elems" => args.seg_elems = val.parse().map_err(|e| bad(&e))?,
            "--iters" => args.iters = val.parse().map_err(|e| bad(&e))?,
            "--repeat" => args.repeat = val.parse().map_err(|e| bad(&e))?,
            "--schemes" => {
                args.schemes = val.split(',').map(|s| s.trim().to_string()).collect();
                for s in &args.schemes {
                    if s != "ps" && s != "ring" && s != "tree" {
                        return Err(format!("unknown scheme {s:?}\n{USAGE}"));
                    }
                }
            }
            "--out" => args.out = val,
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    if args.workers < 2 {
        return Err("--workers must be >= 2 (a collective needs a peer)".into());
    }
    if args.seg_elems == 0 || args.iters == 0 || args.repeat == 0 {
        return Err("--seg-elems, --iters and --repeat must be positive".into());
    }
    Ok(args)
}

struct Record {
    scheme: String,
    workers: usize,
    elems: usize,
    steps_per_s: f64,
    bytes_per_step: u64,
}

/// The deterministic per-worker contribution for one segment.
fn contribution(w: usize, seg: usize, len: usize) -> Vec<f32> {
    (0..len)
        .map(|j| ((w * 31 + seg * 7 + j) % 13) as f32 * 0.25 - 1.0)
        .collect()
}

/// Segment boundaries tiling `elems` values into `seg_elems`-sized pieces.
fn segments(elems: usize, seg_elems: usize) -> Vec<(usize, usize)> {
    let mut segs = Vec::new();
    let mut off = 0;
    while off < elems {
        let len = seg_elems.min(elems - off);
        segs.push((off, len));
        off += len;
    }
    if segs.is_empty() {
        segs.push((0, 0));
    }
    segs
}

fn connect_mesh(n: usize, nodes: Vec<usize>) -> (TcpFabricSpec, Vec<std::net::TcpListener>) {
    let (listeners, addrs) = bind_ephemeral(n).expect("bind mesh");
    let spec = TcpFabricSpec {
        addrs,
        node_of_endpoint: nodes,
        connect_timeout: Duration::from_secs(60),
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(100),
        reconnect_timeout: Duration::from_secs(10),
    };
    (spec, listeners)
}

const RECV_TIMEOUT: Duration = Duration::from_secs(120);

/// One scenario: `1 + iters` barriered allreduce steps (the first warms the
/// sockets and buffer pools and is not measured). Returns (steps/s, measured
/// wire bytes per step).
fn run_scheme(scheme: &str, p: usize, elems: usize, seg_elems: usize, iters: usize) -> (f64, u64) {
    let endpoints = if scheme == "ps" { 2 * p } else { p };
    let nodes: Vec<usize> = (0..endpoints).map(|e| e % p).collect();
    let (spec, listeners) = connect_mesh(endpoints, nodes);
    let segs = segments(elems, seg_elems);

    let barrier = Barrier::new(endpoints);
    // (per-step wall seconds after warmup, per-endpoint tx+rx bytes) rows.
    let measured = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for (me, listener) in listeners.into_iter().enumerate() {
            let (spec, barrier, measured, segs) = (&spec, &barrier, &measured, &segs);
            s.spawn(move || {
                let mut ep = TcpTransport::connect_with_listener(spec, me, listener, None)
                    .expect("mesh connect");
                let traffic = std::sync::Arc::clone(ep.traffic());
                let mut warm_bytes = 0u64;
                let mut start = Instant::now();
                for it in 0..=iters as u64 {
                    match scheme {
                        "ps" => ps_step(&mut ep, me, p, it, segs),
                        "ring" => ring_step(&mut ep, me, p, it, segs),
                        _ => tree_step(&mut ep, me, p, it, segs),
                    }
                    barrier.wait();
                    if it == 0 {
                        // Warmup done: measurement starts here.
                        let snap = traffic.snapshot();
                        warm_bytes = snap.tx.iter().sum::<u64>() + snap.rx.iter().sum::<u64>();
                        start = Instant::now();
                    }
                }
                let elapsed = start.elapsed();
                let snap = traffic.snapshot();
                let bytes = snap.tx.iter().sum::<u64>() + snap.rx.iter().sum::<u64>() - warm_bytes;
                ep.shutdown().expect("shutdown");
                measured.lock().unwrap().push((elapsed, bytes));
            });
        }
    });

    let rows = measured.into_inner().unwrap();
    let slowest = rows.iter().map(|(e, _)| *e).max().expect("endpoints ran");
    // Every byte is counted twice across endpoints (tx at the sender, rx at
    // the receiver); halve for wire bytes.
    let total_bytes: u64 = rows.iter().map(|(_, b)| *b).sum::<u64>() / 2;
    let secs = slowest.as_secs_f64().max(1e-9);
    (iters as f64 / secs, total_bytes / iters as u64)
}

fn expect_env(ep: &mut TcpTransport) -> Envelope {
    ep.recv_timeout(RECV_TIMEOUT).expect("recv starved")
}

/// PS worker/shard step. Workers are endpoints `0..p`, shards `p..2p`;
/// segment `g` is owned by shard `p + g % p` (round-robin KV pairs).
fn ps_step(ep: &mut TcpTransport, me: usize, p: usize, iter: u64, segs: &[(usize, usize)]) {
    if me < p {
        for (g, &(_, len)) in segs.iter().enumerate() {
            let data = wire::encode_f32s_pooled(&contribution(me, g, len));
            let owner = p + g % p;
            ep.send(
                owner,
                Message::GradChunk {
                    iter,
                    layer: 0,
                    chunk: g as u32,
                    codec: wire::Codec::Identity,
                    data,
                },
            )
            .expect("push");
        }
        let mut got = 0;
        while got < segs.len() {
            let env = expect_env(ep);
            match env.msg {
                Message::ParamChunk { .. } => got += 1,
                other => panic!("worker {me} got {other:?}"),
            }
        }
    } else {
        let shard = me - p;
        let owned: Vec<usize> = (0..segs.len()).filter(|g| g % p == shard).collect();
        let mut acc: BTreeMap<usize, (Vec<f32>, usize)> = BTreeMap::new();
        let mut folded = 0;
        while folded < owned.len() {
            let env = expect_env(ep);
            let Message::GradChunk { chunk, data, .. } = env.msg else {
                panic!("shard {shard} got a non-push frame");
            };
            let g = chunk as usize;
            let vals = wire::decode_f32s(&data).expect("decode push");
            let entry = acc.entry(g).or_insert_with(|| (vec![0.0; vals.len()], 0));
            for (a, v) in entry.0.iter_mut().zip(&vals) {
                *a += v;
            }
            entry.1 += 1;
            if entry.1 == p {
                let (sum, _) = acc.remove(&g).expect("just inserted");
                let data = wire::encode_f32s_pooled(&sum);
                for w in 0..p {
                    ep.send(
                        w,
                        Message::ParamChunk {
                            iter,
                            layer: 0,
                            chunk: g as u32,
                            codec: wire::Codec::Identity,
                            data: data.clone(),
                        },
                    )
                    .expect("broadcast");
                }
                folded += 1;
            }
        }
    }
}

/// Ring step: the runtime's chained REDUCE / DISTRIBUTE over `p` endpoints.
fn ring_step(ep: &mut TcpTransport, me: usize, p: usize, iter: u64, segs: &[(usize, usize)]) {
    let own: Vec<Vec<f32>> = segs
        .iter()
        .enumerate()
        .map(|(g, &(_, len))| contribution(me, g, len))
        .collect();
    if me == 0 {
        for (g, seg) in own.iter().enumerate() {
            ep.send(
                1,
                Message::Collective {
                    iter,
                    layer: 0,
                    route: wire::pack_collective(COLLECTIVE_REDUCE, 0, g),
                    codec: wire::Codec::Identity,
                    data: wire::encode_f32s_pooled(seg),
                },
            )
            .expect("seed chain");
        }
    }
    let mut done = 0;
    while done < segs.len() {
        let env = expect_env(ep);
        let Message::Collective { route, data, .. } = env.msg else {
            panic!("worker {me} got a non-collective frame");
        };
        let (phase, _origin, g) = wire::unpack_collective(route);
        if phase == COLLECTIVE_REDUCE {
            let summed = wire::add_f32s_pooled(&data, &own[g]).expect("fused add");
            if me == p - 1 {
                done += 1; // final value held here
                ep.send(
                    0,
                    Message::Collective {
                        iter,
                        layer: 0,
                        route: wire::pack_collective(COLLECTIVE_DISTRIBUTE, 0, g),
                        codec: wire::Codec::Identity,
                        data: summed,
                    },
                )
                .expect("originate distribute");
            } else {
                ep.send(
                    me + 1,
                    Message::Collective {
                        iter,
                        layer: 0,
                        route,
                        codec: wire::Codec::Identity,
                        data: summed,
                    },
                )
                .expect("forward reduce");
            }
        } else {
            done += 1;
            let next = me + 1;
            if next != p - 1 {
                ep.send(
                    next,
                    Message::Collective {
                        iter,
                        layer: 0,
                        route,
                        codec: wire::Codec::Identity,
                        data,
                    },
                )
                .expect("forward distribute");
            }
        }
    }
}

/// Tree step: origin-tagged gather to worker 0, fold, broadcast down.
fn tree_step(ep: &mut TcpTransport, me: usize, p: usize, iter: u64, segs: &[(usize, usize)]) {
    let children: Vec<usize> = [2 * me + 1, 2 * me + 2]
        .into_iter()
        .filter(|&c| c < p)
        .collect();
    if me != 0 {
        let parent = (me - 1) / 2;
        for (g, &(_, len)) in segs.iter().enumerate() {
            ep.send(
                parent,
                Message::Collective {
                    iter,
                    layer: 0,
                    route: wire::pack_collective(COLLECTIVE_REDUCE, me, g),
                    codec: wire::Codec::Identity,
                    data: wire::encode_f32s_pooled(&contribution(me, g, len)),
                },
            )
            .expect("gather");
        }
        let mut done = 0;
        while done < segs.len() {
            let env = expect_env(ep);
            let Message::Collective { route, data, .. } = env.msg else {
                panic!("worker {me} got a non-collective frame");
            };
            let (phase, _origin, _g) = wire::unpack_collective(route);
            if phase == COLLECTIVE_REDUCE {
                // Interior relay towards the root, payload untouched.
                let parent = (me - 1) / 2;
                ep.send(
                    parent,
                    Message::Collective {
                        iter,
                        layer: 0,
                        route,
                        codec: wire::Codec::Identity,
                        data,
                    },
                )
                .expect("relay");
            } else {
                done += 1;
                for &c in &children {
                    ep.send(
                        c,
                        Message::Collective {
                            iter,
                            layer: 0,
                            route,
                            codec: wire::Codec::Identity,
                            data: data.clone(),
                        },
                    )
                    .expect("cast");
                }
            }
        }
    } else {
        let mut acc: BTreeMap<usize, (Vec<f32>, usize)> = BTreeMap::new();
        for (g, &(_, len)) in segs.iter().enumerate() {
            acc.insert(g, (contribution(0, g, len), 0));
        }
        let mut folded = 0;
        while folded < segs.len() {
            let env = expect_env(ep);
            let Message::Collective { route, data, .. } = env.msg else {
                panic!("root got a non-collective frame");
            };
            let (phase, _origin, g) = wire::unpack_collective(route);
            assert_eq!(phase, COLLECTIVE_REDUCE, "root only gathers");
            let entry = acc.get_mut(&g).expect("segment in range");
            let vals = wire::decode_f32s(&data).expect("decode gather");
            for (a, v) in entry.0.iter_mut().zip(&vals) {
                *a += v;
            }
            entry.1 += 1;
            if entry.1 == p - 1 {
                let (sum, _) = acc.remove(&g).expect("just updated");
                let data = wire::encode_f32s_pooled(&sum);
                for &c in &children {
                    ep.send(
                        c,
                        Message::Collective {
                            iter,
                            layer: 0,
                            route: wire::pack_collective(COLLECTIVE_DISTRIBUTE, 0, g),
                            codec: wire::Codec::Identity,
                            data: data.clone(),
                        },
                    )
                    .expect("cast");
                }
                folded += 1;
            }
        }
    }
}

/// The wire bytes one step must move between nodes: every segment's frame
/// times the cross-node hops it takes. PS: `P - 1` pushes to the owner shard
/// and `P - 1` replies (the owner's colocated worker is loop-back). Ring:
/// `P - 1` REDUCE hops and `P - 1` DISTRIBUTE hops. Tree: each non-root's
/// contribution climbs its depth in hops, and the result reaches every
/// non-root once.
fn expected_bytes_per_step(scheme: &str, p: usize, elems: usize, seg_elems: usize) -> u64 {
    let hops = match scheme {
        "ps" | "ring" => 2 * (p - 1),
        _ => (1..p).map(|w| (w + 1).ilog2() as usize).sum::<usize>() + (p - 1),
    };
    segments(elems, seg_elems)
        .iter()
        .map(|&(_, len)| {
            let payload = wire::encode_f32s(&vec![0.0; len]).len();
            (hops * (wire::FRAME_HEADER_BYTES + payload)) as u64
        })
        .sum()
}

fn render(records: &[Record]) -> String {
    let mut out = String::from("{\n  \"bench\": \"collective_allreduce\",\n  \"results\": [\n");
    for (i, r) in records.iter().enumerate() {
        let sep = if i + 1 == records.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"scheme\": \"{}\", \"workers\": {}, \"elems\": {}, \
             \"steps_per_s\": {:.2}, \"bytes_per_step\": {}}}{sep}\n",
            r.scheme, r.workers, r.elems, r.steps_per_s, r.bytes_per_step,
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
    for &elems in &args.elems {
        // Small tensors finish a step in microseconds; stretch the measured
        // window so scheduler jitter doesn't swamp the steps/s ratio.
        let iters = args.iters.max(((1 << 21) / elems.max(1)).min(256));
        // Schemes innermost: each ps/ring/tree triple runs back-to-back so
        // ratios see like machine conditions.
        for scheme in &args.schemes {
            let mut best: Option<(f64, u64)> = None;
            for _ in 0..args.repeat {
                let r = run_scheme(scheme, args.workers, elems, args.seg_elems, iters);
                if best.as_ref().is_none_or(|b| r.0 > b.0) {
                    best = Some(r);
                }
            }
            let (steps_per_s, bytes_per_step) = best.expect("repeat >= 1");
            assert_eq!(
                bytes_per_step,
                expected_bytes_per_step(scheme, args.workers, elems, args.seg_elems),
                "{scheme} P={} elems={elems}: the traffic ledger disagrees with the frames sent",
                args.workers
            );
            println!(
                "{:>5} P={:<2} elems={:<9} {:>8.2} steps/s {:>12} B/step",
                scheme, args.workers, elems, steps_per_s, bytes_per_step
            );
            records.push(Record {
                scheme: scheme.clone(),
                workers: args.workers,
                elems,
                steps_per_s,
                bytes_per_step,
            });
        }
    }

    let json = render(&records);
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("writing {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    println!("results written to {}", args.out);

    ExitCode::SUCCESS
}
