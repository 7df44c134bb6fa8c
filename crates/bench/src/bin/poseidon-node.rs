//! Multi-process distributed SGD over the TCP transport.
//!
//! Without `--endpoint` this binary is the launcher: it spawns `2P` copies of
//! itself (`P` workers + `P` colocated KV shards) as separate OS processes on
//! a localhost TCP mesh, waits for all of them, merges their per-process
//! traffic ledgers, and asserts every worker converged to the bitwise-same
//! replica. With `--endpoint N` it runs exactly one participant via
//! [`poseidon::runtime::run_endpoint`].
//!
//! There is no control plane beyond the command line: every process derives
//! the same deterministic run plan (model init, data partition, scheme
//! assignment, chunk tables) from the same flags, exactly as the threaded
//! `train` does — so a run here is comparable byte-for-byte with an
//! in-process run of the same configuration.
//!
//! ```text
//! cargo run --release -p poseidon-bench --bin poseidon-node -- \
//!     --workers 3 --iters 5 --policy hybrid --base-port 46000
//! ```

use poseidon::checkpoint::{self, TrainingCheckpoint};
use poseidon::config::{Codec, CodecPolicy, Partition, SchemePolicy};
use poseidon::faults::FaultPlan;
use poseidon::health;
use poseidon::membership::{MembershipPlan, MembershipSchedule};
use poseidon::metrics::expose::MetricsServer;
use poseidon::runtime::{
    flatten_model_params, run_endpoint, FaultConfig, NodeOutcome, RuntimeConfig,
};
use poseidon::telemetry::{self, chrome, report, TelemetryConfig};
use poseidon::transport::{
    ReliabilityConfig, TcpFabricSpec, TcpTransport, TrafficSnapshot, Transport,
};
use poseidon_nn::data::Dataset;
use poseidon_nn::layer::TensorShape;
use poseidon_nn::presets;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

#[derive(Clone)]
struct Args {
    workers: usize,
    iters: usize,
    batch: usize,
    lr: f32,
    momentum: f32,
    policy: SchemePolicy,
    codec: CodecPolicy,
    pair_elems: usize,
    base_port: u16,
    seed: u64,
    layers: Vec<usize>,
    samples: usize,
    timeout_s: u64,
    trace_out: Option<String>,
    fault_plan: Option<FaultPlan>,
    reliable: bool,
    metrics_addr: Option<String>,
    straggler: Option<(usize, u64)>,
    straggler_factor: f64,
    membership: MembershipPlan,
    ckpt_dir: Option<String>,
    start_iter: usize,
    export_state: bool,
    restore: bool,
    endpoint: Option<usize>,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            workers: 2,
            iters: 4,
            batch: 8,
            lr: 0.2,
            momentum: 0.0,
            policy: SchemePolicy::Hybrid,
            codec: CodecPolicy::Identity,
            pair_elems: 37,
            base_port: 45000,
            seed: 5,
            layers: vec![12, 16, 8, 4],
            samples: 96,
            timeout_s: 60,
            trace_out: None,
            fault_plan: None,
            reliable: false,
            metrics_addr: None,
            straggler: None,
            straggler_factor: health::DEFAULT_STRAGGLER_FACTOR,
            membership: MembershipPlan::empty(),
            ckpt_dir: None,
            start_iter: 0,
            export_state: false,
            restore: false,
            endpoint: None,
        }
    }
}

const USAGE: &str = "poseidon-node: multi-process distributed SGD over TCP
  --workers N       worker count P (2P processes total)     [2]
  --iters N         BSP iterations                          [4]
  --batch N         per-worker minibatch                    [8]
  --lr F            learning rate                           [0.2]
  --momentum F      classical momentum                      [0.0]
  --policy S        ps | hybrid | sfb | adam | onebit | ring [hybrid]
  --codec S         gradient codec on PS/collective layers:
                    identity | onebit                       [identity]
  --pair-elems N    KV-pair size in f32 elements            [37]
  --base-port N     first TCP port (2P consecutive used)    [45000]
  --seed N          model/data seed                         [5]
  --layers A,B,..   MLP layer sizes, >= 2 entries           [12,16,8,4]
  --samples N       synthetic dataset size                  [96]
  --timeout-s N     per-endpoint comm timeout, seconds      [60]
  --trace-out PATH  record telemetry; write a merged Chrome trace to PATH
                    (children write PATH.eN.json; open in chrome://tracing)
  --fault-plan P    scripted chaos, e.g. 'drop:0>2@n3;sever:1>3@n5'
                    (action:from>to@trigger; implies the reliability layer)
  --reliable on     wrap every endpoint in the reliability layer even with
                    no faults scripted (sequencing, acks, retransmits)
  --metrics-addr A  serve Prometheus text on HOST:PORT; endpoint N binds
                    HOST:PORT+N, so every process of the mesh is scrapable
                    while it trains (curl any of them)
  --straggler W:MS  delay worker W by MS milliseconds per iteration (the
                    health plane should then name W in its verdict)
  --straggler-factor F  flag workers the floor of whose busy-time p50's
                    log2 bucket exceeds the mesh median by more than F  [2]
  --membership-plan P  scripted shard elasticity, e.g. 'leave:1@2;join:1@4'
                    (action:shard@iter; 'restart:S@N' marks a checkpoint/
                    resume generation boundary the launcher drives; join/
                    leave events need a PS-only configuration)
  --ckpt-dir PATH   directory for per-endpoint checkpoint slices
                    (e{N}.ckpt); the launcher picks a temp dir when the
                    membership plan has restarts and none is given
  --start-iter N    first iteration of this generation              [0]
  --export-state on write checkpoint slices on exit (needs --ckpt-dir)
  --restore on      resume from --ckpt-dir slices at --start-iter
  --endpoint N      run one endpoint (internal; launcher spawns these)";

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
            "--iters" => args.iters = val.parse().map_err(|e| bad(&e))?,
            "--batch" => args.batch = val.parse().map_err(|e| bad(&e))?,
            "--lr" => args.lr = val.parse().map_err(|e| bad(&e))?,
            "--momentum" => args.momentum = val.parse().map_err(|e| bad(&e))?,
            "--policy" => {
                args.policy = match val.as_str() {
                    "ps" => SchemePolicy::AlwaysPs,
                    "hybrid" => SchemePolicy::Hybrid,
                    "sfb" => SchemePolicy::AlwaysSfbForFc,
                    "adam" => SchemePolicy::AdamSf,
                    "onebit" => SchemePolicy::OneBit,
                    "ring" => SchemePolicy::AlwaysRing,
                    other => return Err(format!("unknown policy {other:?}\n{USAGE}")),
                }
            }
            "--codec" => {
                args.codec = CodecPolicy::Always(val.parse::<Codec>().map_err(|e| bad(&e))?)
            }
            "--pair-elems" => args.pair_elems = val.parse().map_err(|e| bad(&e))?,
            "--base-port" => args.base_port = val.parse().map_err(|e| bad(&e))?,
            "--seed" => args.seed = val.parse().map_err(|e| bad(&e))?,
            "--layers" => {
                args.layers = val
                    .split(',')
                    .map(|s| s.trim().parse().map_err(|e| bad(&e)))
                    .collect::<Result<_, _>>()?;
                if args.layers.len() < 2 {
                    return Err("--layers needs at least input,output".into());
                }
            }
            "--samples" => args.samples = val.parse().map_err(|e| bad(&e))?,
            "--timeout-s" => args.timeout_s = val.parse().map_err(|e| bad(&e))?,
            "--trace-out" => args.trace_out = Some(val),
            "--fault-plan" => args.fault_plan = Some(FaultPlan::parse(&val).map_err(|e| bad(&e))?),
            "--reliable" => args.reliable = on_off(&flag, &val)?,
            "--metrics-addr" => args.metrics_addr = Some(val),
            "--straggler" => {
                let (w, ms) = val
                    .split_once(':')
                    .ok_or_else(|| format!("--straggler takes W:MS, got {val:?}"))?;
                args.straggler = Some((
                    w.parse().map_err(|e| bad(&e))?,
                    ms.parse().map_err(|e| bad(&e))?,
                ));
            }
            "--straggler-factor" => args.straggler_factor = val.parse().map_err(|e| bad(&e))?,
            "--membership-plan" => {
                args.membership = MembershipPlan::parse(&val).map_err(|e| bad(&e))?
            }
            "--ckpt-dir" => args.ckpt_dir = Some(val),
            "--start-iter" => args.start_iter = val.parse().map_err(|e| bad(&e))?,
            "--export-state" => args.export_state = on_off(&flag, &val)?,
            "--restore" => args.restore = on_off(&flag, &val)?,
            "--endpoint" => args.endpoint = Some(val.parse().map_err(|e| bad(&e))?),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    if args.workers == 0 {
        return Err("--workers must be positive".into());
    }
    // Fail fast on an illegal plan — every process must resolve it anyway.
    MembershipSchedule::resolve(&args.membership, args.workers)
        .map_err(|e| format!("--membership-plan: {e}"))?;
    if (args.export_state || args.restore) && args.ckpt_dir.is_none() && args.endpoint.is_some() {
        return Err("--export-state/--restore need --ckpt-dir".into());
    }
    Ok(args)
}

fn on_off(flag: &str, val: &str) -> Result<bool, String> {
    match val {
        "on" | "true" | "1" => Ok(true),
        "off" | "false" | "0" => Ok(false),
        other => Err(format!("{flag} takes on|off, got {other:?}")),
    }
}

fn runtime_config(a: &Args) -> RuntimeConfig {
    RuntimeConfig {
        policy: a.policy,
        codec: a.codec,
        momentum: a.momentum,
        partition: Partition::KvPairs {
            pair_elems: a.pair_elems,
        },
        comm_timeout: Duration::from_secs(a.timeout_s),
        telemetry: if a.trace_out.is_some() {
            TelemetryConfig::enabled()
        } else {
            TelemetryConfig::default()
        },
        straggler_delay_ms: a.straggler,
        // The chaos plane: `run_endpoint` wraps the socket endpoint as
        // Reliable(Faulty(tcp)) and reports what it did.
        faults: FaultConfig {
            plan: a.fault_plan.clone(),
            reliability: a.reliable.then(ReliabilityConfig::default),
        },
        membership: a.membership.clone(),
        start_iter: a.start_iter,
        export_state: a.export_state,
        ..RuntimeConfig::new(a.workers, a.batch, a.lr, a.iters)
    }
}

/// The scrape address for endpoint `me` under `--metrics-addr HOST:PORT`:
/// `HOST:PORT+me`, one port per process of the mesh.
fn metrics_addr_for(base: &str, me: usize) -> Result<String, String> {
    let (host, port) = base
        .rsplit_once(':')
        .ok_or_else(|| format!("--metrics-addr takes HOST:PORT, got {base:?}"))?;
    let port: u16 = port
        .parse()
        .map_err(|e| format!("bad port in --metrics-addr {base:?}: {e}"))?;
    let port = port
        .checked_add(me as u16)
        .ok_or_else(|| format!("--metrics-addr {base:?}: port overflow at endpoint {me}"))?;
    Ok(format!("{host}:{port}"))
}

/// The per-child trace part file for endpoint `me`.
fn trace_part_path(base: &str, me: usize) -> String {
    format!("{base}.e{me}.json")
}

/// The checkpoint slice file for endpoint `me`: each process persists (and
/// restores) only its own state; the *set* of slices is the full training
/// checkpoint.
fn ckpt_path(dir: &str, me: usize) -> String {
    format!("{dir}/e{me}.ckpt")
}

fn dataset(a: &Args) -> Dataset {
    Dataset::gaussian_clusters(
        TensorShape::flat(a.layers[0]),
        *a.layers.last().unwrap(),
        a.samples,
        0.3,
        a.seed + 1,
    )
}

fn f32s_to_hex(vals: &[f32]) -> String {
    let mut s = String::with_capacity(vals.len() * 8);
    for v in vals {
        for b in v.to_le_bytes() {
            s.push_str(&format!("{b:02x}"));
        }
    }
    s
}

fn csv<T: std::fmt::Display>(vals: &[T]) -> String {
    vals.iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

/// One endpoint's role in the mesh: joins over the selected TCP core, trains
/// (or serves), prints its results as `key=value` lines for the launcher to
/// scrape.
fn run_one(a: &Args, me: usize) -> ExitCode {
    let spec = TcpFabricSpec::colocated_loopback(a.workers, a.base_port);
    assert!(me < 2 * a.workers, "endpoint {me} out of range");
    // Bind the scrape endpoint before joining the mesh so the process is
    // observable even while it blocks in connect. The guard keeps the
    // listener thread alive for the whole run.
    let _metrics = match a.metrics_addr.as_deref() {
        Some(base) => {
            let addr = match metrics_addr_for(base, me) {
                Ok(addr) => addr,
                Err(e) => {
                    eprintln!("endpoint {me}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match MetricsServer::serve(&addr) {
                Ok(srv) => {
                    println!("metrics_addr={}", srv.addr());
                    Some(srv)
                }
                Err(e) => {
                    eprintln!("endpoint {me}: metrics bind {addr}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => None,
    };
    match TcpTransport::connect(&spec, me) {
        Ok(ep) => run_role(a, me, &spec, ep),
        Err(e) => {
            eprintln!("endpoint {me}: mesh connect failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_role(a: &Args, me: usize, spec: &TcpFabricSpec, endpoint: TcpTransport) -> ExitCode {
    let traffic = std::sync::Arc::clone(endpoint.traffic());
    let mut cfg = runtime_config(a);
    let data = dataset(a);
    let layers = a.layers.clone();
    let seed = a.seed;
    let factory = move || presets::mlp(&layers, seed);

    // Resume: read only this endpoint's slice and wrap it as a one-slice
    // training checkpoint — `run_endpoint` picks its own slice back out.
    if a.restore {
        let dir = a
            .ckpt_dir
            .as_deref()
            .expect("parse_args enforced --ckpt-dir");
        let path = ckpt_path(dir, me);
        let blob = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("endpoint {me}: reading checkpoint {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let resume = if me < a.workers {
            checkpoint::decode_worker(&blob).map(|w| TrainingCheckpoint {
                next_iter: a.start_iter as u64,
                workers: vec![w],
                shards: Vec::new(),
            })
        } else {
            checkpoint::decode_shard(&blob).map(|s| TrainingCheckpoint {
                next_iter: a.start_iter as u64,
                workers: Vec::new(),
                shards: vec![s],
            })
        };
        match resume {
            Some(ck) => cfg.resume = Some(ck),
            None => {
                eprintln!("endpoint {me}: checkpoint {path} is corrupt or mis-typed");
                return ExitCode::FAILURE;
            }
        }
    }

    let outcome = run_endpoint(&factory, &data, None, &cfg, endpoint);

    println!("endpoint={me}");
    println!("node={}", spec.node_of_endpoint[me]);
    let snap = traffic.snapshot();
    println!("tx={}", csv(&snap.tx));
    println!("rx={}", csv(&snap.rx));
    let (NodeOutcome::Worker { chaos, .. } | NodeOutcome::Server { chaos, .. }) = &outcome;
    if let Some(report) = chaos {
        println!("faults_fired={}", report.fired.len());
        println!("retransmits={}", report.retransmits);
        println!("dups_dropped={}", report.dups_dropped);
        println!("nacks_sent={}", report.nacks_sent);
        println!("acks_sent={}", report.acks_sent);
        println!("recovery_actions={}", report.recovery_actions());
    }
    if let Some(base) = &a.trace_out {
        // run_endpoint's shutdown joined the reader threads, so every
        // recording thread of this process has flushed by now.
        let trace = telemetry::drain();
        let path = trace_part_path(base, me);
        if me == 0 {
            // One child demonstrates the plain-text summary (scrape-safe:
            // report lines carry no `key=value` shape).
            print!(
                "{}",
                report::summarize(std::slice::from_ref(&trace)).render()
            );
        }
        if let Err(e) = std::fs::write(&path, chrome::to_chrome_json(&[trace])) {
            eprintln!("endpoint {me}: writing trace {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("trace_file={path}");
    }
    let ckpt_blob = match outcome {
        NodeOutcome::Worker {
            losses,
            net,
            busy_p50_ns,
            checkpoint,
            ..
        } => {
            println!("role=worker");
            println!("losses={}", csv(&losses));
            println!("busy_p50_ns={busy_p50_ns}");
            println!("params={}", f32s_to_hex(&flatten_model_params(&net)));
            checkpoint.map(|ck| checkpoint::encode_worker(&ck))
        }
        NodeOutcome::Server { checkpoint, .. } => {
            println!("role=server");
            checkpoint.map(|ck| checkpoint::encode_shard(&ck))
        }
    };
    if let Some(blob) = ckpt_blob {
        let dir = a
            .ckpt_dir
            .as_deref()
            .expect("parse_args enforced --ckpt-dir");
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("endpoint {me}: creating {dir}: {e}");
            return ExitCode::FAILURE;
        }
        let path = ckpt_path(dir, me);
        if let Err(e) = std::fs::write(&path, &blob) {
            eprintln!("endpoint {me}: writing checkpoint {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("ckpt_file={path}");
    }
    ExitCode::SUCCESS
}

/// Scraped output of one child process.
struct ChildReport {
    endpoint: usize,
    role: String,
    losses: Vec<f32>,
    params: Option<String>,
    traffic: TrafficSnapshot,
    faults_fired: u64,
    recovery_actions: u64,
    busy_p50_ns: Option<u64>,
}

fn parse_report(endpoint: usize, stdout: &str) -> Result<ChildReport, String> {
    let mut report = ChildReport {
        endpoint,
        role: String::new(),
        losses: Vec::new(),
        params: None,
        traffic: TrafficSnapshot::zeros(0),
        faults_fired: 0,
        recovery_actions: 0,
        busy_p50_ns: None,
    };
    let parse_u64s = |v: &str| -> Result<Vec<u64>, String> {
        v.split(',')
            .map(|s| s.parse().map_err(|e| format!("endpoint {endpoint}: {e}")))
            .collect()
    };
    for line in stdout.lines() {
        let Some((key, val)) = line.split_once('=') else {
            continue;
        };
        match key {
            "endpoint" => {
                let reported: usize = val.parse().map_err(|e| format!("{e}"))?;
                if reported != endpoint {
                    return Err(format!("child {endpoint} reported endpoint {reported}"));
                }
            }
            "role" => report.role = val.to_string(),
            "losses" => {
                report.losses = val
                    .split(',')
                    .map(|s| s.parse().map_err(|e| format!("endpoint {endpoint}: {e}")))
                    .collect::<Result<_, String>>()?;
            }
            "params" => report.params = Some(val.to_string()),
            "tx" => report.traffic.tx = parse_u64s(val)?,
            "rx" => report.traffic.rx = parse_u64s(val)?,
            "faults_fired" => {
                report.faults_fired = val
                    .parse()
                    .map_err(|e| format!("endpoint {endpoint}: {e}"))?
            }
            "recovery_actions" => {
                report.recovery_actions = val
                    .parse()
                    .map_err(|e| format!("endpoint {endpoint}: {e}"))?
            }
            "busy_p50_ns" => {
                report.busy_p50_ns = Some(
                    val.parse()
                        .map_err(|e| format!("endpoint {endpoint}: {e}"))?,
                )
            }
            _ => {}
        }
    }
    if report.role.is_empty() {
        return Err(format!(
            "endpoint {endpoint} produced no report — it likely died; output:\n{stdout}"
        ));
    }
    Ok(report)
}

/// One generation's merged results (between process-restart boundaries).
struct Generation {
    reports: Vec<ChildReport>,
    traffic: TrafficSnapshot,
}

/// Spawns all `2P` endpoints of one generation first (each blocks in mesh
/// connect until every peer is up, so spawn-then-wait is mandatory), then
/// collects, merges ledgers and asserts the workers' replicas are bitwise
/// identical.
///
/// Each child runs the launcher's own arguments followed by the
/// generation's overrides; parsing is last-flag-wins, so the overrides
/// decide and every other flag reaches the child as the user spelled it.
fn run_generation(
    a: &Args,
    start_iter: usize,
    iters: usize,
    export: bool,
    restore: bool,
    ckpt_dir: Option<&str>,
) -> Result<Generation, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let switch = |on: bool| if on { "on" } else { "off" };
    let n = 2 * a.workers;
    let mut children = Vec::with_capacity(n);
    for me in 0..n {
        let child = Command::new(&exe)
            .args(&argv)
            .args([
                "--iters",
                &iters.to_string(),
                "--start-iter",
                &start_iter.to_string(),
                "--endpoint",
                &me.to_string(),
                "--export-state",
                switch(export),
                "--restore",
                switch(restore),
            ])
            .args(ckpt_dir.iter().flat_map(|d| ["--ckpt-dir", d]))
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn endpoint {me}: {e}"))?;
        children.push(child);
    }

    let mut reports = Vec::with_capacity(n);
    let mut failures = Vec::new();
    for (me, child) in children.into_iter().enumerate() {
        let out = child
            .wait_with_output()
            .map_err(|e| format!("wait endpoint {me}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        for line in stdout.lines() {
            println!("e{me}. {line}");
        }
        if !out.status.success() {
            failures.push(format!("endpoint {me} exited with {}", out.status));
            continue;
        }
        match parse_report(me, &stdout) {
            Ok(r) => reports.push(r),
            Err(e) => failures.push(e),
        }
    }
    if !failures.is_empty() {
        return Err(failures.join("\n"));
    }

    // Merge the per-process ledgers. Each process counted only the frames it
    // sent (crediting both its tx and the destination's rx), so the sum over
    // processes double-counts nothing.
    let mut traffic = TrafficSnapshot::zeros(a.workers);
    for r in &reports {
        traffic.accumulate(&r.traffic);
    }

    // BSP must leave every worker replica bitwise identical.
    let workers: Vec<&ChildReport> = reports.iter().filter(|r| r.role == "worker").collect();
    if workers.len() != a.workers {
        return Err(format!(
            "expected {} worker reports, got {}",
            a.workers,
            workers.len()
        ));
    }
    let reference = workers[0].params.as_deref().unwrap_or_default();
    for w in &workers[1..] {
        if w.params.as_deref().unwrap_or_default() != reference {
            return Err(format!(
                "worker {} diverged from worker {} — replicas are not bitwise identical",
                w.endpoint, workers[0].endpoint
            ));
        }
    }

    // Merge the per-process Chrome trace parts into one file and validate
    // its structure (balanced spans, monotonic timestamps per track). Each
    // generation overwrites the last one's, so the file holds the final
    // generation.
    if let Some(base) = &a.trace_out {
        let parts = (0..n)
            .map(|me| {
                let path = trace_part_path(base, me);
                std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let merged = chrome::merge_chrome_json(&parts)?;
        let stats = chrome::validate(&merged)?;
        std::fs::write(base, &merged).map_err(|e| format!("writing {base}: {e}"))?;
        println!(
            "trace=valid events={} spans={} tracks={} pids={} file={base}",
            stats.events, stats.spans, stats.tracks, stats.pids
        );
    }

    Ok(Generation { reports, traffic })
}

/// Launcher: split the run into generations at the plan's `restart`
/// boundaries, run each as a full `2P`-process mesh (exporting checkpoint
/// slices at every internal boundary, restoring after it), and summarize
/// across generations. A plan with no restarts is a single generation — the
/// pre-elastic behaviour, flag for flag.
fn launch(a: &Args) -> Result<(), String> {
    let schedule = MembershipSchedule::resolve(&a.membership, a.workers)
        .expect("parse_args validated the plan");
    let begin = a.start_iter;
    let end = a.start_iter + a.iters;
    let mut cuts: Vec<usize> = schedule
        .restarts()
        .iter()
        .copied()
        .filter(|&r| r > begin && r < end)
        .collect();
    cuts.push(end);
    let n_gens = cuts.len();

    // Checkpoint slices need a home once any generation exports or restores.
    let ckpt_dir = if a.ckpt_dir.is_some() {
        a.ckpt_dir.clone()
    } else if n_gens > 1 || a.export_state || a.restore {
        let dir = std::env::temp_dir().join(format!("poseidon-node-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Some(dir.to_string_lossy().into_owned())
    } else {
        None
    };

    let mut traffic = TrafficSnapshot::zeros(a.workers);
    let mut last = None;
    let mut start = begin;
    for (g, &cut) in cuts.iter().enumerate() {
        let export = g + 1 < n_gens || a.export_state;
        let restore = start > begin || a.restore;
        if n_gens > 1 {
            println!(
                "generation={g} start_iter={start} iters={} export={export} restore={restore}",
                cut - start
            );
        }
        let gen = run_generation(a, start, cut - start, export, restore, ckpt_dir.as_deref())?;
        traffic.accumulate(&gen.traffic);
        last = Some(gen);
        start = cut;
    }
    let last = last.expect("at least one generation");
    let reports = &last.reports;
    let workers: Vec<&ChildReport> = reports.iter().filter(|r| r.role == "worker").collect();

    println!(
        "workers={} iters={} policy={:?}",
        a.workers, a.iters, a.policy
    );
    if !schedule.is_trivial() || n_gens > 1 {
        println!(
            "membership_epochs={} generations={n_gens}",
            schedule.epochs()
        );
    }
    println!(
        "final_loss={}",
        workers[0].losses.last().copied().unwrap_or(f32::NAN)
    );
    println!("traffic_total_bytes={}", traffic.total_bytes());
    println!("traffic_per_node={}", csv(&traffic.per_node_totals()));

    // Mesh-level health verdict from the workers' reported busy-time p50s:
    // the same detector `train` runs in-process, here fed across processes.
    let busy: Vec<(usize, u64)> = workers
        .iter()
        .filter_map(|w| w.busy_p50_ns.map(|b| (w.endpoint, b)))
        .collect();
    if busy.len() == workers.len() {
        print!("{}", health::detect(&busy, a.straggler_factor).render());
    }
    if a.fault_plan.is_some() || a.reliable {
        let fired: u64 = reports.iter().map(|r| r.faults_fired).sum();
        let recovered: u64 = reports.iter().map(|r| r.recovery_actions).sum();
        println!("faults_fired_total={fired}");
        println!("recovery_actions_total={recovered}");
    }
    println!("replicas=bitwise-identical");
    Ok(())
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    match a.endpoint {
        Some(me) => run_one(&a, me),
        None => match launch(&a) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("poseidon-node: {msg}");
                ExitCode::FAILURE
            }
        },
    }
}
