//! The parent side of `run`: per workload, reference results computed here,
//! measured runs in child processes, the correctness gate over both, and the
//! aggregation into named metrics.

use crate::child::{digest_f32s, out_dir, write_artifact};
use crate::json::{self, Json};
use crate::names::{END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles};
use crate::workloads::{
    final_loss, serial_reference, workload, TrainSpec, Workload, NAMES, WORKERS,
};
use poseidon::config::CodecPolicy;
use poseidon::runtime::{flatten_model_params, train};
use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// A child that has not finished by then is killed and its run counted as
/// failed; `comm_timeout` (20 s) fails a wedged mesh long before.
const CHILD_WALL_LIMIT: Duration = Duration::from_secs(150);

pub struct RunArgs {
    pub workloads: Vec<String>,
    pub seed: u64,
    pub seconds: usize,
    pub repeats: usize,
    pub quick: bool,
    /// `Some(traced)` when called the way the benchmark driver calls it:
    /// one workload, and the last line of output is the driver's result
    /// object holding the end-to-end (`false`) or per-layer (`true`) metrics.
    pub driver_trace: Option<bool>,
}

/// Median and spread of one end-to-end metric over the measured runs.
struct Summary {
    median: f64,
    q1: f64,
    q3: f64,
    n: usize,
}

impl Summary {
    fn of(values: &[f64]) -> Summary {
        let (q1, q3) = quartiles(values);
        Summary {
            median: median(values),
            q1,
            q3,
            n: values.len(),
        }
    }
}

struct WorkloadResult {
    name: String,
    ops_per_run: usize,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    end_to_end: Vec<(&'static str, Summary)>,
    per_layer: Vec<(&'static str, f64)>,
    exact: Json,
}

/// Which of this program's subcommands a child process runs.
#[derive(Clone, Copy, PartialEq)]
enum ChildKind {
    /// One measured run.
    Run,
    /// One measured run with the telemetry recorder on.
    TracedRun,
    /// The layer probes, alone in a fresh process.
    Probe,
}

/// One child process: the JSON object on the last line it printed, or why
/// there is none.
fn spawn_child(name: &str, args: &RunArgs, kind: ChildKind) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg(if kind == ChildKind::Probe {
        "probe"
    } else {
        "child"
    })
    .args(["--workload", name])
    .args(["--seed", &args.seed.to_string()])
    .args(["--seconds", &args.seconds.to_string()])
    .stdin(Stdio::null())
    .stdout(Stdio::piped());
    if args.quick {
        cmd.arg("--quick");
    }
    if kind == ChildKind::TracedRun {
        cmd.arg("--traced");
    }
    let mut child = cmd.spawn().map_err(|e| format!("spawn child: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout was piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        stdout.read_to_string(&mut text).map(|_| text)
    });
    let deadline = Instant::now() + CHILD_WALL_LIMIT;
    let status = loop {
        match child
            .try_wait()
            .map_err(|e| format!("wait for child: {e}"))?
        {
            Some(status) => break status,
            None if Instant::now() >= deadline => {
                // Kill, then reap, so no process outlives the benchmark.
                let _ = child.kill();
                let _ = child.wait();
                let _ = reader.join();
                return Err(format!(
                    "child exceeded {CHILD_WALL_LIMIT:?} and was killed"
                ));
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    let text = reader
        .join()
        .map_err(|_| "child output reader panicked".to_string())?
        .map_err(|e| format!("read child output: {e}"))?;
    if !status.success() {
        return Err(format!("child exited with {status}"));
    }
    let last = text.lines().last().ok_or("child printed nothing")?;
    json::parse(last).map_err(|e| format!("child report does not parse: {e}"))
}

fn num(report: &Json, key: &str) -> Result<f64, String> {
    report
        .get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("child report lacks `{key}`"))
}

fn child_errors(report: &Json) -> Vec<String> {
    report
        .get("errors")
        .and_then(Json::as_arr)
        .into_iter()
        .flatten()
        .filter_map(|e| e.as_str().map(str::to_string))
        .collect()
}

/// What the parent computes itself for a training workload, to hold the
/// children's outputs against.
struct Reference {
    /// `exact` object the TCP prefix of every child must equal: the
    /// in-process runtime on the same inputs.
    prefix: Json,
    /// Final loss and bytes per step of the dense (identity-codec) run of
    /// the same length, for the lossy workload's band checks.
    dense: Option<(f64, f64)>,
}

fn reference(spec: &TrainSpec, seed: u64, errors: &mut Vec<String>) -> Reference {
    let data = spec.dataset(seed);
    let factory = || spec.build_model(seed);
    let inproc = train(
        &factory,
        &data,
        None,
        &spec.runtime_config(spec.prefix_iters, false),
    );
    let params = flatten_model_params(&inproc.net);
    if spec.is_identity() {
        // Identity codecs leave the arithmetic alone: the distributed run is
        // serial large-batch SGD up to summation order.
        let serial = serial_reference(
            factory(),
            &data,
            spec.batch,
            spec.learning_rate,
            spec.prefix_iters,
        );
        let worst = flatten_model_params(&serial)
            .iter()
            .zip(&params)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        if worst.is_nan() || worst > 1e-4 {
            errors.push(format!(
                "in-process run is {worst:e} away from serial large-batch SGD (limit 1e-4)"
            ));
        }
    }
    let dense = (!spec.is_identity()).then(|| {
        let dense_spec = TrainSpec {
            codec: CodecPolicy::Identity,
            ..spec.clone()
        };
        let run = train(
            &factory,
            &data,
            None,
            &dense_spec.runtime_config(spec.iters, false),
        );
        (
            final_loss(&run.losses),
            run.traffic.total_bytes() as f64 / spec.iters as f64,
        )
    });
    Reference {
        prefix: Json::obj([
            ("params_digest", Json::str(digest_f32s(&params))),
            ("losses_digest", Json::str(digest_f32s(&inproc.losses))),
            ("bytes", Json::Num(inproc.traffic.total_bytes() as f64)),
        ]),
        dense,
    }
}

/// The lossy workload's stated band: it must achieve at least this share of
/// the loss decrease of the dense run of the same length (error feedback
/// lags, it must not stall), and move at most a tenth of the dense run's
/// bytes.
const LOSSY_DESCENT_SHARE: f64 = 0.7;
const LOSSY_BYTES_SHARE: f64 = 0.1;

fn measure(name: &str, args: &RunArgs, untraced_runs: usize, traced: bool) -> WorkloadResult {
    let workload = workload(name, args.seconds, args.quick).expect("name was validated");
    let mut errors = Vec::new();
    let (ops_per_run, reference) = match &workload {
        Workload::Train(spec) => (spec.iters, Some(reference(spec, args.seed, &mut errors))),
        Workload::SimZoo { .. } => (0, None),
    };

    // A run that yields no report is lost; what a report says went wrong is
    // carried over under the run's label.
    let mut lost_runs = 0u64;
    let mut run_child = |label: String, kind: ChildKind, errors: &mut Vec<String>| match spawn_child(
        name, args, kind,
    ) {
        Ok(report) => {
            errors.extend(
                child_errors(&report)
                    .into_iter()
                    .map(|e| format!("{label}: {e}")),
            );
            Some(report)
        }
        Err(e) => {
            lost_runs += 1;
            errors.push(format!("{label}: {e}"));
            None
        }
    };
    let reports: Vec<Json> = (0..untraced_runs)
        .filter_map(|run| run_child(format!("run {run}"), ChildKind::Run, &mut errors))
        .collect();
    let traced_report = traced
        .then(|| run_child("traced run".into(), ChildKind::TracedRun, &mut errors))
        .flatten();

    let mut result = WorkloadResult {
        name: name.to_string(),
        ops_per_run,
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
        exact: Json::Null,
    };
    // The traced run is shorter than the measured ones (see `traced_iters`),
    // so it adds its own operation count and only its prefix is comparable.
    let traced_ops = traced_report
        .as_ref()
        .and_then(|r| num(r, "ops").ok())
        .unwrap_or(0.0) as u64;
    let Some(first) = reports.first() else {
        errors.push("no measured run completed".into());
        result.attempted = (untraced_runs.max(1) * ops_per_run.max(1)) as u64 + traced_ops;
        result.failed = result.attempted;
        result.errors = errors;
        return result;
    };

    // Same seed, same commit: every run must reproduce the same outputs, and
    // each TCP prefix must equal the in-process runtime bit for bit.
    let exact = first.get("exact").cloned().unwrap_or(Json::Null);
    for (i, report) in reports.iter().enumerate() {
        if report.get("exact") != Some(&exact) {
            errors.push(format!(
                "run {i}: outputs differ from run 0 on the same seed"
            ));
        }
    }
    if let Some(reference) = &reference {
        for (i, report) in reports.iter().chain(&traced_report).enumerate() {
            if report.get("prefix") != Some(&reference.prefix) {
                errors.push(format!(
                    "run {i}: TCP prefix differs from the in-process runtime (losses, parameters or counted bytes)"
                ));
            }
        }
    }

    let collect =
        |key: &str| -> Result<Vec<f64>, String> { reports.iter().map(|r| num(r, key)).collect() };
    let ops = num(first, "ops").unwrap_or(ops_per_run as f64);
    result.ops_per_run = ops as usize;
    let is_sim = reference.is_none();
    let figures = (|| -> Result<(), String> {
        // Samples and bytes per operation: K·P training samples and counted
        // wire bytes per step, or simulated samples and simulated wire bytes
        // per `simulate` call.
        let (samples_per_op, bytes_per_op) = match &workload {
            Workload::Train(spec) => (
                (WORKERS * spec.batch) as f64,
                first
                    .get("exact")
                    .and_then(|e| e.get("bytes"))
                    .and_then(Json::as_f64)
                    .ok_or("child report lacks exact.bytes")?
                    / ops,
            ),
            Workload::SimZoo { passes } => {
                let calls = ops / *passes as f64;
                (
                    num(first, "samples_per_pass")? / calls,
                    num(first, "bytes_per_pass")? / calls,
                )
            }
        };
        let final_loss = if is_sim {
            0.0
        } else {
            num(first, "final_loss")?
        };
        result.exact = Json::obj([
            ("bytes_per_step", Json::Num(bytes_per_op)),
            ("final_loss", Json::Num(final_loss)),
            ("outputs", exact.clone()),
        ]);

        if let Some((dense_loss, dense_bytes)) = reference.as_ref().and_then(|r| r.dense) {
            let first_loss = num(first, "first_loss")?;
            if final_loss >= first_loss {
                errors.push(format!(
                    "loss does not descend: {first_loss} → {final_loss}"
                ));
            }
            if first_loss - final_loss < LOSSY_DESCENT_SHARE * (first_loss - dense_loss) {
                errors.push(format!(
                    "loss fell {first_loss} → {final_loss}, less than {LOSSY_DESCENT_SHARE} of the dense run's fall to {dense_loss}"
                ));
            }
            if bytes_per_op > LOSSY_BYTES_SHARE * dense_bytes {
                errors.push(format!(
                    "{bytes_per_op} bytes per step exceed {LOSSY_BYTES_SHARE} of the dense run's {dense_bytes}"
                ));
            }
        }

        let loop_s = collect("loop_s")?;
        let throughput: Vec<f64> = loop_s.iter().map(|s| ops * samples_per_op / s).collect();
        let rss: Vec<f64> = collect("vm_hwm_kib")?.iter().map(|k| k / 1024.0).collect();
        result.end_to_end = vec![
            ("samples_per_s", Summary::of(&throughput)),
            (
                "bytes_per_step",
                Summary::of(&vec![bytes_per_op; reports.len()]),
            ),
            ("setup_s", Summary::of(&collect("setup_s")?)),
            ("peak_rss_mib", Summary::of(&rss)),
        ];

        let Some(traced_report) = &traced_report else {
            return Ok(());
        };
        // Per-layer numbers: probes and spans from the traced run, counters
        // and step time from the untraced runs.
        let mut layer: Vec<(&'static str, f64)> = Vec::new();
        let probes = spawn_child(name, args, ChildKind::Probe)?;
        let probe = |name: &str| probes.get(name).and_then(Json::as_f64).unwrap_or(0.0);
        let step_ms = median(&loop_s) / ops * 1e3;
        let traced_step_ms = num(traced_report, "loop_s")? / traced_ops.max(1) as f64 * 1e3;
        layer.push(("runtime.step_ms", step_ms));
        layer.push(("runtime.step_ms_p50", num(traced_report, "step_ms_p50")?));
        layer.push(("runtime.step_ms_tail", num(traced_report, "step_ms_tail")?));
        layer.push((
            "runtime.trace_overhead_pct",
            100.0 * (traced_step_ms - step_ms) / step_ms,
        ));
        if is_sim {
            layer.push(("sim.runs_per_s", ops / median(&loop_s)));
        } else {
            let med = |key: &str| collect(key).map(|v| median(&v));
            let compute_ms = probe("nn.forward_ms") + probe("nn.backward_ms");
            let exposed = (step_ms - compute_ms).max(0.0);
            let hits = med("pool_hits")?;
            let misses = med("pool_misses")?;
            layer.extend([
                ("runtime.compute_ms", compute_ms),
                ("runtime.exposed_comm_ms", exposed),
                ("runtime.exposed_comm_share", exposed / step_ms),
                (
                    "runtime.scaling_efficiency",
                    median(&throughput) / (WORKERS as f64 * probe("nn.serial_samples_per_s")),
                ),
                (
                    "runtime.sync_window_ms",
                    num(traced_report, "sync_window_ms")?,
                ),
                ("runtime.apply_ms", num(traced_report, "apply_ms")?),
                ("runtime.final_loss", final_loss),
                ("pool.hit_ratio", hits / (hits + misses).max(1.0)),
                (
                    "pool.resident_mib",
                    med("pool_resident_bytes")? / (1 << 20) as f64,
                ),
                ("transport.frames_per_step", num(first, "frames")? / ops),
                ("transport.writev_batch_p50", med("writev_batch_p50")?),
                (
                    "transport.tx_queue_peak_frames",
                    med("tx_queue_peak_frames")?,
                ),
                ("kvstore.serve_p50_us", med("serve_p50_us")?),
                ("coordinator.layers_ps", num(first, "layers_ps")?),
                ("coordinator.layers_sfb", num(first, "layers_sfb")?),
                ("coordinator.layers_ring", num(first, "layers_ring")?),
            ]);
        }
        result.per_layer = PER_LAYER
            .iter()
            .map(|(name, _)| {
                let value = layer
                    .iter()
                    .find(|(n, _)| n == name)
                    .map_or_else(|| probe(name), |(_, v)| *v);
                (*name, value)
            })
            .collect();
        Ok(())
    })();
    if let Err(e) = figures {
        errors.push(e);
    }

    // An operation is one training step or one `simulate` call. A lost run
    // fails all its operations; a failed check fails every operation whose
    // output it covers, which is all of them.
    let runs = reports.len() as u64 + lost_runs;
    result.attempted = runs * result.ops_per_run as u64 + traced_ops;
    result.failed = if errors.is_empty() {
        0
    } else {
        result.attempted
    };
    result.errors = errors;
    result
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Where and on what the numbers were measured.
fn provenance(args: &RunArgs) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    // The rule `poseidon_tensor::kernel` dispatches by.
    #[cfg(target_arch = "x86_64")]
    let isa = if is_x86_feature_detected!("avx512f") {
        "avx512f"
    } else if is_x86_feature_detected!("avx2") {
        "avx2"
    } else {
        "baseline"
    };
    #[cfg(not(target_arch = "x86_64"))]
    let isa = "baseline";
    let iterations = NAMES
        .iter()
        .filter_map(|name| {
            let ops = match workload(name, args.seconds, args.quick)? {
                Workload::Train(spec) => spec.iters,
                Workload::SimZoo { passes } => passes,
            };
            Some((*name, Json::Num(ops as f64)))
        })
        .collect::<Vec<_>>();
    Json::obj([
        // Recorded, never used: every thread count in the harness is fixed.
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("cpu", Json::str(cpu)),
        ("kernel_isa", Json::str(isa)),
        ("rustc", Json::str(command_line("rustc", &["-V"]))),
        (
            "git_commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("workers", Json::Num(WORKERS as f64)),
        ("compute_threads_per_worker", Json::Num(1.0)),
        ("iterations_per_run", Json::obj(iterations)),
    ])
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

fn unit_of(table: &[(&'static str, &'static str)], name: &str) -> &'static str {
    table
        .iter()
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

fn workload_doc(r: &WorkloadResult) -> Json {
    let end_to_end = r.end_to_end.iter().map(|(name, s)| {
        (
            *name,
            Json::obj([
                ("value", Json::Num(s.median)),
                ("unit", Json::str(unit_of(&END_TO_END, name))),
                ("q1", Json::Num(s.q1)),
                ("q3", Json::Num(s.q3)),
                ("n", Json::Num(s.n as f64)),
            ]),
        )
    });
    let per_layer = r
        .per_layer
        .iter()
        .map(|(name, v)| (*name, metric(*v, unit_of(&PER_LAYER, name))));
    Json::obj([
        ("correct", Json::Bool(r.errors.is_empty())),
        ("attempted", Json::Num(r.attempted as f64)),
        ("failed", Json::Num(r.failed as f64)),
        ("ops_per_run", Json::Num(r.ops_per_run as f64)),
        (
            "errors",
            Json::Arr(r.errors.iter().map(Json::str).collect()),
        ),
        ("end_to_end", Json::obj(end_to_end)),
        ("per_layer", Json::obj(per_layer)),
        ("exact", r.exact.clone()),
    ])
}

/// Runs the selected workloads and prints the result; the exit code is 0
/// only when every correctness check passed and no operation failed.
pub fn main(args: &RunArgs) -> i32 {
    for name in &args.workloads {
        if !NAMES.contains(&name.as_str()) {
            eprintln!("unknown workload {name:?}; known: {}", NAMES.join(", "));
            return 2;
        }
    }
    if let Some(traced) = args.driver_trace {
        let [name] = args.workloads.as_slice() else {
            eprintln!("--trace needs exactly one --workload");
            return 2;
        };
        // The traced call still needs untraced runs: step time without the
        // recorder is what trace overhead and exposed communication are
        // measured against.
        let r = measure(name, args, if traced { 3 } else { args.repeats }, traced);
        for e in &r.errors {
            eprintln!("{name}: {e}");
        }
        let metrics = if traced {
            Json::obj(
                r.per_layer
                    .iter()
                    .map(|(n, v)| (*n, metric(*v, unit_of(&PER_LAYER, n)))),
            )
        } else {
            Json::obj(
                r.end_to_end
                    .iter()
                    .map(|(n, s)| (*n, metric(s.median, unit_of(&END_TO_END, n)))),
            )
        };
        let line = Json::obj([
            ("correct", Json::Bool(r.errors.is_empty())),
            ("attempted", Json::Num(r.attempted as f64)),
            ("failed", Json::Num(r.failed as f64)),
            ("metrics", metrics),
        ]);
        println!("{}", line.render());
        return i32::from(!r.errors.is_empty());
    }

    let results: Vec<WorkloadResult> = args
        .workloads
        .iter()
        .map(|name| {
            eprintln!("== {name}");
            let r = measure(name, args, args.repeats, true);
            for e in &r.errors {
                eprintln!("{name}: {e}");
            }
            r
        })
        .collect();
    let attempted: u64 = results.iter().map(|r| r.attempted).sum();
    let failed: u64 = results.iter().map(|r| r.failed).sum();
    let correct = results.iter().all(|r| r.errors.is_empty());
    let doc = Json::obj([
        ("benchmark", Json::str("poseidon")),
        ("quick", Json::Bool(args.quick)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds as f64)),
        ("repeats", Json::Num(args.repeats as f64)),
        ("provenance", provenance(args)),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "failed_op_share",
            Json::Num(failed as f64 / attempted.max(1) as f64),
        ),
        (
            "workloads",
            Json::obj(results.iter().map(|r| (r.name.clone(), workload_doc(r)))),
        ),
    ]);
    let text = doc.render_pretty();
    if let Err(e) = write_artifact("result.json", &text) {
        eprintln!("{e}");
    } else {
        eprintln!("wrote {}", out_dir().join("result.json").display());
    }
    print!("{text}");
    i32::from(!correct)
}
