//! One measured run in a process of its own, so every run starts with an
//! empty metrics registry, an empty `BufPool` and its own `VmHWM`. The
//! parent (`run.rs`) spawns this as `benchmark child ...` and reads the one
//! JSON object printed on the last line of standard output.

use crate::json::Json;
use crate::ledger::{self, LayerMeta};
use crate::probes;
use crate::simzoo;
use crate::workloads::{final_loss, run_tcp_mesh, workload, MeshRun, TrainSpec, Workload, WORKERS};
use poseidon::config::{ClusterConfig, CommScheme};
use poseidon::coordinator::Coordinator;
use poseidon::metrics::{self, HistogramSnapshot, MetricsSnapshot, SampleValue};
use poseidon::pool::BufPool;
use poseidon::runtime::{flatten_model_params, poisoned_frames};
use poseidon::telemetry::{self, chrome, TelemetryConfig, Trace};
use poseidon::transport::stale_epoch_frames;
use poseidon_nn::Network;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub struct ChildArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: usize,
    pub quick: bool,
    pub traced: bool,
}

/// Where run artifacts (traces, ledgers, result documents) go.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Runs the child and prints its report; the exit code says whether the run
/// itself completed (correctness verdicts travel inside the report).
pub fn main(args: &ChildArgs, process_start: Instant) -> i32 {
    let Some(workload) = workload(&args.workload, args.seconds, args.quick) else {
        eprintln!("unknown workload {:?}", args.workload);
        return 2;
    };
    if args.traced {
        telemetry::configure(&TelemetryConfig::enabled());
        telemetry::set_process(0, format!("benchmark {}", args.workload));
        telemetry::set_thread_track("harness");
    }
    let report = match workload {
        Workload::Train(spec) => train_child(&spec, args, process_start),
        Workload::SimZoo { passes } => Ok(simzoo::child(passes, args, process_start)),
    };
    match report {
        Ok(report) => {
            println!("{}", report.render());
            0
        }
        Err(e) => {
            eprintln!("run failed: {e}");
            1
        }
    }
}

/// FNV-1a over 32-bit words: a digest small enough to print, exact enough
/// that two runs agree on it only if they agree bit for bit.
pub fn digest(words: impl IntoIterator<Item = u32>) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

pub fn digest_f32s(values: &[f32]) -> String {
    digest(values.iter().map(|v| v.to_bits()))
}

/// Peak resident set of this process so far, KiB (`VmHWM`).
pub fn vm_hwm_kib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(f64::NAN)
}

/// Every sample of `family` in `snap`, as integer values.
fn int_samples(snap: &MetricsSnapshot, family: &str) -> Vec<u64> {
    snap.family(family)
        .into_iter()
        .flat_map(|f| &f.samples)
        .filter_map(|s| match s.value {
            SampleValue::Int(v) => Some(v),
            SampleValue::Hist(_) => None,
        })
        .collect()
}

/// The histograms of `family` summed over every label set, `before`
/// subtracted: what the family recorded between the two snapshots.
fn merged_hist_delta(
    after: &MetricsSnapshot,
    before: &MetricsSnapshot,
    family: &str,
) -> HistogramSnapshot {
    let mut total = HistogramSnapshot::empty();
    for sample in after.family(family).into_iter().flat_map(|f| &f.samples) {
        let SampleValue::Hist(now) = &sample.value else {
            continue;
        };
        let labels: Vec<(&str, &str)> = sample
            .labels
            .iter()
            .map(|(k, v)| (*k, v.as_str()))
            .collect();
        let d = match before.histogram(family, &labels) {
            Some(earlier) => now.delta(earlier),
            None => **now,
        };
        for (t, b) in total.buckets.iter_mut().zip(d.buckets) {
            *t += b;
        }
        total.sum += d.sum;
        total.count += d.count;
        total.min = total.min.min(d.min);
        total.max = total.max.max(d.max);
    }
    total
}

fn layer_meta(net: &Network, coordinator: &Coordinator) -> Vec<LayerMeta> {
    let schemes = coordinator.scheme_assignment();
    (0..net.num_layers())
        .map(|l| LayerMeta {
            name: net.layer(l).name().to_string(),
            sync: schemes
                .iter()
                .find(|(layer, _)| *layer == l)
                .map(|(_, s)| (s.to_string(), coordinator.best_codec(l).to_string())),
        })
        .collect()
}

/// What a mesh run reproduces bit for bit when nothing is wrong: the
/// parameters, the loss curve and the counted bytes.
fn exact_outputs(run: &MeshRun) -> Json {
    Json::obj([
        (
            "params_digest",
            Json::str(digest_f32s(&flatten_model_params(&run.nets[0]))),
        ),
        ("losses_digest", Json::str(digest_f32s(&run.mean_losses()))),
        ("bytes", Json::Num(run.traffic.total_bytes() as f64)),
    ])
}

fn train_child(spec: &TrainSpec, args: &ChildArgs, process_start: Instant) -> Result<Json, String> {
    let mut errors: Vec<String> = Vec::new();

    // Set-up: inputs from the seed, the model, then a short run over its own
    // mesh that warms caches and pools and doubles as the prefix the parent
    // checks against the in-process runtime.
    telemetry::span_begin("setup", 0, 0);
    let data = spec.dataset(args.seed);
    let factory = || spec.build_model(args.seed);
    // Untraced even in the traced child, so the trace holds the measured
    // steps only.
    telemetry::disable();
    let prefix = run_tcp_mesh(
        &factory,
        &data,
        &spec.runtime_config(spec.prefix_iters, false),
    )?;
    let prefix_outputs = exact_outputs(&prefix);
    drop(prefix);
    if args.traced {
        telemetry::enable();
    }
    telemetry::span_end("setup", 0, 0);

    let pool_before = BufPool::global().stats();
    let before = metrics::snapshot();
    let iters = if args.traced {
        spec.traced_iters
    } else {
        spec.iters
    };
    let cfg = spec.runtime_config(iters, args.traced);
    let run = run_tcp_mesh(&factory, &data, &cfg)?;
    let after = metrics::snapshot();
    let pool_after = BufPool::global().stats();
    // Child start → the measured mesh is connected and its first step begins.
    let setup_s = run.started.duration_since(process_start).as_secs_f64();

    telemetry::span_begin("verify", 0, 0);
    let flats: Vec<Vec<f32>> = run.nets.iter().map(flatten_model_params).collect();
    let identical = flats.iter().all(|f| {
        f.len() == flats[0].len()
            && f.iter()
                .zip(&flats[0])
                .all(|(a, b)| a.to_bits() == b.to_bits())
    });
    if !identical {
        errors.push("worker replicas are not bitwise identical".into());
    }
    let losses = run.mean_losses();
    if losses.iter().any(|l| !l.is_finite()) {
        errors.push("training loss is not finite".into());
    }
    if poisoned_frames() != 0 {
        errors.push(format!("{} poisoned frames", poisoned_frames()));
    }
    if stale_epoch_frames() != 0 {
        errors.push(format!("{} stale-epoch frames", stale_epoch_frames()));
    }
    telemetry::span_end("verify", 0, 0);

    // The slowest worker's training loop, from the program's own per-step
    // timer: under BSP it sets the pace, and unlike a wall clock around
    // `run_endpoint` it holds no model building or planning.
    let empty = HistogramSnapshot::empty();
    let loop_s: Vec<f64> = (0..WORKERS)
        .map(|w| {
            let labels = [("worker", &*w.to_string())];
            let now = after
                .histogram("poseidon_step_time_ns", &labels)
                .ok_or("poseidon_step_time_ns is missing from the metrics snapshot")?;
            let steps = now.delta(
                before
                    .histogram("poseidon_step_time_ns", &labels)
                    .unwrap_or(&empty),
            );
            if steps.count != iters as u64 {
                return Err(format!(
                    "worker {w} recorded {} steps, expected {iters}",
                    steps.count
                ));
            }
            Ok(steps.sum as f64 / 1e9)
        })
        .collect::<Result<_, String>>()?;

    let frames: u64 = int_samples(&after, "poseidon_tx_frames_total")
        .iter()
        .sum::<u64>()
        - int_samples(&before, "poseidon_tx_frames_total")
            .iter()
            .sum::<u64>();
    let hits = pool_after.hits - pool_before.hits;
    let misses = pool_after.misses - pool_before.misses;

    let reference = factory();
    let coordinator = Coordinator::from_model(
        &reference,
        ClusterConfig::colocated(WORKERS, spec.batch),
        spec.policy,
        cfg.partition,
    )
    .with_codec_policy(spec.codec);
    let schemes = coordinator.scheme_assignment();
    let count = |s: CommScheme| schemes.iter().filter(|(_, x)| *x == s).count() as f64;

    let mut report = vec![
        ("ops".to_string(), Json::Num(iters as f64)),
        ("setup_s".into(), Json::Num(setup_s)),
        (
            "loop_s".into(),
            Json::Num(loop_s.iter().copied().fold(0.0, f64::max)),
        ),
        ("vm_hwm_kib".into(), Json::Num(vm_hwm_kib())),
        ("first_loss".into(), Json::Num(f64::from(losses[0]))),
        ("final_loss".into(), Json::Num(final_loss(&losses))),
        ("frames".into(), Json::Num(frames as f64)),
        ("exact".into(), exact_outputs(&run)),
        ("prefix".into(), prefix_outputs),
        ("pool_hits".into(), Json::Num(hits as f64)),
        ("pool_misses".into(), Json::Num(misses as f64)),
        (
            "pool_resident_bytes".into(),
            Json::Num(pool_after.resident_bytes as f64),
        ),
        (
            "writev_batch_p50".into(),
            Json::Num(
                merged_hist_delta(&after, &before, "poseidon_writev_batch_frames").quantile(0.5)
                    as f64,
            ),
        ),
        (
            "tx_queue_peak_frames".into(),
            Json::Num(
                int_samples(&after, "poseidon_tx_queue_peak_frames")
                    .into_iter()
                    .max()
                    .unwrap_or(0) as f64,
            ),
        ),
        (
            "serve_p50_us".into(),
            Json::Num(
                merged_hist_delta(&after, &before, "poseidon_serve_ns").quantile(0.5) as f64 / 1e3,
            ),
        ),
        ("layers_ps".into(), Json::Num(count(CommScheme::Ps))),
        ("layers_sfb".into(), Json::Num(count(CommScheme::Sfb))),
        ("layers_ring".into(), Json::Num(count(CommScheme::Ring))),
    ];

    if args.traced {
        let trace = export_trace(spec.name, &mut errors);
        match ledger::build(
            spec.name,
            &trace,
            run.train_window_ns,
            &layer_meta(&reference, &coordinator),
        ) {
            Some((doc, fig)) => {
                write_artifact(&format!("ledger_{}.json", spec.name), &doc.render_pretty())?;
                report.extend([
                    ("sync_window_ms".into(), Json::Num(fig.sync_window_ms)),
                    ("apply_ms".into(), Json::Num(fig.apply_ms)),
                    ("step_ms_p50".into(), Json::Num(fig.step_ms_p50)),
                    ("step_ms_tail".into(), Json::Num(fig.step_ms_tail)),
                ]);
            }
            None => errors.push("the trace holds no training step".into()),
        }
    }

    report.push((
        "errors".into(),
        Json::Arr(errors.into_iter().map(Json::Str).collect()),
    ));
    Ok(Json::Obj(report))
}

/// The layer probes of `workload`, as `{name: value}`.
pub fn probes_json(workload: &Workload, seed: u64) -> Json {
    let spec = match workload {
        Workload::Train(spec) => Some(spec),
        Workload::SimZoo { .. } => None,
    };
    Json::obj(
        probes::run(spec, seed)
            .into_iter()
            .map(|(name, value)| (name, Json::Num(value))),
    )
}

/// Stops the recorder, writes everything it captured to
/// `out/trace_<workload>.json` in Chrome trace format and checks the file
/// with the program's own validator; failures land in `errors`.
pub fn export_trace(workload: &str, errors: &mut Vec<String>) -> Trace {
    telemetry::disable();
    let trace = telemetry::drain();
    let text = chrome::to_chrome_json(std::slice::from_ref(&trace));
    if let Err(e) = chrome::validate(&text) {
        errors.push(format!("trace does not validate: {e}"));
    }
    if let Err(e) = write_artifact(&format!("trace_{workload}.json"), &text) {
        errors.push(e);
    }
    trace
}

pub fn write_artifact(name: &str, text: &str) -> Result<(), String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))
}
