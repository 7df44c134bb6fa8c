//! The `sim_zoo32` workload: the simulator as a product surface. Host time
//! is the metric; the simulated statistics repeat exactly and are the
//! correctness check.

use crate::child::{digest, export_trace, vm_hwm_kib, write_artifact, ChildArgs};
use crate::json::Json;
use crate::stats::{median, tail_percentile};
use poseidon::sim::{simulate, IterationReport, SimConfig, System};
use poseidon::telemetry;
use poseidon_nn::zoo::{self, ModelSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

pub const SYSTEMS: [System; 6] = [
    System::CaffePs,
    System::WfbpPs,
    System::Poseidon,
    System::TensorFlow,
    System::Adam,
    System::Cntk1Bit,
];
pub const NODES: usize = 32;
pub const BANDWIDTHS_GBE: [f64; 2] = [10.0, 40.0];

/// One `simulate` call of the sweep: indices into the zoo, `SYSTEMS` and
/// `BANDWIDTHS_GBE`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Call {
    pub model: usize,
    pub system: usize,
    pub gbe: usize,
}

/// Every zoo model × system × bandwidth at 32 nodes, in an order drawn from
/// `seed`: the seed permutes the sweep, it never changes what is simulated.
pub fn calls(models: usize, seed: u64) -> Vec<Call> {
    let mut calls = Vec::with_capacity(models * SYSTEMS.len() * BANDWIDTHS_GBE.len());
    for model in 0..models {
        for system in 0..SYSTEMS.len() {
            for gbe in 0..BANDWIDTHS_GBE.len() {
                calls.push(Call { model, system, gbe });
            }
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..calls.len()).rev() {
        calls.swap(i, rng.gen_range(0..i + 1));
    }
    calls
}

fn run_call(models: &[ModelSpec], call: Call) -> IterationReport {
    simulate(
        &models[call.model],
        &SimConfig::system(SYSTEMS[call.system], NODES, BANDWIDTHS_GBE[call.gbe]),
    )
}

/// The statistics of a pass that must repeat bit for bit, in canonical
/// (unshuffled) call order.
fn fingerprint(calls: &[Call], reports: &[IterationReport]) -> String {
    let mut keyed: Vec<(Call, &IterationReport)> = calls.iter().copied().zip(reports).collect();
    keyed.sort_by_key(|(c, _)| *c);
    digest(keyed.iter().flat_map(|(_, r)| {
        let (t, s) = (r.iter_time_s.to_bits(), r.speedup.to_bits());
        [t as u32, (t >> 32) as u32, s as u32, (s >> 32) as u32]
    }))
}

/// The `sim_zoo32` child: set-up, `passes` timed sweeps, then verification.
pub fn child(passes: usize, args: &ChildArgs, process_start: Instant) -> Json {
    telemetry::span_begin("setup", 0, 0);
    let models = zoo::all_models();
    let calls = calls(models.len(), args.seed);
    // One untimed pass: faults pages in and gives the statistics every
    // measured pass must reproduce.
    let warm: Vec<IterationReport> = calls.iter().map(|c| run_call(&models, *c)).collect();
    let expected = fingerprint(&calls, &warm);
    telemetry::span_end("setup", 0, 0);
    let setup_s = process_start.elapsed().as_secs_f64();

    let mut errors = Vec::new();
    // Per-call host time, by call; only the traced run pays for the extra
    // clock reads and spans.
    let mut call_ms: Vec<Vec<f64>> = vec![Vec::new(); calls.len()];
    telemetry::span_begin("train", 0, 0);
    let started = Instant::now();
    for pass in 0..passes {
        let reports: Vec<IterationReport> = if args.traced {
            calls
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    let tag = (c.system * BANDWIDTHS_GBE.len() + c.gbe) as u64;
                    let _span = telemetry::span("simulate", c.model as u64, tag);
                    let t0 = Instant::now();
                    let report = run_call(&models, *c);
                    call_ms[i].push(t0.elapsed().as_secs_f64() * 1e3);
                    report
                })
                .collect()
        } else {
            calls.iter().map(|c| run_call(&models, *c)).collect()
        };
        if fingerprint(&calls, &reports) != expected {
            errors.push(format!(
                "pass {pass}: simulated statistics changed between passes"
            ));
        }
    }
    let loop_s = started.elapsed().as_secs_f64();
    telemetry::span_end("train", 0, 0);

    telemetry::span_begin("verify", 0, 0);
    errors.extend(check_golden());
    telemetry::span_end("verify", 0, 0);

    let samples_per_pass: u64 = calls
        .iter()
        .map(|c| (NODES * models[c.model].default_batch) as u64)
        .sum();
    let bytes_per_pass: f64 = warm
        .iter()
        .flat_map(|r| &r.per_node_gbit)
        .map(|gbit| gbit * 1e9 / 8.0)
        .sum();
    let mut report = vec![
        ("ops".to_string(), Json::Num((passes * calls.len()) as f64)),
        ("passes".into(), Json::Num(passes as f64)),
        ("setup_s".into(), Json::Num(setup_s)),
        ("loop_s".into(), Json::Num(loop_s)),
        ("vm_hwm_kib".into(), Json::Num(vm_hwm_kib())),
        (
            "samples_per_pass".into(),
            Json::Num(samples_per_pass as f64),
        ),
        ("bytes_per_pass".into(), Json::Num(bytes_per_pass)),
        (
            "exact".into(),
            Json::obj([("stats_digest", Json::str(&expected))]),
        ),
    ];

    if args.traced {
        export_trace("sim_zoo32", &mut errors);
        let all_ms: Vec<f64> = call_ms.iter().flatten().copied().collect();
        let (tail_pct, step_ms_tail) = tail_percentile(&all_ms);
        let step_ms_p50 = median(&all_ms);
        let ledger = sim_ledger(
            &models,
            &calls,
            &call_ms,
            step_ms_p50,
            tail_pct,
            step_ms_tail,
        );
        if let Err(e) = write_artifact("ledger_sim_zoo32.json", &ledger.render_pretty()) {
            errors.push(e);
        }
        report.extend([
            ("step_ms_p50".into(), Json::Num(step_ms_p50)),
            ("step_ms_tail".into(), Json::Num(step_ms_tail)),
        ]);
    }
    report.push((
        "errors".into(),
        Json::Arr(errors.into_iter().map(Json::Str).collect()),
    ));
    Json::Obj(report)
}

/// The simulator's ledger: host time per model × system (median over passes
/// and both bandwidths) — where a sweep's host time goes.
fn sim_ledger(
    models: &[ModelSpec],
    calls: &[Call],
    call_ms: &[Vec<f64>],
    step_ms_p50: f64,
    tail_pct: f64,
    step_ms_tail: f64,
) -> Json {
    let mut rows = Vec::new();
    for (m, model) in models.iter().enumerate() {
        for (s, system) in SYSTEMS.iter().enumerate() {
            let ms: Vec<f64> = calls
                .iter()
                .zip(call_ms)
                .filter(|(c, _)| c.model == m && c.system == s)
                .flat_map(|(_, v)| v.iter().copied())
                .collect();
            rows.push(Json::obj([
                ("model", Json::str(model.name)),
                ("system", Json::str(system.label())),
                ("host_ms", Json::Num(median(&ms))),
                ("samples", Json::Num(ms.len() as f64)),
            ]));
        }
    }
    Json::obj([
        ("workload", Json::str("sim_zoo32")),
        (
            "how_to_read",
            Json::str("host milliseconds of one simulate() call at 32 nodes, median over passes and bandwidths"),
        ),
        ("steps", Json::Num(call_ms.iter().map(Vec::len).sum::<usize>() as f64)),
        ("step_ms_p50", Json::Num(step_ms_p50)),
        ("step_ms_tail", Json::Num(step_ms_tail)),
        ("tail_percentile", Json::Num(tail_pct)),
        ("rows", Json::Arr(rows)),
    ])
}

const GOLDEN: &str = include_str!("../golden/sim_speedups.txt");

fn system_named(name: &str) -> Option<System> {
    SYSTEMS.into_iter().find(|s| format!("{s:?}") == name)
}

/// Checks the simulator against the hand-copied figure values; returns the
/// mismatches (empty = pass).
pub fn check_golden() -> Vec<String> {
    let models = zoo::all_models();
    let mut errors = Vec::new();
    let mut rows = 0;
    for line in GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
    {
        rows += 1;
        let f: Vec<&str> = line.split_whitespace().collect();
        let parsed = (|| {
            let [model, system, nodes, gbe, want] = f.as_slice() else {
                return None;
            };
            Some((
                models.iter().find(|m| m.name == *model)?,
                system_named(system)?,
                nodes.parse::<usize>().ok()?,
                gbe.parse::<f64>().ok()?,
                *want,
            ))
        })();
        let Some((model, system, nodes, gbe, want)) = parsed else {
            errors.push(format!("golden line not understood: {line:?}"));
            continue;
        };
        let got = simulate(model, &SimConfig::system(system, nodes, gbe)).speedup;
        if format!("{got:.1}") != want {
            errors.push(format!(
                "{} {system:?} {nodes} nodes {gbe} GbE: simulated speedup {got:.1}, golden {want}",
                model.name
            ));
        }
    }
    if rows == 0 {
        errors.push("golden file has no rows".into());
    }
    errors
}
