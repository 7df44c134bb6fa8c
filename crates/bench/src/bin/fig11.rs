//! Figure 11: training loss and test error vs iteration for the CIFAR-10
//! quick network under exact synchronisation (Poseidon) vs 1-bit quantized
//! gradients with residual feedback (Poseidon-1bit), 4 workers.
//!
//! This is a *real* training experiment on the threaded runtime: both
//! configurations run the same synchronous protocol; only the FC-layer
//! payloads differ. The synthetic Gaussian-cluster dataset substitutes for
//! CIFAR-10 (DESIGN.md); the comparison between the two systems is the
//! reproduction target.
//!
//! Run: `cargo run --release -p poseidon-bench --bin fig11`

use poseidon::config::SchemePolicy;
use poseidon::runtime::{train, LrSchedule, RuntimeConfig, TrainResult};
use poseidon::stats::render_table;
use poseidon_bench::banner;
use poseidon_nn::data::Dataset;
use poseidon_nn::layer::TensorShape;
use poseidon_nn::presets;

fn run(policy: SchemePolicy, iters: usize) -> TrainResult<poseidon_nn::Network> {
    let shape = TensorShape::new(3, 16, 16);
    let all = Dataset::smooth_clusters(shape, 20, 2400, 3.0, 51);
    let (train_set, test_set) = all.split_at(2000);
    let cfg = RuntimeConfig {
        policy,
        // The Caffe cifar10_quick solver trains with momentum 0.9 and a
        // stepped learning rate.
        momentum: 0.9,
        lr_schedule: LrSchedule::Step {
            every: 250,
            factor: 0.3,
        },
        eval_every: iters / 10,
        ..RuntimeConfig::new(4, 8, 0.01, iters)
    };
    train(
        &|| presets::cifar_quick_scaled(TensorShape::new(3, 16, 16), 8, 20, 13),
        &train_set,
        Some(&test_set),
        &cfg,
    )
}

fn main() {
    banner(
        "Figure 11",
        "loss / test error vs iteration: Poseidon vs Poseidon-1bit, 4 workers",
    );
    let iters = 600usize;
    let exact = run(SchemePolicy::Hybrid, iters);
    let onebit = run(SchemePolicy::OneBit, iters);

    let header: Vec<String> = [
        "iteration",
        "loss (PSD)",
        "loss (1bit)",
        "err (PSD)",
        "err (1bit)",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let step = iters / 10;
    let window = |r: &TrainResult<poseidon_nn::Network>, it: usize| {
        let lo = it.saturating_sub(step);
        let s: f32 = r.losses[lo..it].iter().sum();
        s / (it - lo) as f32
    };
    let err = |r: &TrainResult<poseidon_nn::Network>, it: usize| {
        let e = r.test_errors.iter().find(|&&(i, _)| i == it);
        e.map(|&(_, e)| e)
    };
    let checkpoints: Vec<usize> = (1..=10).map(|k| k * step).collect();
    let loss: Vec<Pair> = checkpoints
        .iter()
        .map(|&it| (it, Some(window(&exact, it)), Some(window(&onebit, it))))
        .collect();
    let errs: Vec<Pair> = checkpoints
        .iter()
        .map(|&it| (it, err(&exact, it), err(&onebit, it)))
        .collect();
    let shown = |v: Option<f32>| v.map_or_else(|| "-".into(), printed);
    let rows: Vec<Vec<String>> = loss
        .iter()
        .zip(&errs)
        .map(|(&(it, le, lo), &(_, ee, eo))| {
            vec![it.to_string(), shown(le), shown(lo), shown(ee), shown(eo)]
        })
        .collect();
    println!("{}", render_table(&header, &rows));

    let final_exact = exact.test_errors.last().map(|&(_, e)| e).unwrap_or(1.0);
    let final_onebit = onebit.test_errors.last().map(|&(_, e)| e).unwrap_or(1.0);
    println!("final test error: Poseidon {final_exact:.3}, Poseidon-1bit {final_onebit:.3}");
    println!("Paper shape: the 1-bit variant converges more slowly in both loss and");
    println!("test error — with the solver's momentum (0.9, as in Caffe's");
    println!("cifar10_quick), the quantization residual behaves like delayed updates");
    println!("that momentum amplifies, exactly the paper's conjecture. In this run:");
    println!("{}", verdict("loss", &loss));
    println!("{}", verdict("test error", &errs));
}

/// One checkpoint of one metric: `(iteration, exact, 1-bit)`.
type Pair = (usize, Option<f32>, Option<f32>);

/// A table value as printed.
fn printed(v: f32) -> String {
    format!("{v:.3}")
}

/// Where exact synchronisation leads on `what`, judged on the values as
/// the table prints them: the checkpoints where it is lower, where the two
/// print the same, and where the 1-bit variant is lower.
fn verdict(what: &str, rows: &[Pair]) -> String {
    let (mut lead, mut tie, mut behind) = (Vec::new(), Vec::new(), Vec::new());
    for &(it, exact, onebit) in rows {
        let (Some(e), Some(o)) = (exact, onebit) else {
            continue;
        };
        match (printed(e) == printed(o), e < o) {
            (true, _) => tie.push(it),
            (false, true) => lead.push(it),
            (false, false) => behind.push(it),
        }
    }
    let list = |its: &[usize]| {
        let its: Vec<String> = its.iter().map(usize::to_string).collect();
        its.join(", ")
    };
    let total = lead.len() + tie.len() + behind.len();
    let mut line = match lead.len() {
        0 => format!("Exact leads on {what} at no checkpoint"),
        n if n == total => format!("Exact leads on {what} at every checkpoint"),
        n => format!(
            "Exact leads on {what} at {n} of {total} checkpoints ({})",
            list(&lead)
        ),
    };
    if !tie.is_empty() {
        line += &format!("; tied at {}", list(&tie));
    }
    if !behind.is_empty() {
        line += &format!("; behind at {}", list(&behind));
    }
    line + "."
}
