//! Prints the metrics plane's overhead as JSON:
//!
//! 1. Cost of one record call per instrument on pre-resolved handles: a
//!    counter add (one relaxed RMW; counters are not gated, the program
//!    reads them back), and a gauge set_max and a histogram record with the
//!    plane enabled (relaxed RMWs — the production default, since metrics
//!    are always on) and disabled (one relaxed load and a branch).
//! 2. A full threaded `train` run, metrics off vs on, interleaved
//!    min-of-reps — the end-to-end overhead that matters, printed next to
//!    its 2% budget but not gated: on a 2-vCPU host the on/off ratio of
//!    alternated runs spreads about ±10%, so a 2% difference cannot be
//!    resolved by any one invocation.
//!
//! `cargo run --release -p poseidon-bench --bin metrics_bench`. Timings are
//! min-of-N wall clock; the JSON is hand-rolled so the binary stays
//! dependency-free.

use poseidon::config::{Partition, SchemePolicy};
use poseidon::metrics;
use poseidon::runtime::{train, RuntimeConfig};
use poseidon_nn::data::Dataset;
use poseidon_nn::layer::TensorShape;
use poseidon_nn::presets;
use std::time::{Duration, Instant};

/// End-to-end overhead budget, percent (printed beside the measurement).
const BUDGET_PCT: f64 = 2.0;

/// Nanoseconds per call of `f` over `n` calls.
fn ns_per_call(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for i in 0..n {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / n as f64
}

/// Min-of-5 ns/op of `f` over a million calls.
fn min_ns(mut f: impl FnMut(usize)) -> f64 {
    (0..5)
        .map(|_| ns_per_call(1_000_000, &mut f))
        .fold(f64::INFINITY, f64::min)
}

/// Min-of-5 ns/op of the gated instruments (gauge, histogram) at the
/// current enable state.
fn gated_path_ns() -> (f64, f64) {
    let g = metrics::gauge("bench_metrics_gauge", &[]);
    let h = metrics::histogram("bench_metrics_hist", &[]);
    (
        min_ns(|i| g.set_max(i as u64)),
        min_ns(|i| h.record(i as u64)),
    )
}

/// One threaded training run on a compute-heavy-enough model that the
/// per-iteration record calls are measured against real work.
fn train_once() -> f64 {
    let layers = [48usize, 96, 64, 10];
    let data = Dataset::gaussian_clusters(TensorShape::flat(layers[0]), 10, 128, 0.3, 7);
    let cfg = RuntimeConfig {
        policy: SchemePolicy::Hybrid,
        partition: Partition::KvPairs { pair_elems: 128 },
        comm_timeout: Duration::from_secs(60),
        ..RuntimeConfig::new(2, 16, 0.1, 10)
    };
    let t = Instant::now();
    let result = train(&|| presets::mlp(&layers, 42), &data, None, &cfg);
    let dt = t.elapsed().as_secs_f64();
    assert_eq!(result.health.verdicts.len(), 2, "health verdicts present");
    dt
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // 1. Record-path cost per instrument; the gated ones enabled vs disabled.
    let c = metrics::counter("bench_metrics_counter", &[]);
    let c_ns = min_ns(|i| c.add(i as u64));
    metrics::set_enabled(true);
    let (g_on, h_on) = gated_path_ns();
    metrics::set_enabled(false);
    let (g_off, h_off) = gated_path_ns();
    metrics::set_enabled(true);

    // 2. End-to-end: interleave off/on reps (min-of-7 each) so thermal and
    // scheduler drift hit both sides equally.
    train_once(); // warm-up
    let (mut off_s, mut on_s) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..7 {
        metrics::set_enabled(false);
        off_s = off_s.min(train_once());
        metrics::set_enabled(true);
        on_s = on_s.min(train_once());
    }

    let (off_ms, on_ms) = (off_s * 1e3, on_s * 1e3);
    let overhead_pct = ((on_ms / off_ms - 1.0) * 100.0).max(0.0);
    let json = format!(
        "{{\n  \"host\": {{\"cores\": {cores}}},\n  \"record_call_ns\": {{\n    \"counter\": {c_ns:.2},\n    \"gauge_enabled\": {g_on:.2},\n    \"gauge_disabled\": {g_off:.2},\n    \"histogram_enabled\": {h_on:.2},\n    \"histogram_disabled\": {h_off:.2}\n  }},\n  \"threaded_train_2x10\": {{\n    \"metrics_off_ms\": {off_ms:.2},\n    \"metrics_on_ms\": {on_ms:.2},\n    \"overhead_pct\": {overhead_pct:.2},\n    \"budget_pct\": {BUDGET_PCT:.1}\n  }}\n}}\n"
    );
    print!("{json}");
}
