//! Shared harness code for the experiment binaries.
//!
//! Every table and figure of the paper's evaluation has a binary under
//! `src/bin/` that regenerates it (`table1`, `table3`, `fig5` … `fig11`,
//! `overhead`); this library holds the formatting and sweep plumbing they
//! share. Expected output (paper-reported numbers vs. what this reproduction
//! measures) is catalogued in the repository's `EXPERIMENTS.md`.

use poseidon::sim::{simulate, simulate_with_trace, SimConfig, System};
use poseidon::stats;
use poseidon::telemetry::{chrome, report};
use poseidon_nn::zoo::ModelSpec;

/// The node counts of the paper's main scaling figures.
pub const FIG5_NODES: [usize; 6] = [1, 2, 4, 8, 16, 32];
/// The node counts of the bandwidth-limited figure.
pub const FIG8_NODES: [usize; 5] = [1, 2, 4, 8, 16];

/// Prints a figure/table header.
pub fn banner(id: &str, caption: &str) {
    println!("==== {id} — {caption} ====");
}

/// Runs a node sweep of `systems` on `model` at `bandwidth_gbps` and prints a
/// speedup table (one column per system), mirroring one panel of a scaling
/// figure.
pub fn print_speedup_panel(
    model: &ModelSpec,
    systems: &[System],
    nodes: &[usize],
    bandwidth_gbps: f64,
) {
    println!(
        "{} ({:.0} GbE), speedup vs single-node native:",
        model.name, bandwidth_gbps
    );
    let mut header = vec!["nodes".to_string(), "linear".to_string()];
    header.extend(systems.iter().map(|s| s.label().to_string()));
    let rows: Vec<Vec<String>> = nodes
        .iter()
        .map(|&n| {
            let mut row = vec![n.to_string(), format!("{n}.0")];
            for &sys in systems {
                let r = simulate(model, &SimConfig::system(sys, n, bandwidth_gbps));
                row.push(format!("{:.1}", r.speedup));
            }
            row
        })
        .collect();
    println!("{}", stats::render_table(&header, &rows));
}

/// Parses an optional `--trace-out PATH` flag from the binary's argv (the
/// figure binaries accept it to dump one simulated iteration as a Chrome
/// trace alongside their tables).
pub fn trace_out_arg() -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--trace-out" {
            return args.next();
        }
    }
    None
}

/// Runs one traced simulation of `model` under `cfg`, prints the standard
/// telemetry summary, and writes validated Chrome-trace JSON to `path`.
pub fn write_sim_trace(model: &ModelSpec, cfg: &SimConfig, path: &str) {
    let (_, trace) = simulate_with_trace(model, cfg);
    print!(
        "{}",
        report::summarize(std::slice::from_ref(&trace)).render()
    );
    let json = chrome::to_chrome_json(&[trace]);
    let stats = chrome::validate(&json).expect("simulated trace must validate");
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!(
        "trace=valid events={} spans={} tracks={} file={path}",
        stats.events, stats.spans, stats.tracks
    );
}
