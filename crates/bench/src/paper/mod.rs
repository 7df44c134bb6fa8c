//! The paper's tables and figures, one function each, behind one driver.
//!
//! [`render`] writes a table or figure by name (`table1`, `fig5`,
//! `ablation`, ...), and [`parse`] turns the `paper` binary's argv into a
//! [`Command`]:
//!
//! ```console
//! $ cargo run --release -p poseidon-bench --bin paper -- fig5
//! $ cargo run --release -p poseidon-bench --bin paper -- all
//! $ cargo run --release -p poseidon-bench --bin paper -- fig5 --trace-out /tmp/fig5.json
//! $ cargo run --release -p poseidon-bench --bin paper -- sim --model vgg19 --nodes 16
//! ```
//!
//! Every simulator-backed output is deterministic and committed under
//! `results/<name>.txt`; `crates/bench/tests/paper.rs` regenerates each and
//! diffs it against its file. `fig9`, `fig11` and `ssp` train real networks
//! on the threaded runtime (`ssp` also prints wall-clock seconds).

mod ablation;
mod sim;
mod simulated;
mod training;

use poseidon::sim::{simulate, simulate_with_trace, SimConfig, System};
use poseidon::stats::render_table;
use poseidon::telemetry::{chrome, report};
use poseidon_nn::zoo::{self, ModelSpec};

pub use sim::Query;

/// A table or figure: writes its text.
type Figure = fn(&mut Page);

/// Every table and figure by name, in the order `paper all` prints them.
const FIGURES: [(&str, Figure); 13] = [
    ("table1", simulated::table1),
    ("table3", simulated::table3),
    ("overhead", simulated::overhead),
    ("multigpu", simulated::multigpu),
    ("fig5", simulated::fig5),
    ("fig6", simulated::fig6),
    ("fig7", simulated::fig7),
    ("fig8", simulated::fig8),
    ("fig9", training::fig9),
    ("fig10", simulated::fig10),
    ("fig11", training::fig11),
    ("ablation", ablation::ablation),
    ("ssp", training::ssp),
];

/// The one simulated run of a figure that `--trace-out` dumps.
type Trace = fn() -> TracedRun;

/// The figures with a simulated run worth a Chrome trace.
const TRACES: [(&str, Trace); 2] = [
    ("fig5", simulated::fig5_trace),
    ("ablation", ablation::trace),
];

/// A traced run's caption, model and configuration.
type TracedRun = (&'static str, ModelSpec, SimConfig);

/// The text of table or figure `name`, if there is one. With `trace_out`,
/// its traced run is also written there as Chrome-trace JSON and
/// summarised after the text.
///
/// # Panics
/// If `trace_out` is given for a figure without a traced run, or the trace
/// cannot be written.
pub fn render(name: &str, trace_out: Option<&str>) -> Option<String> {
    let mut page = Page::default();
    lookup(&FIGURES, name)?(&mut page);
    if let Some(path) = trace_out {
        page.trace(lookup(&TRACES, name).expect("a traced run")(), path);
    }
    Some(page.0)
}

/// What one `paper` command line asks for.
pub enum Command {
    /// Print these figures in order, writing the one figure's traced run
    /// to the path if there is one.
    Figures(Vec<&'static str>, Option<String>),
    /// One ad-hoc cluster simulation.
    Sim(Box<Query>),
}

/// Parses the `paper` binary's arguments (argv without the program name).
/// The error is the message to print before exiting with code 2.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let fail = |reason: &str| format!("paper: {reason}\n{}", usage());
    let (name, flags) = args.split_first().ok_or_else(|| fail("no figure named"))?;
    if name == "sim" {
        return sim::parse(flags)
            .map(|q| Command::Sim(Box::new(q)))
            .map_err(|e| fail(&e));
    }
    let figures: Vec<&str> = match FIGURES.iter().find(|(n, _)| n == name) {
        Some(&(name, _)) => vec![name],
        None if name == "all" => FIGURES.map(|(name, _)| name).to_vec(),
        None => return Err(fail(&format!("unknown figure '{name}'"))),
    };
    let traced = lookup(&TRACES, name).is_some();
    let trace_out = match flags {
        [] => None,
        [flag, ..] if flag != "--trace-out" => {
            return Err(fail(&format!("unknown flag '{flag}'")));
        }
        [_] => return Err(fail("--trace-out needs a path")),
        [_, path] if traced => Some(path.clone()),
        [_, _] => return Err(fail(&format!("{name} writes no trace"))),
        [_, _, extra, ..] => return Err(fail(&format!("unknown flag '{extra}'"))),
    };
    Ok(Command::Figures(figures, trace_out))
}

/// The entry called `name` in a table of named entries.
fn lookup<T: Copy>(table: &[(&str, T)], name: &str) -> Option<T> {
    table
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, entry)| entry)
}

/// The usage message, listing every figure, model and system.
fn usage() -> String {
    format!(
        "usage: paper <figure|all> [--trace-out PATH]\n       \
         paper sim --model <name> [--system S] [--nodes N] [--bandwidth G]\n                 \
         [--gpus G] [--batch K] [--straggler F] [--drop]\n\
         figures: {} (--trace-out: {})\nmodels:  {}\nsystems: {}",
        FIGURES.map(|(name, _)| name).join(" "),
        TRACES.map(|(name, _)| name).join(" "),
        zoo::names().collect::<Vec<_>>().join(" "),
        sim::SYSTEMS.map(|(name, _)| name).join(" "),
    )
}

/// The text a figure writes, with the banner and table layout every figure
/// shares.
#[derive(Default)]
struct Page(String);

impl Page {
    /// Writes one line.
    fn line(&mut self, text: &str) {
        self.0.push_str(text);
        self.0.push('\n');
    }

    /// Writes a figure/table banner: its number and caption.
    fn banner(&mut self, title: &str) {
        self.line(&format!("==== {title} ===="));
    }

    /// Writes `rows` under `header` as one aligned table, then a blank line.
    fn table(&mut self, header: &[impl AsRef<str>], rows: &[Vec<String>]) {
        let header: Vec<String> = header.iter().map(|h| h.as_ref().to_string()).collect();
        self.line(&render_table(&header, rows));
    }

    /// Writes one panel of a scaling figure: a sweep over the paper's node
    /// counts of `systems` on `model` at `bandwidth_gbps`, one speedup
    /// column per system.
    fn speedup_panel(&mut self, model: &ModelSpec, systems: &[System], bandwidth_gbps: f64) {
        self.line(&format!(
            "{} ({bandwidth_gbps:.0} GbE), speedup vs single-node native:",
            model.name
        ));
        let mut header = vec!["nodes", "linear"];
        header.extend(systems.iter().map(System::label));
        let rows: Vec<Vec<String>> = [1usize, 2, 4, 8, 16, 32]
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
        self.table(&header, &rows);
    }

    /// Simulates one traced run, writes its validated Chrome-trace JSON to
    /// `path`, and writes its caption and telemetry summary.
    fn trace(&mut self, (caption, model, cfg): TracedRun, path: &str) {
        self.banner(&format!("Trace — {caption}"));
        let (_, trace) = simulate_with_trace(&model, &cfg);
        let summary = report::summarize(std::slice::from_ref(&trace));
        self.0.push_str(&summary.render());
        let json = chrome::to_chrome_json(&[trace]);
        let stats = chrome::validate(&json).expect("simulated trace must validate");
        std::fs::write(path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        self.line(&format!(
            "trace=valid events={} spans={} tracks={} file={path}",
            stats.events, stats.spans, stats.tracks
        ));
    }
}
