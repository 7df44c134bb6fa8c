//! The `paper` driver: every deterministic table and figure regenerates its
//! committed `results/<name>.txt` byte for byte, and the argv parser
//! refuses what it does not understand.

use std::path::Path;

use poseidon_bench::paper::{self, Command};

/// Regenerates figure `name` and compares it with `results/<name>.txt`,
/// naming the first line that differs.
fn matches_results(name: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(format!("{name}.txt"));
    let committed = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    let printed = paper::render(name, None).unwrap_or_else(|| panic!("no figure {name}"));
    if printed == committed {
        return;
    }
    let (mut got, mut want) = (printed.split('\n'), committed.split('\n'));
    let mut line = 1;
    loop {
        match (got.next(), want.next()) {
            (g, w) if g == w => line += 1,
            (g, w) => panic!(
                "{name} no longer prints results/{name}.txt: line {line} is {g:?}, \
                 the file has {w:?}. Regenerate with \
                 `cargo run --release -p poseidon-bench --bin paper -- {name} > results/{name}.txt` \
                 if the change is meant."
            ),
        }
    }
}

#[test]
fn table1_matches_results() {
    matches_results("table1");
}

#[test]
fn table3_matches_results() {
    matches_results("table3");
}

#[test]
fn overhead_matches_results() {
    matches_results("overhead");
}

#[test]
fn multigpu_matches_results() {
    matches_results("multigpu");
}

#[test]
fn fig5_matches_results() {
    matches_results("fig5");
}

#[test]
fn fig6_matches_results() {
    matches_results("fig6");
}

#[test]
fn fig7_matches_results() {
    matches_results("fig7");
}

#[test]
fn fig8_matches_results() {
    matches_results("fig8");
}

#[test]
fn fig10_matches_results() {
    matches_results("fig10");
}

#[test]
fn ablation_matches_results() {
    matches_results("ablation");
}

fn parse(args: &[&str]) -> Result<Command, String> {
    let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
    paper::parse(&args)
}

/// Parses `args`, expects a usage error and returns its message.
fn rejected(args: &[&str]) -> String {
    match parse(args) {
        Ok(_) => panic!("{args:?} accepted"),
        Err(message) => {
            assert!(message.contains("usage: paper"), "{message}");
            message
        }
    }
}

#[test]
fn parser_rejects_an_unknown_figure() {
    assert!(rejected(&["fig12"]).contains("unknown figure 'fig12'"));
    rejected(&[]);
    rejected(&["--trace-out", "out.json"]);
}

#[test]
fn parser_rejects_an_unknown_flag() {
    assert!(rejected(&["fig5", "--trace-ot", "out.json"]).contains("unknown flag '--trace-ot'"));
    rejected(&["fig6", "anything"]);
    rejected(&["fig6", "fig7"]);
    rejected(&["sim", "--model", "vgg19", "--trace-out", "out.json"]);
}

#[test]
fn parser_rejects_trace_out_on_a_figure_without_a_trace() {
    assert!(rejected(&["fig6", "--trace-out", "out.json"]).contains("fig6 writes no trace"));
    rejected(&["all", "--trace-out", "out.json"]);
}

#[test]
fn parser_rejects_trace_out_without_a_path() {
    for figure in ["fig5", "ablation"] {
        assert!(rejected(&[figure, "--trace-out"]).contains("--trace-out needs a path"));
    }
}

#[test]
fn parser_rejects_bad_sim_flags() {
    assert!(rejected(&["sim", "--model", "vgg20"]).contains("unknown model 'vgg20'"));
    rejected(&["sim"]);
    rejected(&["sim", "--model"]);
    rejected(&["sim", "--model", "vgg19", "--nodes", "eight"]);
    rejected(&["sim", "--model", "vgg19", "--system", "mxnet"]);
    rejected(&["sim", "--model", "vgg19", "--help"]);
    for (flag, value) in [
        ("--nodes", "0"),
        ("--gpus", "0"),
        ("--batch", "0"),
        ("--bandwidth", "0"),
        ("--bandwidth", "NaN"),
        ("--straggler", "-1"),
    ] {
        let message = rejected(&["sim", "--model", "vgg19", flag, value]);
        assert!(
            message.contains("must be positive"),
            "{flag} {value}: {message}"
        );
    }
}

/// Every name `paper all` prints, in order.
const FIGURES: [&str; 13] = [
    "table1", "table3", "overhead", "multigpu", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
    "fig11", "ablation", "ssp",
];

#[test]
fn parser_accepts_each_figure_all_traces_and_sim() {
    for figure in FIGURES {
        match parse(&[figure]) {
            Ok(Command::Figures(figures, None)) => assert_eq!(figures, [figure]),
            _ => panic!("{figure} not parsed"),
        }
    }
    match parse(&["all"]) {
        Ok(Command::Figures(figures, None)) => assert_eq!(figures, FIGURES),
        _ => panic!("all not parsed"),
    }
    for figure in ["fig5", "ablation"] {
        match parse(&[figure, "--trace-out", "out.json"]) {
            Ok(Command::Figures(figures, Some(path))) => {
                assert_eq!((figures, path.as_str()), (vec![figure], "out.json"));
            }
            _ => panic!("{figure} --trace-out not parsed"),
        }
    }
    assert!(paper::render("fig12", None).is_none());
    let sim = parse(&[
        "sim",
        "--model",
        "alexnet",
        "--system",
        "cntk-1bit",
        "--nodes",
        "4",
        "--bandwidth",
        "2.5",
        "--gpus",
        "2",
        "--batch",
        "64",
        "--straggler",
        "1.5",
        "--drop",
    ]);
    let Ok(Command::Sim(query)) = sim else {
        panic!("sim not parsed");
    };
    let text = query.render();
    assert!(text.starts_with("model        : AlexNet"), "{text}");
    assert!(text.contains("system       : CNTK-1bit\n"), "{text}");
    assert!(
        text.contains("cluster      : 4 nodes x 2 GPU(s), 2.5 GbE\n"),
        "{text}"
    );
}
