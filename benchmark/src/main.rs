//! The repo's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! benchmark run [--workload W]... [--seed S] [--seconds N] [--repeats N] [--quick]
//! benchmark run --workload W --seed S --seconds N --trace 0|1   (benchmark driver)
//! benchmark probe [--workload W] [--seed S]
//! benchmark compare A.json B.json
//! ```

mod child;
mod compare;
mod json;
mod ledger;
mod names;
mod probes;
mod run;
mod simzoo;
mod stats;
mod workloads;

use std::path::Path;
use std::time::Instant;

const USAGE: &str = "usage:
  benchmark run [--workload W]... [--seed S] [--seconds N] [--repeats N] [--quick] [--trace 0|1]
  benchmark probe [--workload W] [--seed S]
  benchmark compare A.json B.json";

/// `--flag value` pairs and bare flags after the subcommand.
struct Flags {
    workloads: Vec<String>,
    seed: u64,
    seconds: usize,
    repeats: usize,
    quick: bool,
    traced: bool,
    trace: Option<bool>,
    positional: Vec<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workloads: Vec::new(),
        seed: 1,
        seconds: workloads::DEFAULT_SECONDS,
        repeats: workloads::DEFAULT_REPEATS,
        quick: false,
        traced: false,
        trace: None,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        fn number<T: std::str::FromStr>(flag: &str, text: String) -> Result<T, String> {
            text.parse()
                .map_err(|_| format!("{flag}: {text:?} is not a number"))
        }
        match arg.as_str() {
            "--workload" => flags.workloads.push(value("a name")?),
            "--seed" => flags.seed = number(arg, value("a number")?)?,
            "--seconds" => flags.seconds = number(arg, value("a number")?)?,
            "--repeats" => flags.repeats = number(arg, value("a number")?)?,
            "--trace" => {
                flags.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: {other:?} is neither 0 nor 1")),
                })
            }
            "--quick" => flags.quick = true,
            "--traced" => flags.traced = true,
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            _ => flags.positional.push(arg.clone()),
        }
    }
    if flags.seconds == 0 || flags.repeats == 0 {
        return Err("--seconds and --repeats must be at least 1".into());
    }
    Ok(flags)
}

fn main() {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let flags = parse_flags(rest).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    let code = match command.as_str() {
        "run" => run::main(&run::RunArgs {
            workloads: if flags.workloads.is_empty() {
                workloads::NAMES.iter().map(|n| n.to_string()).collect()
            } else {
                flags.workloads
            },
            seed: flags.seed,
            seconds: flags.seconds,
            repeats: flags.repeats,
            quick: flags.quick,
            driver_trace: flags.trace,
        }),
        "probe" => {
            let name = flags.workloads.first().map_or("fc_ps_tcp", String::as_str);
            match workloads::workload(name, flags.seconds, flags.quick) {
                Some(w) => {
                    println!("{}", child::probes_json(&w, flags.seed).render());
                    0
                }
                None => {
                    eprintln!("unknown workload {name:?}");
                    2
                }
            }
        }
        "compare" => match flags.positional.as_slice() {
            [a, b] => {
                let bounds = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
                match compare::compare(&bounds, Path::new(a), Path::new(b)) {
                    Ok(true) => 0,
                    Ok(false) => 1,
                    Err(e) => {
                        eprintln!("{e}");
                        2
                    }
                }
            }
            _ => {
                eprintln!("{USAGE}");
                2
            }
        },
        // Internal: one measured run, spawned by `run`.
        "child" => match flags.workloads.as_slice() {
            [name] => child::main(
                &child::ChildArgs {
                    workload: name.clone(),
                    seed: flags.seed,
                    seconds: flags.seconds,
                    quick: flags.quick,
                    traced: flags.traced,
                },
                process_start,
            ),
            _ => 2,
        },
        _ => {
            eprintln!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}
