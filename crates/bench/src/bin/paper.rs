//! Regenerates the paper's tables and figures, or runs one ad-hoc cluster
//! simulation:
//!
//! ```console
//! $ cargo run --release -p poseidon-bench --bin paper -- <figure|all> [--trace-out PATH]
//! $ cargo run --release -p poseidon-bench --bin paper -- sim --model vgg19 --nodes 16
//! ```
//!
//! An argument it does not understand prints the usage and exits with code 2.

use poseidon_bench::paper::{self, Command};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match paper::parse(&args) {
        Ok(Command::Figures(names, trace_out)) => {
            for name in names {
                let text = paper::render(name, trace_out.as_deref());
                print!("{}", text.expect("parse yields known figure names"));
            }
        }
        Ok(Command::Sim(query)) => print!("{}", query.render()),
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2)
        }
    }
}
