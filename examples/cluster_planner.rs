//! Cluster planner: before renting machines, ask the simulator what
//! bandwidth and cluster size a model actually needs — the workload of the
//! paper's intro (is 10GbE enough for VGG19? what do I gain from HybComm?).
//!
//! Run: `cargo run --release --example cluster_planner -- [model]`
//! where model is one of: googlenet, inception, vgg19, vgg19-22k, resnet152,
//! alexnet (default vgg19).

use poseidon::sim::{simulate, SimConfig, System};
use poseidon_nn::zoo;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "vgg19".into());
    let Some(model) = zoo::by_name(&name) else {
        let names: Vec<&str> = zoo::names().collect();
        eprintln!("unknown model '{name}'; one of: {}", names.join(" "));
        std::process::exit(2)
    };
    println!(
        "{}: {:.1}M parameters, {:.0}% in FC layers, batch {}\n",
        model.name,
        model.total_params() as f64 / 1e6,
        model.fc_fraction() * 100.0,
        model.default_batch
    );

    println!("efficiency (speedup / nodes) by bandwidth, Poseidon vs PS-only:");
    println!(
        "{:>8} {:>7} {:>14} {:>14}",
        "nodes", "GbE", "Poseidon", "PS-only"
    );
    for &nodes in &[8usize, 16, 32] {
        for &bw in &[1.0, 5.0, 10.0, 25.0, 40.0] {
            let psd = simulate(&model, &SimConfig::system(System::Poseidon, nodes, bw));
            let ps = simulate(&model, &SimConfig::system(System::WfbpPs, nodes, bw));
            println!(
                "{:>8} {:>7} {:>13.0}% {:>13.0}%",
                nodes,
                bw,
                100.0 * psd.speedup / nodes as f64,
                100.0 * ps.speedup / nodes as f64,
            );
        }
        println!();
    }

    // Find the cheapest bandwidth at which Poseidon keeps >= 90% efficiency
    // on 16 nodes.
    let verdict = [1.0, 2.0, 5.0, 10.0, 25.0, 40.0].iter().find(|&&bw| {
        let r = simulate(&model, &SimConfig::system(System::Poseidon, 16, bw));
        r.speedup / 16.0 >= 0.9
    });
    match verdict {
        Some(bw) => println!(
            "=> {} scales to 16 nodes at >=90% efficiency with {bw:.0} GbE under Poseidon.",
            model.name
        ),
        None => println!(
            "=> even 40 GbE cannot hold 90% efficiency at 16 nodes for {}.",
            model.name
        ),
    }
}
