//! `paper sim`: one ad-hoc cluster simulation from the command line.
//!
//! ```console
//! $ cargo run --release -p poseidon-bench --bin paper -- sim \
//!       --model vgg19 --system poseidon --nodes 16 --bandwidth 10 --gpus 1
//! ```
//!
//! Options:
//!   --model      googlenet | inception | vgg19 | vgg19-22k | resnet152 | alexnet
//!   --system     poseidon | wfbp | caffe-ps | tf | adam | cntk-1bit
//!   --nodes N    cluster size (default 8)
//!   --bandwidth G  per-direction GbE (default 40)
//!   --gpus G     GPUs per node (default 1)
//!   --batch K    per-GPU batch (default: the model's Table-3 batch)
//!   --straggler F  make node 0 F-times slower
//!   --drop       drop the straggler instead of waiting

use std::str::FromStr;

use poseidon::config::CommScheme;
use poseidon::sim::{simulate, SimConfig, System};
use poseidon_nn::zoo::{self, ModelSpec};

/// The systems `--system` names.
pub(super) const SYSTEMS: [(&str, System); 6] = [
    ("poseidon", System::Poseidon),
    ("wfbp", System::WfbpPs),
    ("caffe-ps", System::CaffePs),
    ("tf", System::TensorFlow),
    ("adam", System::Adam),
    ("cntk-1bit", System::Cntk1Bit),
];

/// One simulation `paper sim` runs: a model, a system and its cluster.
pub struct Query {
    model: ModelSpec,
    system: System,
    cfg: SimConfig,
}

/// Parses `paper sim`'s flags.
pub(super) fn parse(flags: &[String]) -> Result<Query, String> {
    let mut model = None;
    let mut system = System::Poseidon;
    let (mut nodes, mut bandwidth, mut gpus) = (8usize, 40.0f64, 1usize);
    let (mut batch, mut straggler, mut drop) = (None, None, false);
    let mut flags = flags.iter().map(String::as_str);
    while let Some(flag) = flags.next() {
        let mut value = || flags.next().ok_or(format!("{flag} needs a value"));
        match flag {
            "--model" => {
                let name = value()?;
                model = Some(zoo::by_name(name).ok_or(format!("unknown model '{name}'"))?);
            }
            "--system" => {
                let name = value()?;
                system = super::lookup(&SYSTEMS, name).ok_or(format!("unknown system '{name}'"))?;
            }
            "--nodes" => nodes = number(flag, value()?)?,
            "--bandwidth" => bandwidth = number(flag, value()?)?,
            "--gpus" => gpus = number(flag, value()?)?,
            "--batch" => batch = Some(number(flag, value()?)?),
            "--straggler" => straggler = Some((0, number(flag, value()?)?)),
            "--drop" => drop = true,
            _ => return Err(format!("unknown sim flag '{flag}'")),
        }
    }
    let model = model.ok_or("sim needs --model")?;
    let factor = straggler.map_or(1.0, |(_, f)| f);
    if nodes == 0 || gpus == 0 || batch == Some(0) || !(bandwidth > 0.0 && factor > 0.0) {
        return Err(
            "--nodes, --gpus, --batch, --bandwidth and --straggler must be positive".into(),
        );
    }
    let mut cfg = SimConfig::system(system, nodes, bandwidth);
    cfg.gpus_per_node = gpus;
    cfg.batch_per_node = batch;
    cfg.straggler = straggler;
    cfg.drop_stragglers = drop;
    Ok(Query { model, system, cfg })
}

fn number<T: FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} takes a number, not '{value}'"))
}

impl Query {
    /// Simulates the query and describes the run.
    pub fn render(&self) -> String {
        let Query { model, system, cfg } = self;
        let r = simulate(model, cfg);
        let gbit = &r.per_node_gbit;
        let max = gbit.iter().cloned().fold(0.0f64, f64::max);
        let mean = gbit.iter().sum::<f64>() / gbit.len().max(1) as f64;
        let sfb = r.schemes.iter().filter(|(_, s)| *s == CommScheme::Sfb);
        format!(
            "model        : {} ({:.1}M params)\n\
             system       : {}\n\
             cluster      : {} nodes x {} GPU(s), {} GbE\n\
             iteration    : {:.4} s ({:.4} s compute, {:.0}% stall)\n\
             throughput   : {:.1} img/s ({:.1} img/s on one GPU)\n\
             speedup      : {:.2}x over one GPU\n\
             traffic/node : {mean:.2} Gb/iter mean, {max:.2} max\n\
             schemes      : {} layers total, {} via SFB\n",
            model.name,
            model.total_params() as f64 / 1e6,
            system.label(),
            cfg.nodes,
            cfg.gpus_per_node,
            cfg.bandwidth_gbps,
            r.iter_time_s,
            r.compute_s,
            r.stall_fraction * 100.0,
            r.throughput_ips,
            r.single_node_ips,
            r.speedup,
            r.schemes.len(),
            sfb.count(),
        )
    }
}
