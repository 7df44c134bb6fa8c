//! Simulator configuration: systems under test and the GPU compute model.

use crate::config::{CodecPolicy, Partition, Scheduler, SchemePolicy};
use poseidon_nn::zoo::ModelSpec;

/// The named systems compared in the paper's evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum System {
    /// Vanilla PS parallelisation of Caffe: synchronisation strictly after
    /// backward, GPU↔CPU memcpy unoverlapped ("Caffe+PS").
    CaffePs,
    /// Poseidon-scheduled PS: WFBP overlap, fine-grained KV pairs, but no
    /// HybComm ("Caffe+WFBP" / "TF+WFBP").
    WfbpPs,
    /// Full Poseidon: WFBP + HybComm.
    Poseidon,
    /// Distributed TensorFlow baseline: sequential sync with whole-tensor
    /// shard placement ("TF").
    TensorFlow,
    /// Project Adam's SF-push / matrix-pull for FC layers, WFBP otherwise.
    Adam,
    /// CNTK-style 1-bit quantization of FC gradients, sequential scheduler.
    Cntk1Bit,
}

impl System {
    /// Display label as used in the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            System::CaffePs => "Caffe+PS",
            System::WfbpPs => "WFBP(PS)",
            System::Poseidon => "Poseidon",
            System::TensorFlow => "TF",
            System::Adam => "Adam",
            System::Cntk1Bit => "CNTK-1bit",
        }
    }
}

/// Full simulator configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Cluster size (every node is worker + colocated PS shard).
    pub nodes: usize,
    /// Per-GPU batch; `None` uses the model's Table-3 batch.
    pub batch_per_node: Option<usize>,
    /// GPUs per node (Section 5.1 "Multi-GPU Settings"). Gradients from the
    /// node's GPUs are aggregated on a leader GPU over PCIe before network
    /// synchronisation, and fresh parameters are re-distributed afterwards.
    pub gpus_per_node: usize,
    /// Device-to-device PCIe copy bandwidth for the local aggregation
    /// (bytes/s). Defaults to 8 GB/s — PCIe 3.0 x16 staging through the
    /// host bridge, shared by the node's GPUs.
    pub pcie_bytes_per_s: f64,
    /// Per-direction NIC bandwidth (GbE figure).
    pub bandwidth_gbps: f64,
    /// Fraction of the nominal bandwidth achievable as application goodput
    /// (TCP/IP + framing overhead, imperfect pipelining). Applied to
    /// `bandwidth_gbps` before simulation.
    pub bandwidth_efficiency: f64,
    /// One-way message latency.
    pub latency_s: f64,
    /// When layer synchronisation may start.
    pub scheduler: Scheduler,
    /// Layer-to-scheme policy.
    pub policy: SchemePolicy,
    /// Layer-to-codec policy, orthogonal to the scheme policy (identity by
    /// default; the `OneBit` scheme policy implies the 1-bit codec on FC
    /// layers regardless). Compressed wire bytes are priced against the
    /// ledger; the codec's transform passes are charged on the CPU stream.
    pub codec_policy: CodecPolicy,
    /// Parameter placement across shards.
    pub partition: Partition,
    /// Vanilla-Caffe-PS behaviour: GPU↔CPU copies block the iteration.
    ///
    /// Poseidon's client library multi-threads the `Move` operations with
    /// CUDA async copies over pinned memory (~12 GB/s), fully overlapped with
    /// computation — the simulator treats those as free, as the paper's
    /// single-node measurements justify. The vanilla PS baseline instead does
    /// synchronous unpinned copies on the critical path; when this flag is
    /// set, every move costs `bytes / memcpy_bytes_per_s + per_move_overhead`.
    pub unoverlapped_memcpy: bool,
    /// Effective GPU throughput (FLOP/s) when the model carries no
    /// single-node calibration number.
    pub gpu_default_flops: f64,
    /// Effective *unpinned synchronous* GPU↔CPU copy bandwidth (bytes/s),
    /// charged only for `unoverlapped_memcpy` engines.
    pub memcpy_bytes_per_s: f64,
    /// Fixed per-move launch/sync overhead for unoverlapped engines.
    pub per_move_overhead_s: f64,
    /// Server-side update application rate (bytes/s of gradient folded).
    pub apply_bytes_per_s: f64,
    /// Rate for SF reconstruction / (de)quantization work (FLOP/s on the
    /// transform stream).
    pub transform_flops: f64,
    /// Inject a straggler: `(node, compute slowdown factor > 1)`, with
    /// `node < nodes` (a simulation refuses any other).
    pub straggler: Option<(usize, f64)>,
    /// The paper's straggler policy: "Poseidon handles stragglers by simply
    /// dropping them" — when set, BSP aggregation proceeds once `P − 1`
    /// contributions arrive and the straggler's late update is discarded
    /// (it still receives fresh parameters).
    pub drop_stragglers: bool,
    /// Use the max-min fair fluid-flow bandwidth model
    /// ([`poseidon_netsim::FlowNetwork`]) instead of the default FIFO NIC
    /// queues — higher fidelity for many concurrent TCP flows, slower to
    /// simulate.
    pub fair_share: bool,
}

impl SimConfig {
    /// Baseline knobs shared by every system.
    fn base(nodes: usize, bandwidth_gbps: f64) -> Self {
        Self {
            nodes,
            batch_per_node: None,
            gpus_per_node: 1,
            pcie_bytes_per_s: 8.0e9,
            bandwidth_gbps,
            bandwidth_efficiency: 0.7,
            latency_s: 50e-6,
            scheduler: Scheduler::Wfbp,
            policy: SchemePolicy::Hybrid,
            codec_policy: CodecPolicy::Identity,
            partition: Partition::default_kv_pairs(),
            unoverlapped_memcpy: false,
            gpu_default_flops: 4.0e12,
            memcpy_bytes_per_s: 1.8e9,
            per_move_overhead_s: 500e-6,
            apply_bytes_per_s: 10.0e9,
            transform_flops: 2.0e12,
            straggler: None,
            drop_stragglers: false,
            fair_share: false,
        }
    }

    /// Configuration for one of the paper's named systems.
    pub fn system(system: System, nodes: usize, bandwidth_gbps: f64) -> Self {
        let mut cfg = Self::base(nodes, bandwidth_gbps);
        match system {
            System::CaffePs => {
                cfg.scheduler = Scheduler::Sequential;
                cfg.policy = SchemePolicy::AlwaysPs;
                cfg.unoverlapped_memcpy = true;
            }
            System::WfbpPs => {
                cfg.policy = SchemePolicy::AlwaysPs;
            }
            System::Poseidon => {}
            System::TensorFlow => {
                cfg.scheduler = Scheduler::Sequential;
                cfg.policy = SchemePolicy::AlwaysPs;
                cfg.partition = Partition::WholeTensor;
                // gRPC tensor (de)serialisation on the critical path; see
                // Figure 7's stall breakdown.
                cfg.unoverlapped_memcpy = true;
                cfg.memcpy_bytes_per_s = 1.2e9;
                cfg.per_move_overhead_s = 100e-6;
            }
            System::Adam => {
                cfg.policy = SchemePolicy::AdamSf;
            }
            System::Cntk1Bit => {
                cfg.scheduler = Scheduler::Sequential;
                cfg.policy = SchemePolicy::OneBit;
            }
        }
        cfg
    }
}

/// Per-layer compute times for one model at one batch size.
///
/// If the spec carries the paper's measured single-node images/sec, the
/// effective GPU FLOP rate is calibrated so the simulated single-node
/// iteration time reproduces it exactly; otherwise a default effective rate
/// is used.
#[derive(Clone, Debug)]
pub struct LayerTimes {
    /// Forward time per layer (whole batch), seconds.
    pub fwd: Vec<f64>,
    /// Backward time per layer (whole batch), seconds.
    pub bwd: Vec<f64>,
    /// The effective FLOP rate used.
    pub effective_flops: f64,
}

impl LayerTimes {
    /// Derives layer times for `spec` at `batch` samples per iteration.
    pub fn derive(spec: &ModelSpec, batch: usize, default_flops: f64) -> Self {
        let per_sample = (spec.fwd_flops() + spec.bwd_flops()) as f64;
        let effective_flops = match spec.paper_single_node_ips {
            Some(ips) => per_sample * ips,
            None => default_flops,
        };
        let scale = batch as f64 / effective_flops;
        Self {
            fwd: spec
                .layers
                .iter()
                .map(|l| l.fwd_flops as f64 * scale)
                .collect(),
            bwd: spec
                .layers
                .iter()
                .map(|l| l.bwd_flops as f64 * scale)
                .collect(),
            effective_flops,
        }
    }

    /// Total compute time of one iteration (forward + backward).
    pub fn total(&self) -> f64 {
        self.fwd.iter().sum::<f64>() + self.bwd.iter().sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poseidon_nn::zoo;

    #[test]
    fn calibration_reproduces_paper_single_node_throughput() {
        let spec = zoo::vgg19();
        let batch = spec.default_batch;
        let times = LayerTimes::derive(&spec, batch, 4.0e12);
        let ips = batch as f64 / times.total();
        assert!(
            (ips - 35.5).abs() < 0.1,
            "calibrated single-node VGG19 throughput {ips} != paper's 35.5"
        );
    }

    #[test]
    fn uncalibrated_model_uses_default_rate() {
        let spec = zoo::cifar10_quick(); // no paper ips
        let times = LayerTimes::derive(&spec, 100, 1.0e12);
        assert_eq!(times.effective_flops, 1.0e12);
        assert!(times.total() > 0.0);
    }

    #[test]
    fn layer_times_scale_with_batch() {
        let spec = zoo::googlenet();
        let t64 = LayerTimes::derive(&spec, 64, 4e12);
        let t128 = LayerTimes::derive(&spec, 128, 4e12);
        assert!((t128.total() / t64.total() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn backward_dominates_forward() {
        let spec = zoo::vgg19();
        let times = LayerTimes::derive(&spec, 32, 4e12);
        let fwd: f64 = times.fwd.iter().sum();
        let bwd: f64 = times.bwd.iter().sum();
        assert!(bwd > fwd, "bwd {bwd} should exceed fwd {fwd}");
    }

    #[test]
    fn system_presets_match_paper_semantics() {
        let tf = SimConfig::system(System::TensorFlow, 8, 40.0);
        assert_eq!(tf.scheduler, Scheduler::Sequential);
        assert_eq!(tf.partition, Partition::WholeTensor);
        let psd = SimConfig::system(System::Poseidon, 8, 40.0);
        assert_eq!(psd.scheduler, Scheduler::Wfbp);
        assert_eq!(psd.policy, SchemePolicy::Hybrid);
        let caffe_ps = SimConfig::system(System::CaffePs, 8, 40.0);
        assert!(caffe_ps.unoverlapped_memcpy);
        assert_eq!(
            SimConfig::system(System::Cntk1Bit, 8, 40.0).policy,
            SchemePolicy::OneBit
        );
    }
}
