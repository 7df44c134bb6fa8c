//! Cluster, scheme and scheduling configuration shared by both backends.

pub use poseidon_netsim::Topology;
pub use poseidon_tensor::compress::Codec;

/// How one layer's parameters are synchronised.
///
/// Gradient *compression* is deliberately not a scheme: it is an orthogonal
/// [`Codec`] picked per layer by the [`CodecPolicy`], composable with PS and
/// the collectives (the CNTK-style 1-bit baseline is `Ps` + `Codec::OneBit`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CommScheme {
    /// Sharded parameter server: push dense gradients, pull dense parameters.
    Ps,
    /// Sufficient-factor broadcasting: P2P broadcast of `(u, v)` factor pairs,
    /// dense gradient reconstructed at every worker.
    Sfb,
    /// Project Adam's strategy: push factors to the owning server shard, pull
    /// the dense parameter matrix back (load-imbalanced; baseline).
    AdamSf,
    /// Ring allreduce: scaled gradient contributions accumulate around an
    /// id-ordered worker chain, then the folded update distributes the other
    /// way — no server traffic, ≈2 tensor transits per NIC.
    Ring,
}

impl std::fmt::Display for CommScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            CommScheme::Ps => "PS",
            CommScheme::Sfb => "SFB",
            CommScheme::AdamSf => "AdamSF",
            CommScheme::Ring => "Ring",
        };
        write!(f, "{s}")
    }
}

/// Policy mapping layers to gradient-compression codecs, orthogonal to the
/// [`SchemePolicy`]. SFB/Adam layers always ride identity — sufficient
/// factors *are* the compression — and the coordinator enforces that.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum CodecPolicy {
    /// Raw f32 everywhere — bitwise identical to the pre-codec wire.
    #[default]
    Identity,
    /// One codec for every codec-capable (PS/ring) layer.
    Always(Codec),
}

/// Policy mapping layers to schemes.
///
/// Not `Eq`: [`SchemePolicy::TopoAware`] carries floating-point link
/// parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SchemePolicy {
    /// Everything via the parameter server (the WFBP-only baselines).
    AlwaysPs,
    /// The paper's HybComm: per-layer `BestScheme` (Algorithm 1) — SFB for an
    /// FC layer when its analytic byte cost is lower, PS otherwise.
    Hybrid,
    /// Force SFB for every FC layer regardless of cost (ablation).
    AlwaysSfbForFc,
    /// Project Adam's SF-push / matrix-pull for FC layers (baseline).
    AdamSf,
    /// The CNTK-style baseline: PS everywhere with [`Codec::OneBit`] on FC
    /// layers (shorthand for `AlwaysPs` + a codec policy; kept as a named
    /// policy so profiles and CLIs can ask for the baseline by name).
    OneBit,
    /// Ring allreduce for every trainable layer (ablation / collectives).
    AlwaysRing,
    /// Generalised HybComm: price PS, SFB and ring per layer against a
    /// hierarchical topology and pick the cheapest
    /// ([`crate::costmodel::best_scheme_topo`]).
    TopoAware(Topology),
}

/// When layer synchronisation is allowed to start.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheduler {
    /// Synchronise after the whole backward pass (vanilla PS parallelisation;
    /// `Ct` and `St` strictly alternate).
    Sequential,
    /// Wait-free backpropagation: layer `l`'s sync starts as soon as `bˡ`
    /// completes, overlapping with `bⁱ (i < l)`.
    Wfbp,
}

/// How parameters are partitioned across server shards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Partition {
    /// Poseidon's fixed-size KV pairs spread round-robin over shards
    /// (default 2 MB, i.e. 512Ki f32 values per pair).
    KvPairs {
        /// KV-pair payload size in f32 elements.
        pair_elems: usize,
    },
    /// TensorFlow-style coarse granularity: each tensor lives wholly on one
    /// shard (round-robin by layer) — the hot-spot baseline of Figure 7.
    WholeTensor,
}

impl Partition {
    /// Poseidon's default 2 MB KV pairs.
    pub fn default_kv_pairs() -> Self {
        Partition::KvPairs {
            pair_elems: 512 * 1024,
        }
    }
}

/// Compute-thread budget for the batch-parallel layer kernels
/// (`poseidon_nn::parallel`).
///
/// The threaded runtime divides the budget evenly across its worker threads
/// (`max(1, total / workers)`) so worker-level and batch-level parallelism
/// compose without oversubscribing the machine. A budget of 1 per worker
/// runs the legacy single-threaded kernels. Thread count never changes
/// results: layer kernels are bitwise thread-count independent.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ComputeConfig {
    /// Resolve from the `POSEIDON_THREADS` environment variable if set to a
    /// positive integer, else `std::thread::available_parallelism()`.
    #[default]
    Auto,
    /// A fixed total compute-thread budget for the run.
    Fixed(usize),
}

impl ComputeConfig {
    /// The total compute-thread budget this config resolves to (≥ 1).
    pub fn total_threads(&self) -> usize {
        match *self {
            ComputeConfig::Auto => poseidon_nn::parallel::compute_threads(),
            ComputeConfig::Fixed(n) => n.max(1),
        }
    }

    /// The per-worker share of the budget when `workers` runtime workers
    /// compute concurrently.
    pub fn threads_per_worker(&self, workers: usize) -> usize {
        (self.total_threads() / workers.max(1)).max(1)
    }
}

/// Cluster topology parameters used by the cost model (Table 1's `P1`, `P2`,
/// `K`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Number of worker nodes (`P1`).
    pub workers: usize,
    /// Number of server shards (`P2`).
    pub servers: usize,
    /// Per-worker minibatch size (`K`).
    pub batch_per_worker: usize,
    /// `true` when every node is both a worker and a server (the paper's
    /// deployment); synchronising a node's own shard is then free.
    pub colocated: bool,
}

impl ClusterConfig {
    /// The paper's standard deployment: every one of `nodes` machines is both
    /// a worker and a PS shard.
    pub fn colocated(nodes: usize, batch_per_worker: usize) -> Self {
        assert!(nodes > 0, "cluster needs at least one node");
        Self {
            workers: nodes,
            servers: nodes,
            batch_per_worker,
            colocated: true,
        }
    }

    /// Total nodes participating (max of the two roles when colocated).
    pub fn nodes(&self) -> usize {
        if self.colocated {
            self.workers.max(self.servers)
        } else {
            self.workers + self.servers
        }
    }

    /// Aggregate minibatch per iteration (`K · P1`).
    pub fn global_batch(&self) -> usize {
        self.batch_per_worker * self.workers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn colocated_cluster_counts_nodes_once() {
        let c = ClusterConfig::colocated(8, 32);
        assert_eq!(c.nodes(), 8);
        assert_eq!(c.workers, 8);
        assert_eq!(c.servers, 8);
        assert_eq!(c.global_batch(), 256);
        assert!(c.colocated);
    }

    #[test]
    fn disjoint_cluster_sums_roles() {
        let c = ClusterConfig {
            workers: 8,
            servers: 4,
            batch_per_worker: 16,
            colocated: false,
        };
        assert_eq!(c.nodes(), 12);
    }

    #[test]
    fn default_kv_pair_is_two_megabytes() {
        match Partition::default_kv_pairs() {
            Partition::KvPairs { pair_elems } => assert_eq!(pair_elems * 4, 2 * 1024 * 1024),
            Partition::WholeTensor => panic!("wrong default"),
        }
    }

    #[test]
    fn scheme_display_names() {
        assert_eq!(CommScheme::Ps.to_string(), "PS");
        assert_eq!(CommScheme::Sfb.to_string(), "SFB");
        assert_eq!(CommScheme::AdamSf.to_string(), "AdamSF");
        assert_eq!(CommScheme::Ring.to_string(), "Ring");
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_node_cluster_rejected() {
        let _ = ClusterConfig::colocated(0, 32);
    }

    #[test]
    fn fixed_compute_budget_divides_across_workers() {
        let c = ComputeConfig::Fixed(8);
        assert_eq!(c.total_threads(), 8);
        assert_eq!(c.threads_per_worker(1), 8);
        assert_eq!(c.threads_per_worker(2), 4);
        assert_eq!(c.threads_per_worker(3), 2);
        assert_eq!(c.threads_per_worker(16), 1, "floor of one thread");
        assert_eq!(ComputeConfig::Fixed(0).total_threads(), 1, "clamped to one");
    }

    #[test]
    fn auto_compute_budget_is_positive() {
        assert!(ComputeConfig::Auto.total_threads() >= 1);
        assert!(ComputeConfig::default().threads_per_worker(4) >= 1);
        assert_eq!(ComputeConfig::default(), ComputeConfig::Auto);
    }
}
