//! The analytic communication-cost model of Table 1 and the `BestScheme`
//! selection rule (Algorithm 1).
//!
//! Costs are expressed, as in the paper, in **number of f32 parameters
//! communicated by one node per iteration** for synchronising one `M × N`
//! fully-connected layer on a cluster of `P1` workers and `P2` server shards
//! with per-worker batch size `K`. Multiply by 4 for bytes.

use crate::config::{ClusterConfig, Codec, CommScheme, Topology};
use poseidon_tensor::compress::TOPK_DEFAULT_PERMILLE;

/// Per-role communication load (in f32 values), one row of Table 1.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CommCost {
    /// Load on a pure server node.
    pub server: f64,
    /// Load on a pure worker node.
    pub worker: f64,
    /// Load on a node acting as both server and worker (the paper's
    /// deployment).
    pub server_and_worker: f64,
}

impl CommCost {
    /// The load relevant to the given deployment.
    pub fn for_cluster(&self, cluster: &ClusterConfig) -> f64 {
        if cluster.colocated {
            self.server_and_worker
        } else {
            self.worker.max(self.server)
        }
    }
}

/// Parameter-server cost for an `M × N` layer (Table 1, row "PS").
///
/// A worker pushes `MN` gradients and pulls `MN` parameters (`2MN`); a server
/// holding `1/P2` of the parameters exchanges `2·P1·MN/P2`; a colocated node
/// subtracts its local shard traffic: `2MN(P1 + P2 − 2)/P2`.
pub fn ps_cost(m: usize, n: usize, cluster: &ClusterConfig) -> CommCost {
    let mn = (m as f64) * (n as f64);
    let p1 = cluster.workers as f64;
    let p2 = cluster.servers as f64;
    CommCost {
        server: 2.0 * p1 * mn / p2,
        worker: 2.0 * mn,
        server_and_worker: 2.0 * mn * (p1 + p2 - 2.0) / p2,
    }
}

/// Sufficient-factor broadcasting cost (Table 1, row "SFB").
///
/// Every worker broadcasts `K` factor pairs of `M + N` values to the other
/// `P1 − 1` workers and receives as many: `2K(P1 − 1)(M + N)`. There is no
/// server role.
pub fn sfb_cost(m: usize, n: usize, cluster: &ClusterConfig) -> f64 {
    let p1 = cluster.workers as f64;
    let k = cluster.batch_per_worker as f64;
    2.0 * k * (p1 - 1.0) * (m as f64 + n as f64)
}

/// Project Adam's cost (Table 1, row "Adam", worst-case server).
///
/// Workers push `K(M+N)` factor values and pull the dense `MN` matrix; the
/// single server shard owning the layer receives `P1·K(M+N)` and broadcasts
/// `P1·MN`; a colocated node carries `(P1 − 1)(MN + KM + KN)`.
pub fn adam_cost(m: usize, n: usize, cluster: &ClusterConfig) -> CommCost {
    let mn = (m as f64) * (n as f64);
    let p1 = cluster.workers as f64;
    let k = cluster.batch_per_worker as f64;
    let kmn = k * (m as f64 + n as f64);
    CommCost {
        server: p1 * mn + p1 * kmn,
        worker: kmn + mn,
        server_and_worker: (p1 - 1.0) * (mn + k * m as f64 + k * n as f64),
    }
}

/// Algorithm 1: the cheapest scheme for an `M × N` FC layer.
///
/// Returns [`CommScheme::Sfb`] iff `2K(P1−1)(M+N) ≤ 2MN(P1+P2−2)/P2`,
/// otherwise [`CommScheme::Ps`]. Non-FC layers never reach this function —
/// their updates are indecomposable, so the caller uses PS directly.
pub fn best_scheme_fc(m: usize, n: usize, cluster: &ClusterConfig) -> CommScheme {
    let sfb = sfb_cost(m, n, cluster);
    let ps = ps_cost(m, n, cluster).server_and_worker;
    if sfb <= ps {
        CommScheme::Sfb
    } else {
        CommScheme::Ps
    }
}

/// The batch size at which SFB stops being cheaper than PS for an `M × N`
/// layer (the crossover the paper describes in Section 5.2: SFB helps
/// "especially when the batch size is small").
pub fn sfb_crossover_batch(m: usize, n: usize, workers: usize, servers: usize) -> f64 {
    let mn = (m as f64) * (n as f64);
    let p1 = workers as f64;
    let p2 = servers as f64;
    mn * (p1 + p2 - 2.0) / (p2 * (p1 - 1.0) * (m as f64 + n as f64))
}

// ---------------------------------------------------------------------------
// Topology-aware step-time model (generalised HybComm)
// ---------------------------------------------------------------------------
//
// Table 1 counts bytes on a flat switched cluster; with a hierarchical
// topology the *where* matters as much as the *how much*. For each scheme we
// estimate three one-direction byte loads — the busiest device NIC
// (intra-node speed), the busiest per-node uplink, and the total crossing the
// (possibly oversubscribed) core — and take
// `latency_term + max(load / bandwidth)` as the predicted sync time. The
// loads mirror what our runtimes actually send: PS is the colocated Table-1
// row, SFB an all-to-all factor broadcast, ring the id-ordered chain carrying
// the full tensor twice around (see `syncer`), and tree a raw gather to the
// root plus a broadcast back down (no interior reduction — that is what
// keeps the fold bitwise identical to PS).

/// Predicted synchronisation time per scheme for one layer, in seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SchemeTimes {
    /// Parameter server (always available).
    pub ps: f64,
    /// Sufficient-factor broadcast (`None` for non-FC layers).
    pub sfb: Option<f64>,
    /// Ring allreduce (chain; requires ≥ 2 workers).
    pub ring: f64,
    /// Tree allreduce (raw gather + broadcast; requires ≥ 2 workers).
    pub tree: f64,
}

fn bw_bytes(gbps: f64) -> f64 {
    gbps * 1e9 / 8.0
}

/// `latency + max(nic, uplink, core)` given one-direction byte loads.
fn step_time(topo: &Topology, latency: f64, nic: f64, uplink: f64, core: f64) -> f64 {
    let t_nic = nic / bw_bytes(topo.intra.bandwidth_gbps);
    let t_up = uplink / bw_bytes(topo.inter.bandwidth_gbps);
    let t_core = core / bw_bytes(topo.core_bandwidth_gbps());
    latency + t_nic.max(t_up).max(t_core)
}

/// Fraction of a device's `p − 1` peers living on a *different* node.
fn inter_fraction(topo: &Topology) -> f64 {
    let p = topo.total_devices() as f64;
    if p <= 1.0 {
        return 0.0;
    }
    (p - topo.devices_per_node as f64) / (p - 1.0)
}

/// Predicted PS sync time for a layer of `param_elems` f32 values.
pub fn ps_time_topo(param_elems: usize, topo: &Topology) -> f64 {
    let b = 4.0 * param_elems as f64;
    let p = topo.total_devices() as f64;
    let d = topo.devices_per_node as f64;
    if p <= 1.0 {
        return 0.0;
    }
    let f = inter_fraction(topo);
    // Colocated Table-1 row, one direction: push the remote (p−1)/p of the
    // gradient, serve the pulls of the local shard — 2B(p−1)/p per device.
    let dev = 2.0 * b * (p - 1.0) / p;
    let uplink = d * dev * f;
    let core = p * dev * f;
    // Two serialised phases (push, then pull after the fold).
    step_time(topo, 2.0 * topo.inter.latency_s, dev, uplink, core)
}

/// Predicted SFB sync time for an `m × n` FC layer at per-worker batch `k`.
pub fn sfb_time_topo(m: usize, n: usize, k: usize, topo: &Topology) -> f64 {
    let p = topo.total_devices() as f64;
    let d = topo.devices_per_node as f64;
    if p <= 1.0 {
        return 0.0;
    }
    let fbytes = 4.0 * k as f64 * (m as f64 + n as f64);
    let dev = fbytes * (p - 1.0);
    let uplink = d * fbytes * (p - d).max(0.0);
    let core = p * fbytes * (p - d).max(0.0);
    step_time(topo, topo.inter.latency_s, dev, uplink, core)
}

/// Predicted ring-allreduce sync time for a layer of `param_elems` values.
///
/// Models the runtime's pipelined id-ordered chain: the full tensor transits
/// every link once per phase (reduce, distribute), so each device forwards
/// ≈ 2B; with node-contiguous placement each lap crosses every node boundary
/// once. Hop latencies accumulate (the chain is sequential in latency even
/// though segments pipeline in bandwidth).
pub fn ring_time_topo(param_elems: usize, topo: &Topology) -> f64 {
    let b = 4.0 * param_elems as f64;
    let p = topo.total_devices();
    if p <= 1 {
        return 0.0;
    }
    let total_hops = 2 * (p - 1);
    let inter_hops = if topo.nodes > 1 {
        (2 * (topo.nodes - 1) + 1).min(total_hops)
    } else {
        0
    };
    let intra_hops = total_hops - inter_hops;
    let latency =
        inter_hops as f64 * topo.inter.latency_s + intra_hops as f64 * topo.intra.latency_s;
    let dev = 2.0 * b;
    let uplink = if topo.nodes > 1 { 2.0 * b } else { 0.0 };
    let core = inter_hops as f64 * b;
    step_time(topo, latency, dev, uplink, core)
}

/// Predicted tree-allreduce sync time for a layer of `param_elems` values.
///
/// Models the runtime's raw gather: every non-root contribution reaches the
/// root unreduced (the root folds in worker-id order, bitwise equal to PS),
/// so the root's NIC receives `(p−1)B` — the price of exactness — while hop
/// depth is logarithmic.
pub fn tree_time_topo(param_elems: usize, topo: &Topology) -> f64 {
    let b = 4.0 * param_elems as f64;
    let p = topo.total_devices();
    let d = topo.devices_per_node;
    if p <= 1 {
        return 0.0;
    }
    let depth = (usize::BITS - (p - 1).leading_zeros()) as f64; // ⌈log2 p⌉
    let inter_depth = (usize::BITS - (topo.nodes - 1).leading_zeros()) as f64;
    let intra_depth = (depth - inter_depth).max(0.0);
    // Up + down traversals of the tree.
    let latency = 2.0 * (inter_depth * topo.inter.latency_s + intra_depth * topo.intra.latency_s);
    let dev = (p - 1) as f64 * b; // root gathers every contribution raw
    let uplink = (p.saturating_sub(d)) as f64 * b;
    let core = (p.saturating_sub(d) + topo.nodes.saturating_sub(1)) as f64 * b;
    step_time(topo, latency, dev, uplink, core)
}

/// Predicted per-scheme sync times for one layer on `topo`.
pub fn scheme_times_topo(
    param_elems: usize,
    fc_shape: Option<(usize, usize)>,
    cluster: &ClusterConfig,
    topo: &Topology,
) -> SchemeTimes {
    SchemeTimes {
        ps: ps_time_topo(param_elems, topo),
        sfb: fc_shape.map(|(m, n)| sfb_time_topo(m, n, cluster.batch_per_worker, topo)),
        ring: ring_time_topo(param_elems, topo),
        tree: tree_time_topo(param_elems, topo),
    }
}

/// Generalised Algorithm 1: the cheapest of PS/SFB/ring/tree for a layer of
/// `param_elems` values (SFB only competes when `fc_shape` is `Some`) on the
/// given hierarchical topology.
///
/// Ties break deterministically in the preference order PS > SFB > ring >
/// tree, so byte-count ties never flip the choice between runs.
pub fn best_scheme_topo(
    param_elems: usize,
    fc_shape: Option<(usize, usize)>,
    cluster: &ClusterConfig,
    topo: &Topology,
) -> CommScheme {
    if topo.total_devices() <= 1 || cluster.workers <= 1 {
        return CommScheme::Ps;
    }
    let t = scheme_times_topo(param_elems, fc_shape, cluster, topo);
    let mut best = (CommScheme::Ps, t.ps);
    let mut consider = |scheme: CommScheme, time: f64| {
        if time < best.1 {
            best = (scheme, time);
        }
    };
    if let Some(sfb) = t.sfb {
        consider(CommScheme::Sfb, sfb);
    }
    consider(CommScheme::Ring, t.ring);
    consider(CommScheme::Tree, t.tree);
    best.0
}

// ---------------------------------------------------------------------------
// Per-codec terms: bytes saved vs reconstruction cost
// ---------------------------------------------------------------------------
//
// A codec trades wire bytes for CPU passes over the dense tensor. Both sides
// of that trade are linear in the layer size, so a purely linear model would
// make the choice size-independent; the fixed per-pass overhead below (buffer
// allocation, state lookup, kernel dispatch) is what keeps small tensors on
// the raw path — compression only pays for large layers, exactly the regime
// the paper's FC/conv split exposes.

/// f32 values per second one codec transform pass (encode or decode) streams
/// through — roughly a memory-bound 8 GB/s pass on one core.
const CODEC_TRANSFORM_ELEMS_PER_S: f64 = 2e9;

/// Fixed setup cost per transform pass (allocation, residual-state lookup,
/// dispatch).
const CODEC_PASS_OVERHEAD_S: f64 = 20e-6;

/// The codecs Algorithm 1's generalisation prices against each other.
/// Identity first: ties break toward the bitwise-exact wire.
pub const CODEC_CANDIDATES: [Codec; 4] = [
    Codec::Identity,
    Codec::OneBit,
    Codec::F16,
    Codec::TopK {
        permille: TOPK_DEFAULT_PERMILLE,
    },
];

/// Dense-tensor transform passes a scheme's critical path spends per codec
/// round trip.
///
/// PS: the worker encodes its push, a shard decodes its fan-in (P pushes of
/// `1/P` of the layer each — one pass over the layer total) and the worker
/// decodes the broadcast deltas — ≈ 3 passes. Ring: decompress–add–recompress
/// on the reduce lap plus a decode on the distribute lap — ≈ 3. Tree: the
/// root decodes every contribution in full (the price of the bitwise-ordered
/// fold), so passes grow with the worker count. Top-k additionally pays a
/// selection pass over the residual-accumulated tensor per encode.
fn codec_passes(codec: Codec, scheme: CommScheme, cluster: &ClusterConfig) -> f64 {
    let base = match scheme {
        CommScheme::Ps | CommScheme::Ring => 3.0,
        CommScheme::Tree => cluster.workers as f64 + 1.0,
        CommScheme::Sfb | CommScheme::AdamSf => return 0.0,
    };
    match codec {
        Codec::Identity => 0.0,
        Codec::TopK { .. } => 2.0 * base,
        _ => base,
    }
}

/// Predicted sync time for one layer under `(scheme, codec)`: the scheme's
/// topology time with the wire load scaled by the codec's payload ratio, plus
/// the codec's CPU reconstruction cost.
pub fn codec_time_topo(
    codec: Codec,
    param_elems: usize,
    scheme: CommScheme,
    cluster: &ClusterConfig,
    topo: &Topology,
) -> f64 {
    // The scheme times are linear in bytes above their latency floor, so
    // pricing the compressed payload is pricing an equivalent smaller tensor.
    let wire_elems = codec.payload_bytes(param_elems).div_ceil(4);
    let wire = match scheme {
        CommScheme::Ps => ps_time_topo(wire_elems, topo),
        CommScheme::Ring => ring_time_topo(wire_elems, topo),
        CommScheme::Tree => tree_time_topo(wire_elems, topo),
        // Factor schemes never re-encode (the factors are the compression);
        // their codec is always identity and this term is not consulted.
        CommScheme::Sfb | CommScheme::AdamSf => 0.0,
    };
    let passes = codec_passes(codec, scheme, cluster);
    wire + passes * (CODEC_PASS_OVERHEAD_S + param_elems as f64 / CODEC_TRANSFORM_ELEMS_PER_S)
}

/// The cheapest codec for a layer of `param_elems` values already assigned to
/// `scheme` on `topo`. Factor schemes (SFB/Adam) always return identity; ties
/// break toward identity, then the [`CODEC_CANDIDATES`] order, so byte-count
/// ties never flip the choice between runs.
pub fn best_codec_topo(
    param_elems: usize,
    scheme: CommScheme,
    cluster: &ClusterConfig,
    topo: &Topology,
) -> Codec {
    if matches!(scheme, CommScheme::Sfb | CommScheme::AdamSf) || topo.total_devices() <= 1 {
        return Codec::Identity;
    }
    let mut best = (
        Codec::Identity,
        codec_time_topo(Codec::Identity, param_elems, scheme, cluster, topo),
    );
    for codec in CODEC_CANDIDATES.into_iter().skip(1) {
        let t = codec_time_topo(codec, param_elems, scheme, cluster, topo);
        if t < best.1 {
            best = (codec, t);
        }
    }
    best.0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The worked example in Section 3.2: M = N = 4096, K = 32, P1 = P2 = 8.
    #[test]
    fn paper_worked_example_numbers() {
        let cluster = ClusterConfig {
            workers: 8,
            servers: 8,
            batch_per_worker: 32,
            colocated: true,
        };
        let ps = ps_cost(4096, 4096, &cluster);
        // "synchronizing its parameters via PS will transfer 2MN ≈ 34 million
        // parameters for a worker node".
        assert!(
            (ps.worker - 33.55e6).abs() / 33.55e6 < 0.01,
            "worker {}",
            ps.worker
        );
        // "2·P1·MN/P2 ≈ 34 million for a server node".
        assert!((ps.server - 33.55e6).abs() / 33.55e6 < 0.01);
        // "2MN(P1+P2−2)/P2 ≈ 58.7 million for a node that is both".
        assert!(
            (ps.server_and_worker - 58.7e6).abs() / 58.7e6 < 0.01,
            "both {}",
            ps.server_and_worker
        );
        // "compared to 2K(M+N)(P1−1) ≈ 3.7 million for a single node using SFB".
        let sfb = sfb_cost(4096, 4096, &cluster);
        assert!((sfb - 3.67e6).abs() / 3.67e6 < 0.01, "sfb {sfb}");
        // SFB wins by ~16x.
        assert_eq!(best_scheme_fc(4096, 4096, &cluster), CommScheme::Sfb);
    }

    #[test]
    fn thin_fc_with_large_batch_prefers_ps() {
        // GoogLeNet's 1000×1024 classifier at batch 128 on 16 nodes — the
        // paper observes Poseidon "reduces to PS" in this configuration.
        let cluster = ClusterConfig::colocated(16, 128);
        assert_eq!(best_scheme_fc(1000, 1024, &cluster), CommScheme::Ps);
    }

    #[test]
    fn vgg_fc6_at_small_batch_prefers_sfb() {
        // VGG19's 4096×25088 fc6 at batch 32.
        for nodes in [2usize, 4, 8, 16, 32] {
            let cluster = ClusterConfig::colocated(nodes, 32);
            assert_eq!(
                best_scheme_fc(4096, 25088, &cluster),
                CommScheme::Sfb,
                "{nodes} nodes"
            );
        }
    }

    #[test]
    fn sfb_cost_grows_quadratically_with_workers() {
        // Total cluster-wide SFB traffic grows ~P², per-node ~P (Section 2.1
        // difference (3)).
        let c8 = ClusterConfig::colocated(8, 32);
        let c16 = ClusterConfig::colocated(16, 32);
        let per_node_8 = sfb_cost(1024, 1024, &c8);
        let per_node_16 = sfb_cost(1024, 1024, &c16);
        let total_8 = per_node_8 * 8.0;
        let total_16 = per_node_16 * 16.0;
        let ratio = total_16 / total_8;
        assert!(
            ratio > 4.0 && ratio < 4.5,
            "total SFB traffic ratio {ratio}"
        );
    }

    #[test]
    fn adam_server_load_dwarfs_worker_load() {
        let cluster = ClusterConfig::colocated(8, 32);
        let adam = adam_cost(4096, 4096, &cluster);
        assert!(
            adam.server > 6.0 * adam.worker,
            "Adam's owning shard must be the hotspot: server {} vs worker {}",
            adam.server,
            adam.worker
        );
    }

    #[test]
    fn crossover_batch_matches_best_scheme_decision() {
        let (m, n) = (4096usize, 4096usize);
        let crossover = sfb_crossover_batch(m, n, 8, 8);
        let below = ClusterConfig {
            workers: 8,
            servers: 8,
            batch_per_worker: crossover.floor() as usize,
            colocated: true,
        };
        let above = ClusterConfig {
            workers: 8,
            servers: 8,
            batch_per_worker: crossover.ceil() as usize + 1,
            colocated: true,
        };
        assert_eq!(best_scheme_fc(m, n, &below), CommScheme::Sfb);
        assert_eq!(best_scheme_fc(m, n, &above), CommScheme::Ps);
    }

    #[test]
    fn single_worker_sfb_costs_nothing() {
        let cluster = ClusterConfig::colocated(1, 32);
        assert_eq!(sfb_cost(100, 100, &cluster), 0.0);
        // And PS on one colocated node is also free: (P1+P2-2)/P2 = 0.
        assert_eq!(ps_cost(100, 100, &cluster).server_and_worker, 0.0);
    }

    /// 4 nodes × 2 devices, fast intra links, slow uplinks, 4× oversubscribed
    /// core — the configuration where collectives should beat PS for big
    /// tensors.
    fn oversubscribed() -> Topology {
        Topology::two_level(
            4,
            2,
            poseidon_netsim::LinkConfig {
                bandwidth_gbps: 100.0,
                latency_s: 1e-6,
            },
            poseidon_netsim::LinkConfig {
                bandwidth_gbps: 10.0,
                latency_s: 50e-6,
            },
            4.0,
        )
    }

    #[test]
    fn small_layers_prefer_ps_large_prefer_collectives_when_oversubscribed() {
        let topo = oversubscribed();
        let cluster = ClusterConfig::colocated(8, 32);
        // A small conv layer: latency-bound, PS's two hops beat the ring's
        // 2(P−1) sequential hops.
        assert_eq!(
            best_scheme_topo(1_000, None, &cluster, &topo),
            CommScheme::Ps
        );
        // A big conv tensor (no SFB factorisation available): bandwidth-bound
        // on the oversubscribed core, where the chain's ≈2·nodes·B core bytes
        // beat PS's ≈2B(P−1)·f.
        let big = 16 * 1024 * 1024; // 64 MiB
        let choice = best_scheme_topo(big, None, &cluster, &topo);
        assert!(
            matches!(choice, CommScheme::Ring | CommScheme::Tree),
            "large conv should pick a collective, got {choice}"
        );
        assert!(ring_time_topo(big, &topo) < ps_time_topo(big, &topo));
    }

    #[test]
    fn fc_layers_still_go_to_sfb_when_factors_are_tiny() {
        // VGG-style 4096×4096 at batch 32: factors are ~1/64 of the dense
        // tensor, so SFB undercuts every dense scheme even on the
        // oversubscribed core.
        let topo = oversubscribed();
        let cluster = ClusterConfig::colocated(8, 32);
        let elems = 4096 * 4096;
        assert_eq!(
            best_scheme_topo(elems, Some((4096, 4096)), &cluster, &topo),
            CommScheme::Sfb
        );
    }

    #[test]
    fn single_worker_topology_always_ps() {
        let topo = Topology::flat(1, poseidon_netsim::LinkConfig::gbe(10.0));
        let cluster = ClusterConfig::colocated(1, 32);
        for elems in [10usize, 1 << 24] {
            assert_eq!(
                best_scheme_topo(elems, Some((64, 64)), &cluster, &topo),
                CommScheme::Ps
            );
        }
    }

    #[test]
    fn predicted_times_scale_with_tensor_size() {
        let topo = oversubscribed();
        for f in [ps_time_topo, ring_time_topo, tree_time_topo] {
            let small = f(1 << 10, &topo);
            let large = f(1 << 24, &topo);
            assert!(large > small, "{large} vs {small}");
        }
    }

    #[test]
    fn more_inter_bandwidth_never_hurts_any_scheme() {
        let cluster = ClusterConfig::colocated(8, 32);
        let elems = 1 << 22;
        let mut prev = SchemeTimes {
            ps: f64::INFINITY,
            sfb: Some(f64::INFINITY),
            ring: f64::INFINITY,
            tree: f64::INFINITY,
        };
        for gbps in [1.0, 4.0, 10.0, 40.0, 100.0] {
            let mut topo = oversubscribed();
            topo.inter.bandwidth_gbps = gbps;
            let t = scheme_times_topo(elems, Some((2048, 2048)), &cluster, &topo);
            assert!(t.ps <= prev.ps);
            assert!(t.sfb.unwrap() <= prev.sfb.unwrap());
            assert!(t.ring <= prev.ring);
            assert!(t.tree <= prev.tree);
            prev = t;
        }
    }

    #[test]
    fn tie_breaks_prefer_ps() {
        // Zero-size layer: every predicted time collapses to its latency
        // floor... but with equal *everything* — zero devices of traffic —
        // force an exact tie by pricing a zero-element layer on a
        // single-node multi-device topology where all latencies match.
        let link = poseidon_netsim::LinkConfig {
            bandwidth_gbps: 10.0,
            latency_s: 0.0,
        };
        let topo = Topology::two_level(1, 4, link, link, 1.0);
        let cluster = ClusterConfig::colocated(4, 32);
        // elems = 0 → all times 0.0 → tie → PS by preference order.
        assert_eq!(best_scheme_topo(0, None, &cluster, &topo), CommScheme::Ps);
    }

    #[test]
    fn ring_moves_fewer_bytes_over_the_oversubscribed_core() {
        // Replay one layer's worth of each protocol's transfers through the
        // hierarchical network and compare what the shared core actually
        // carried — the model's core terms must match the ledger, and the
        // ring's node-contiguous chain must beat PS's all-to-all sharding.
        use poseidon_netsim::{HierNetwork, LinkConfig, NodeId};
        let link = |gbps: f64, lat: f64| LinkConfig {
            bandwidth_gbps: gbps,
            latency_s: lat,
        };
        let topo = Topology::two_level(4, 2, link(100.0, 1e-6), link(10.0, 50e-6), 4.0);
        let p = topo.total_devices();
        let bytes: u64 = 8 << 20; // one 2M-element layer

        // Ring: REDUCE chain 0→1→…→P−1, DISTRIBUTE P−1→0→…→P−2.
        let mut ring = HierNetwork::new(topo);
        for w in 0..p - 1 {
            ring.transfer(0.0, NodeId(w), NodeId(w + 1), bytes);
        }
        ring.transfer(0.0, NodeId(p - 1), NodeId(0), bytes);
        for w in 0..p - 2 {
            ring.transfer(0.0, NodeId(w), NodeId(w + 1), bytes);
        }
        // Node-contiguous device order crosses each node boundary once per
        // lap: 2(nodes−1)+1 core traversals, exactly the model's inter_hops.
        assert_eq!(ring.ledger().core_bytes(), 7 * bytes);

        // Colocated PS: every worker pushes 1/P to each shard, then pulls.
        let mut ps = HierNetwork::new(topo);
        for _phase in 0..2 {
            for w in 0..p {
                for s in 0..p {
                    if s != w {
                        ps.transfer(0.0, NodeId(w), NodeId(s), bytes / p as u64);
                    }
                }
            }
        }
        // Per phase, 6 of each device's 7 peers live off-node: 2·P·6·(B/P)
        // core bytes = 12B.
        assert_eq!(ps.ledger().core_bytes(), 12 * bytes);
        assert!(
            ring.ledger().core_bytes() * 3 < ps.ledger().core_bytes() * 2,
            "ring must cut oversubscribed-core traffic by ≥ a third: {} vs {}",
            ring.ledger().core_bytes(),
            ps.ledger().core_bytes()
        );
    }

    #[test]
    fn codec_choice_tracks_layer_size() {
        // Flat 10 GbE, the paper's testbed: a 64-element bias is latency- and
        // overhead-bound (raw wins); a 16M-element conv tensor is
        // bandwidth-bound (a lossy codec wins).
        let topo = Topology::flat(8, poseidon_netsim::LinkConfig::gbe(10.0));
        let cluster = ClusterConfig::colocated(8, 32);
        assert_eq!(
            best_codec_topo(64, CommScheme::Ps, &cluster, &topo),
            Codec::Identity
        );
        let big = best_codec_topo(16 << 20, CommScheme::Ps, &cluster, &topo);
        assert_ne!(big, Codec::Identity, "16M floats at 10G must compress");
    }

    #[test]
    fn factor_schemes_never_compress() {
        let topo = Topology::flat(8, poseidon_netsim::LinkConfig::gbe(10.0));
        let cluster = ClusterConfig::colocated(8, 32);
        for scheme in [CommScheme::Sfb, CommScheme::AdamSf] {
            assert_eq!(
                best_codec_topo(16 << 20, scheme, &cluster, &topo),
                Codec::Identity
            );
        }
    }

    #[test]
    fn faster_links_shift_the_choice_toward_identity() {
        // At some bandwidth the wire is no longer the bottleneck and the
        // reconstruction CPU stops paying for itself.
        let cluster = ClusterConfig::colocated(8, 32);
        let elems = 1 << 20;
        let slow = Topology::flat(8, poseidon_netsim::LinkConfig::gbe(1.0));
        let fast = Topology::flat(8, poseidon_netsim::LinkConfig::gbe(400.0));
        assert_ne!(
            best_codec_topo(elems, CommScheme::Ps, &cluster, &slow),
            Codec::Identity,
            "1 GbE: compress"
        );
        assert_eq!(
            best_codec_topo(elems, CommScheme::Ps, &cluster, &fast),
            Codec::Identity,
            "400 GbE: raw"
        );
    }

    #[test]
    fn codec_time_identity_matches_plain_scheme_time() {
        let topo = oversubscribed();
        let cluster = ClusterConfig::colocated(8, 32);
        let elems = 1 << 22;
        assert_eq!(
            codec_time_topo(Codec::Identity, elems, CommScheme::Ps, &cluster, &topo),
            ps_time_topo(elems, &topo)
        );
        assert_eq!(
            codec_time_topo(Codec::Identity, elems, CommScheme::Ring, &cluster, &topo),
            ring_time_topo(elems, &topo)
        );
    }

    #[test]
    fn cost_for_cluster_selects_role() {
        let colocated = ClusterConfig::colocated(4, 8);
        let disjoint = ClusterConfig {
            workers: 4,
            servers: 2,
            batch_per_worker: 8,
            colocated: false,
        };
        let cost = CommCost {
            server: 10.0,
            worker: 4.0,
            server_and_worker: 12.0,
        };
        assert_eq!(cost.for_cluster(&colocated), 12.0);
        assert_eq!(cost.for_cluster(&disjoint), 10.0, "bottleneck role governs");
    }
}
