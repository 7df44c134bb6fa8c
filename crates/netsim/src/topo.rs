//! Hierarchical (two-level) cluster topology: nodes × devices per node.
//!
//! The flat [`crate::net::Network`] models the paper's testbed — every node
//! on one non-blocking switch — and stays untouched. This module adds the
//! generalisation the collective-scheme work needs: `nodes` machines, each
//! hosting `devices_per_node` endpoints, with distinct **intra-node** links
//! (NVLink/PCIe/shared-memory class) and **inter-node** links (Ethernet
//! class) plus an optionally **oversubscribed core** shared by all
//! node-to-node traffic.
//!
//! A transfer between devices on the same node touches only the two device
//! NICs at intra-node speed. A transfer between nodes traverses, in order:
//! the source device NIC (intra speed), the source node's uplink (inter
//! speed), the shared core (aggregate inter bandwidth divided by the
//! oversubscription factor), the destination node's uplink, and the
//! destination device NIC — cut-through, so one uncontended flow costs the
//! sum of latencies plus a single serialisation at the slowest stage.
//! Loop-back (`src == dst`) is free and unrecorded, matching the flat model.

use crate::ledger::TrafficLedger;
use crate::net::{LinkConfig, NodeId};
use crate::resource::Resource;

/// Shape and link parameters of a two-level cluster.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Topology {
    /// Number of physical machines.
    pub nodes: usize,
    /// Endpoints (GPUs/workers) hosted per machine.
    pub devices_per_node: usize,
    /// Link between devices on the same machine.
    pub intra: LinkConfig,
    /// Each machine's uplink into the core.
    pub inter: LinkConfig,
    /// Core oversubscription factor: 1.0 = non-blocking; 4.0 means the core
    /// carries only a quarter of the aggregate uplink bandwidth.
    pub oversubscription: f64,
}

impl Topology {
    /// A flat single-device-per-node cluster with a non-blocking core —
    /// equivalent to the paper's testbed and to [`crate::net::Network`].
    pub fn flat(nodes: usize, link: LinkConfig) -> Self {
        Self {
            nodes,
            devices_per_node: 1,
            intra: link,
            inter: link,
            oversubscription: 1.0,
        }
    }

    /// A two-level cluster: `nodes` machines × `devices_per_node` devices,
    /// fast `intra` links inside a machine, `inter` uplinks into a core
    /// oversubscribed by `oversubscription`.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `oversubscription < 1.0`.
    pub fn two_level(
        nodes: usize,
        devices_per_node: usize,
        intra: LinkConfig,
        inter: LinkConfig,
        oversubscription: f64,
    ) -> Self {
        let t = Self {
            nodes,
            devices_per_node,
            intra,
            inter,
            oversubscription,
        };
        t.validate();
        t
    }

    fn validate(&self) {
        assert!(self.nodes > 0, "topology needs at least one node");
        assert!(
            self.devices_per_node > 0,
            "need at least one device per node"
        );
        assert!(
            self.oversubscription >= 1.0,
            "oversubscription must be >= 1.0, got {}",
            self.oversubscription
        );
        assert!(self.intra.bandwidth_gbps > 0.0 && self.inter.bandwidth_gbps > 0.0);
    }

    /// Total endpoints in the cluster.
    pub fn total_devices(&self) -> usize {
        self.nodes * self.devices_per_node
    }

    /// The machine hosting device `dev` (devices are numbered node-major:
    /// node 0 holds devices `0..d`, node 1 holds `d..2d`, …).
    pub fn node_of(&self, dev: usize) -> usize {
        dev / self.devices_per_node
    }

    /// Whether two devices share a machine.
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.node_of(a) == self.node_of(b)
    }

    /// Aggregate core bandwidth in Gbps: the sum of all uplinks divided by
    /// the oversubscription factor.
    pub fn core_bandwidth_gbps(&self) -> f64 {
        self.nodes as f64 * self.inter.bandwidth_gbps / self.oversubscription
    }

    /// Seconds to push `bytes` through the shared core.
    pub fn core_serialize_time(&self, bytes: u64) -> f64 {
        (bytes as f64 * 8.0) / (self.core_bandwidth_gbps() * 1e9)
    }
}

/// One endpoint's full-duplex NIC (intra-node speed).
#[derive(Clone, Debug, Default)]
struct DevNic {
    tx: Resource,
    rx: Resource,
}

/// One machine's full-duplex uplink (inter-node speed).
#[derive(Clone, Debug, Default)]
struct Uplink {
    tx: Resource,
    rx: Resource,
}

/// A hierarchical network instantiating a [`Topology`].
///
/// Mirrors [`crate::net::Network`]'s interface — `transfer(ready, src, dst,
/// bytes) -> done` — over the two-level resource graph, with the ledger
/// additionally counting bytes crossing the shared core.
#[derive(Clone, Debug)]
pub struct HierNetwork {
    topo: Topology,
    devs: Vec<DevNic>,
    uplinks: Vec<Uplink>,
    core: Resource,
    ledger: TrafficLedger,
}

impl HierNetwork {
    /// Builds the resource graph for `topo`.
    pub fn new(topo: Topology) -> Self {
        topo.validate();
        Self {
            topo,
            devs: vec![DevNic::default(); topo.total_devices()],
            uplinks: vec![Uplink::default(); topo.nodes],
            core: Resource::default(),
            ledger: TrafficLedger::new(topo.total_devices()),
        }
    }

    /// The topology this network instantiates.
    pub fn topology(&self) -> Topology {
        self.topo
    }

    /// Number of endpoints.
    pub fn devices(&self) -> usize {
        self.devs.len()
    }

    /// The traffic ledger (per-device tx/rx plus core-crossing bytes).
    pub fn ledger(&self) -> &TrafficLedger {
        &self.ledger
    }

    /// Mutable access to the ledger (e.g. to reset between iterations).
    pub fn ledger_mut(&mut self) -> &mut TrafficLedger {
        &mut self.ledger
    }

    /// Schedules a transfer of `bytes` from device `src` to device `dst`,
    /// ready to send at `ready`. Returns the arrival time of the last byte.
    ///
    /// Same-node transfers touch only the two device NICs at intra-node
    /// speed. Cross-node transfers additionally serialise through both
    /// uplinks and the shared core. Loop-back is free and unrecorded.
    ///
    /// # Panics
    ///
    /// Panics if a device index is out of range or `ready` is negative/NaN.
    pub fn transfer(&mut self, ready: f64, src: NodeId, dst: NodeId, bytes: u64) -> f64 {
        assert!(ready >= 0.0 && !ready.is_nan(), "bad ready time {ready}");
        assert!(src.0 < self.devs.len(), "src {src} out of range");
        assert!(dst.0 < self.devs.len(), "dst {dst} out of range");
        if src == dst {
            return ready;
        }
        self.ledger.record(src.0, dst.0, bytes);
        let d_intra = self.topo.intra.serialize_time(bytes);

        if self.topo.same_node(src.0, dst.0) {
            let (start, _) = self.devs[src.0].tx.reserve(ready, d_intra);
            let (_, done) = self.devs[dst.0]
                .rx
                .reserve(start + self.topo.intra.latency_s, d_intra);
            return done;
        }

        self.ledger.record_core(bytes);
        let d_inter = self.topo.inter.serialize_time(bytes);
        let src_node = self.topo.node_of(src.0);
        let dst_node = self.topo.node_of(dst.0);
        // Two intra hops (device↔uplink at each end) plus one core traversal.
        let lat = 2.0 * self.topo.intra.latency_s + self.topo.inter.latency_s;

        // Cut-through chain: every stage starts streaming as soon as the
        // previous stage starts and its own queue frees, and each stage is
        // charged its full serialisation time (conserving per-stage
        // bandwidth under contention). The flow's last byte clears when the
        // *slowest* stage finishes, so completion is the worst stage finish
        // plus the path latency. A non-blocking core (oversubscription 1.0)
        // is at least as fast as the uplinks feeding it and never queues —
        // it is skipped as a resource but still counted in the ledger.
        let (s1, f1) = self.devs[src.0].tx.reserve(ready, d_intra);
        let (s2, f2) = self.uplinks[src_node].tx.reserve(s1, d_inter);
        let mut worst = f1.max(f2);
        let mut head = s2;
        if self.topo.oversubscription > 1.0 {
            let d_core = self.topo.core_serialize_time(bytes);
            let (s3, f3) = self.core.reserve(head, d_core);
            worst = worst.max(f3);
            head = s3;
        }
        let (s4, f4) = self.uplinks[dst_node].rx.reserve(head, d_inter);
        let (_, f5) = self.devs[dst.0].rx.reserve(s4, d_intra);
        worst.max(f4).max(f5) + lat
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(gbps: f64, lat: f64) -> LinkConfig {
        LinkConfig {
            bandwidth_gbps: gbps,
            latency_s: lat,
        }
    }

    /// 4 nodes × 2 devices, 100 Gbps intra / 10 Gbps inter, 2× oversubscribed.
    fn two_level() -> HierNetwork {
        HierNetwork::new(Topology::two_level(
            4,
            2,
            link(100.0, 1e-6),
            link(10.0, 50e-6),
            2.0,
        ))
    }

    #[test]
    fn node_major_device_numbering() {
        let t = Topology::two_level(3, 4, link(1.0, 0.0), link(1.0, 0.0), 1.0);
        assert_eq!(t.total_devices(), 12);
        assert_eq!(t.node_of(0), 0);
        assert_eq!(t.node_of(3), 0);
        assert_eq!(t.node_of(4), 1);
        assert_eq!(t.node_of(11), 2);
        assert!(t.same_node(4, 7));
        assert!(!t.same_node(3, 4));
    }

    #[test]
    fn flat_matches_single_level_cost() {
        // One device per node, non-blocking core at aggregate uplink speed:
        // an uncontended flow costs latency + serialisation, like `Network`
        // (plus the free intra hops and the intra latency at each end).
        let l = link(8.0, 0.001); // 8 Gbps = 1 GB/s
        let mut n = HierNetwork::new(Topology::flat(2, l));
        let done = n.transfer(0.0, NodeId(0), NodeId(1), 1_000_000_000);
        // intra == inter here, core = 2× uplink speed: serialisation bound
        // by the 1 GB/s stages → ≈ 1 s + latencies.
        assert!((done - (1.0 + 3.0 * 0.001)).abs() < 1e-6, "got {done}");
    }

    #[test]
    fn intra_node_transfer_uses_fast_link_and_skips_core() {
        let mut n = two_level();
        // 100 Gbps = 12.5 GB/s → 1 GB in 0.08 s.
        let done = n.transfer(0.0, NodeId(0), NodeId(1), 1_000_000_000);
        assert!((done - (0.08 + 1e-6)).abs() < 1e-6, "got {done}");
        assert_eq!(n.ledger().core_bytes(), 0);
        assert_eq!(n.ledger().tx_bytes(0), 1_000_000_000);
    }

    #[test]
    fn inter_node_transfer_is_uplink_bound() {
        let mut n = two_level();
        // 10 Gbps = 1.25 GB/s → 1 GB in 0.8 s; core (4×10/2 = 20 Gbps) and
        // intra stages are faster, so the uplink serialisation dominates.
        let done = n.transfer(0.0, NodeId(0), NodeId(2), 1_000_000_000);
        assert!((done - 0.8).abs() < 0.01, "got {done}");
        assert_eq!(n.ledger().core_bytes(), 1_000_000_000);
    }

    #[test]
    fn oversubscribed_core_serialises_concurrent_flows() {
        // 4 uplinks × 10 Gbps but the core carries only 20 Gbps: four
        // simultaneous cross-node flows finish ≈ 2× slower than one.
        let mut n = two_level();
        let b = 1_000_000_000u64;
        let mut last: f64 = 0.0;
        // Distinct src/dst nodes so uplinks never contend — only the core.
        for (s, d) in [(0, 2), (2, 4), (4, 6), (6, 0)] {
            last = last.max(n.transfer(0.0, NodeId(s), NodeId(d), b));
        }
        // Each flow needs 0.4 s of core time; 4 flows serialise to 1.6 s.
        assert!(last > 1.55, "core should bind: {last}");
        assert_eq!(n.ledger().core_bytes(), 4 * b);
    }

    #[test]
    fn non_blocking_core_does_not_bind() {
        let mut n = HierNetwork::new(Topology::two_level(
            4,
            2,
            link(100.0, 1e-6),
            link(10.0, 50e-6),
            1.0,
        ));
        let b = 1_000_000_000u64;
        let mut last: f64 = 0.0;
        for (s, d) in [(0, 2), (2, 4), (4, 6), (6, 0)] {
            last = last.max(n.transfer(0.0, NodeId(s), NodeId(d), b));
        }
        // Core = 40 Gbps ≥ any single flow's 10 Gbps demand; flows overlap
        // imperfectly (single serial core resource) but far better than the
        // oversubscribed case: each needs only 0.2 s of core time.
        assert!(last < 1.0, "non-blocking core overlaps flows: {last}");
    }

    #[test]
    fn loopback_is_free_and_unrecorded() {
        let mut n = two_level();
        let done = n.transfer(3.0, NodeId(5), NodeId(5), u64::MAX);
        assert_eq!(done, 3.0);
        assert_eq!(n.ledger().total_bytes(), 0);
    }

    #[test]
    fn more_inter_bandwidth_never_slows_a_flow() {
        let b = 64_000_000u64;
        let mut prev = f64::INFINITY;
        for gbps in [1.0, 5.0, 10.0, 40.0] {
            let mut n = HierNetwork::new(Topology::two_level(
                2,
                2,
                link(100.0, 1e-6),
                link(gbps, 50e-6),
                2.0,
            ));
            let done = n.transfer(0.0, NodeId(0), NodeId(2), b);
            assert!(
                done <= prev + 1e-12,
                "{gbps} Gbps regressed: {done} > {prev}"
            );
            prev = done;
        }
    }

    #[test]
    #[should_panic(expected = "oversubscription")]
    fn undersubscription_rejected() {
        Topology::two_level(2, 1, link(1.0, 0.0), link(1.0, 0.0), 0.5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_device_panics() {
        two_level().transfer(0.0, NodeId(0), NodeId(99), 1);
    }
}
