//! The cluster network: N nodes with full-duplex NICs on a non-blocking switch.
//!
//! The model matches the paper's testbed topology — every node hangs off one
//! Ethernet switch, so the only contended resources are the per-node NICs.
//! A transfer of `S` bytes from `a` to `b`:
//!
//! * occupies `a`'s **tx** queue for `S / bandwidth`,
//! * occupies `b`'s **rx** queue for the same duration, offset by the wire
//!   latency (cut-through forwarding, so a single uncontended flow completes
//!   in `latency + S/bandwidth`, not `latency + 2·S/bandwidth`),
//! * and is recorded in the [`TrafficLedger`].
//!
//! Loop-back transfers (`a == a`) are free and unrecorded: in the real system
//! a worker colocated with a PS shard synchronises that shard through local
//! memory (the paper's Table 1 subtracts those, e.g. the `P1 + P2 − 2` term).

use crate::ledger::TrafficLedger;
use crate::resource::Resource;

/// Identifies a cluster node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Link parameters shared by every node.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkConfig {
    /// Full-duplex per-direction NIC bandwidth in gigabits per second.
    pub bandwidth_gbps: f64,
    /// One-way message latency in seconds.
    pub latency_s: f64,
}

impl LinkConfig {
    /// A `bandwidth`-GbE link with a typical 50µs software+switch latency.
    pub fn gbe(bandwidth_gbps: f64) -> Self {
        Self {
            bandwidth_gbps,
            latency_s: 50e-6,
        }
    }

    /// Seconds needed to serialise `bytes` onto the wire at this bandwidth.
    pub fn serialize_time(&self, bytes: u64) -> f64 {
        (bytes as f64 * 8.0) / (self.bandwidth_gbps * 1e9)
    }
}

/// One node's full-duplex NIC.
#[derive(Clone, Debug, Default)]
struct Nic {
    tx: Resource,
    rx: Resource,
}

/// A switched cluster network of `n` nodes.
#[derive(Clone, Debug)]
pub struct Network {
    nics: Vec<Nic>,
    config: LinkConfig,
    ledger: TrafficLedger,
}

impl Network {
    /// Creates a network of `nodes` nodes with the given link parameters.
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0` or bandwidth is not positive.
    pub fn new(nodes: usize, config: LinkConfig) -> Self {
        assert!(nodes > 0, "network needs at least one node");
        assert!(config.bandwidth_gbps > 0.0, "bandwidth must be positive");
        assert!(config.latency_s >= 0.0, "latency must be non-negative");
        Self {
            nics: vec![Nic::default(); nodes],
            config,
            ledger: TrafficLedger::new(nodes),
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nics.len()
    }

    /// The link configuration.
    pub fn config(&self) -> LinkConfig {
        self.config
    }

    /// The traffic ledger.
    pub fn ledger(&self) -> &TrafficLedger {
        &self.ledger
    }

    /// Mutable access to the traffic ledger (e.g. to reset between iterations).
    pub fn ledger_mut(&mut self) -> &mut TrafficLedger {
        &mut self.ledger
    }

    /// Schedules a transfer of `bytes` from `src` to `dst`, becoming ready to
    /// send at time `ready`. Returns the arrival time of the last byte.
    ///
    /// Loop-back transfers complete immediately at `ready` and are not
    /// recorded as network traffic.
    ///
    /// # Panics
    ///
    /// Panics if a node index is out of range or `ready` is negative/NaN.
    pub fn transfer(&mut self, ready: f64, src: NodeId, dst: NodeId, bytes: u64) -> f64 {
        assert!(ready >= 0.0 && !ready.is_nan(), "bad ready time {ready}");
        assert!(src.0 < self.nics.len(), "src {src} out of range");
        assert!(dst.0 < self.nics.len(), "dst {dst} out of range");
        if src == dst {
            return ready;
        }
        self.ledger.record(src.0, dst.0, bytes);
        let dur = self.config.serialize_time(bytes);
        let lat = self.config.latency_s;

        // The sender serialises as soon as its tx queue frees; if the
        // receiver is still busy, the message waits in the switch buffer (no
        // head-of-line blocking of the sender by a congested receiver) and
        // the rx queue drains it when free. Both NICs are charged the full
        // serialisation time, so per-direction bandwidth is conserved.
        let (start, _tx_done) = self.nics[src.0].tx.reserve(ready, dur);
        let (_, rx_done) = self.nics[dst.0].rx.reserve(start + lat, dur);
        rx_done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(nodes: usize, gbps: f64) -> Network {
        Network::new(
            nodes,
            LinkConfig {
                bandwidth_gbps: gbps,
                latency_s: 0.001,
            },
        )
    }

    #[test]
    fn single_flow_takes_latency_plus_serialization() {
        let mut n = net(2, 8.0); // 8 Gbps = 1 GB/s
        let done = n.transfer(0.0, NodeId(0), NodeId(1), 1_000_000_000);
        assert!((done - 1.001).abs() < 1e-9, "got {done}");
    }

    #[test]
    fn flows_sharing_tx_nic_serialize() {
        let mut n = net(3, 8.0);
        let d1 = n.transfer(0.0, NodeId(0), NodeId(1), 1_000_000_000);
        let d2 = n.transfer(0.0, NodeId(0), NodeId(2), 1_000_000_000);
        assert!((d1 - 1.001).abs() < 1e-9);
        assert!((d2 - 2.001).abs() < 1e-9, "second flow queues on tx: {d2}");
    }

    #[test]
    fn flows_sharing_rx_nic_serialize() {
        let mut n = net(3, 8.0);
        let d1 = n.transfer(0.0, NodeId(1), NodeId(0), 1_000_000_000);
        let d2 = n.transfer(0.0, NodeId(2), NodeId(0), 1_000_000_000);
        assert!((d1 - 1.001).abs() < 1e-9);
        assert!(d2 >= 2.0, "incast serialises at the receiver: {d2}");
    }

    #[test]
    fn full_duplex_directions_do_not_interfere() {
        let mut n = net(2, 8.0);
        let d1 = n.transfer(0.0, NodeId(0), NodeId(1), 1_000_000_000);
        let d2 = n.transfer(0.0, NodeId(1), NodeId(0), 1_000_000_000);
        assert!((d1 - 1.001).abs() < 1e-9);
        assert!(
            (d2 - 1.001).abs() < 1e-9,
            "reverse direction is independent: {d2}"
        );
    }

    #[test]
    fn loopback_is_free_and_unrecorded() {
        let mut n = net(2, 1.0);
        let done = n.transfer(5.0, NodeId(1), NodeId(1), u64::MAX);
        assert_eq!(done, 5.0);
        assert_eq!(n.ledger().total_bytes(), 0);
    }

    #[test]
    fn ledger_records_transfers() {
        let mut n = net(2, 10.0);
        n.transfer(0.0, NodeId(0), NodeId(1), 1234);
        assert_eq!(n.ledger().tx_bytes(0), 1234);
        assert_eq!(n.ledger().rx_bytes(1), 1234);
    }

    #[test]
    fn ready_time_delays_start() {
        let mut n = net(2, 8.0);
        let done = n.transfer(7.0, NodeId(0), NodeId(1), 1_000_000_000);
        assert!((done - 8.001).abs() < 1e-9);
    }

    #[test]
    fn bandwidth_scales_transfer_time() {
        let mut slow = net(2, 1.0);
        let mut fast = net(2, 40.0);
        let bytes = 500_000_000u64;
        let t_slow = slow.transfer(0.0, NodeId(0), NodeId(1), bytes);
        let t_fast = fast.transfer(0.0, NodeId(0), NodeId(1), bytes);
        let ratio = (t_slow - 0.001) / (t_fast - 0.001);
        assert!((ratio - 40.0).abs() < 1e-6, "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_node_panics() {
        let mut n = net(2, 1.0);
        n.transfer(0.0, NodeId(0), NodeId(5), 10);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_network_rejected() {
        let _ = Network::new(0, LinkConfig::gbe(10.0));
    }

    #[test]
    fn gbe_helper_sets_bandwidth() {
        let cfg = LinkConfig::gbe(10.0);
        assert_eq!(cfg.bandwidth_gbps, 10.0);
        // 10 Gbps → 1.25 GB/s: 1.25e9 bytes serialise in 1 second.
        assert!((cfg.serialize_time(1_250_000_000) - 1.0).abs() < 1e-9);
    }
}
