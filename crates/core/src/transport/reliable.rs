//! The reliability layer: per-link sequence numbers, cumulative acks, and
//! idempotent retransmission over any [`Transport`].
//!
//! [`ReliableTransport`] wraps an inner transport and restores exactly-once,
//! in-order delivery per (sender endpoint → receiver endpoint) link even
//! when the layer below loses, duplicates, reorders, or delays frames — the
//! failure modes scripted by [`crate::faults::FaultyTransport`] and exhibited
//! by real Ethernet clusters between socket reconnects. The protocol
//! (DESIGN.md §2.7):
//!
//! - **Sequencing.** Every outgoing data frame is stamped with the next
//!   sequence number of its link, starting at 1 (`seq` field of the wire
//!   header; 0 means unsequenced). A copy is buffered until acknowledged.
//! - **Cumulative acks.** For every data frame the receiver processes it
//!   replies `Ack{upto}`, where `upto` is the highest contiguously delivered
//!   sequence number; the sender prunes its buffer up to `upto`. One ack per
//!   received frame keeps the control-traffic ledger deterministic.
//! - **Gap detection.** A frame arriving above `expect` is stashed (sorted)
//!   and answered with `Nack{expect}` — deduplicated per gap, so a burst of
//!   out-of-order arrivals asks once. The sender retransmits everything
//!   unacknowledged from `expect` on.
//! - **Duplicate suppression.** A frame below `expect` was already
//!   delivered; it is dropped and re-acked (the ack that would have pruned
//!   it may itself be in flight).
//! - **Tail-loss probes.** A dropped *final* frame leaves no later arrival
//!   to expose the gap, so `recv`'s wait is sliced into
//!   [`ReliabilityConfig::probe_interval`] chunks; every expired slice sends
//!   `Nack{expect}` to every peer. Probes make recovery latency bounded by
//!   the probe interval rather than the runtime's whole timeout budget.
//! - **Linger.** `shutdown` keeps serving acks, nacks, and retransmissions
//!   for up to [`ReliabilityConfig::linger`] while its send buffers are
//!   non-empty, so a peer still missing a frame (e.g. a dropped final SFB
//!   push) is served before the socket FINs. In a fault-free run the
//!   buffers drain with the last acks and linger exits immediately.
//!
//! Control frames (`Ack`/`Nack`) never reach the runtime and are themselves
//! neither sequenced nor retransmitted — loss of an ack costs a duplicate
//! (suppressed), loss of a nack costs one probe interval.
//!
//! Delivery through this layer is *per-link in-order* (stronger than the
//! contract below it), and the runtime's results are bitwise independent of
//! cross-link interleaving because the KV store folds gradients in worker-id
//! order — so a chaos run that recovers every frame converges bitwise to the
//! fault-free run.

use super::{Envelope, Message, Transport, TransportError};
use crate::metrics::{self, Counter};
use crate::telemetry;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Tunables of the reliability protocol.
#[derive(Debug, Clone)]
pub struct ReliabilityConfig {
    /// Slice length of blocking receives; every expired slice sends one
    /// `Nack{expect}` probe to every peer (tail-loss recovery).
    pub probe_interval: Duration,
    /// Upper bound on how long `shutdown` keeps serving retransmissions
    /// while unacknowledged frames remain buffered.
    pub linger: Duration,
}

impl Default for ReliabilityConfig {
    fn default() -> Self {
        Self {
            probe_interval: Duration::from_millis(25),
            linger: Duration::from_secs(2),
        }
    }
}

/// One endpoint's repair counts, for chaos reports and the launcher's stats
/// lines. Each is an owned cell of an `{endpoint}` metrics family: this
/// endpoint's actions only, however many meshes share the endpoint id.
#[derive(Debug)]
pub struct ReliabilityStats {
    /// Data frames retransmitted in response to nacks (incl. probes).
    pub retransmits: Counter,
    /// Duplicate data frames dropped before delivery.
    pub dups_dropped: Counter,
    /// Gap nacks sent (deduplicated per gap).
    pub nacks_sent: Counter,
    /// Cumulative acks sent (one per received data frame).
    pub acks_sent: Counter,
    /// Tail-loss probe nacks sent on receive-slice expiry.
    pub probes_sent: Counter,
    /// Out-of-order frames stashed for in-order delivery.
    pub reorders_stashed: Counter,
}

impl ReliabilityStats {
    /// Registers endpoint `endpoint`'s owned cells.
    fn new(endpoint: usize) -> Self {
        let ep = endpoint.to_string();
        let cell = |name| metrics::global().owned_counter(name, &[("endpoint", &ep)]);
        Self {
            retransmits: cell("poseidon_retransmits_total"),
            dups_dropped: cell("poseidon_dup_drops_total"),
            nacks_sent: cell("poseidon_nacks_total"),
            acks_sent: cell("poseidon_acks_total"),
            probes_sent: cell("poseidon_probes_total"),
            reorders_stashed: cell("poseidon_reorders_total"),
        }
    }
}

/// Sender-side state of one outgoing link (me → dest).
#[derive(Debug, Default)]
struct LinkOut {
    /// Sequence number the next original frame will carry (−1 … it's
    /// `next_seq`, first frame carries 1).
    next_seq: u32,
    /// Sent but not yet cumulatively acknowledged frames, by sequence.
    unacked: BTreeMap<u32, Message>,
}

/// Receiver-side state of one incoming link (src → me).
#[derive(Debug)]
struct LinkIn {
    /// The sequence number we deliver next.
    expect: u32,
    /// Frames that arrived above `expect`, awaiting the gap to fill.
    stash: BTreeMap<u32, Envelope>,
    /// The `expect` value of the last nack sent, to ask once per gap.
    last_nacked: u32,
}

impl Default for LinkIn {
    fn default() -> Self {
        Self {
            expect: 1,
            stash: BTreeMap::new(),
            last_nacked: 0,
        }
    }
}

struct State {
    /// In-order envelopes ready for the runtime.
    ready: VecDeque<Envelope>,
    links_out: Vec<LinkOut>,
    links_in: Vec<LinkIn>,
}

impl State {
    /// True when every sent frame has been acknowledged.
    fn drained(&self) -> bool {
        self.links_out.iter().all(|l| l.unacked.is_empty())
    }
}

/// A [`Transport`] adapter adding sequencing, acknowledgement, and
/// retransmission; see the module docs for the protocol.
pub struct ReliableTransport<T: Transport> {
    inner: T,
    cfg: ReliabilityConfig,
    state: Mutex<State>,
    stats: Arc<ReliabilityStats>,
}

impl<T: Transport> ReliableTransport<T> {
    /// Wraps `inner` with the reliability protocol.
    pub fn new(inner: T, cfg: ReliabilityConfig) -> Self {
        let n = inner.endpoints();
        let state = State {
            ready: VecDeque::new(),
            links_out: (0..n).map(|_| LinkOut::default()).collect(),
            links_in: (0..n).map(|_| LinkIn::default()).collect(),
        };
        Self {
            stats: Arc::new(ReliabilityStats::new(inner.endpoint_id())),
            inner,
            cfg,
            state: Mutex::new(state),
        }
    }

    /// Handle to the recovery counters (usable after the endpoint moved
    /// into its runtime thread).
    pub fn stats(&self) -> Arc<ReliabilityStats> {
        Arc::clone(&self.stats)
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Processes one envelope from the layer below: consumes control
    /// frames, runs the sequencing state machine on data frames, and queues
    /// deliverable envelopes onto `ready`.
    fn process(&self, st: &mut State, env: Envelope) {
        let src = env.src;
        match env.msg {
            Message::Ack { upto } => {
                // Keep only frames strictly above the cumulative ack.
                let link = &mut st.links_out[src];
                link.unacked = link.unacked.split_off(&(upto as u32 + 1));
            }
            Message::Nack { expect } => {
                let link = &st.links_out[src];
                let resend: Vec<(u32, Message)> = link
                    .unacked
                    .range(expect as u32..)
                    .map(|(s, m)| (*s, m.clone()))
                    .collect();
                for (s, m) in resend {
                    self.stats.retransmits.inc();
                    telemetry::instant("retransmit", src as u64, s as u64);
                    // Best-effort: a send failure here means the link is
                    // down; the peer will nack again after its next probe.
                    let _ = self.inner.send_seq(src, m, s);
                }
            }
            _ => {
                if env.seq == 0 {
                    // Unsequenced sender (no reliable layer on its side):
                    // deliver as-is.
                    st.ready.push_back(env);
                    return;
                }
                let link = &mut st.links_in[src];
                if env.seq < link.expect {
                    // Already delivered; the ack that should have stopped
                    // this duplicate may have been in flight. Re-ack.
                    self.stats.dups_dropped.inc();
                    self.ack(src, link.expect);
                    return;
                }
                if env.seq > link.expect {
                    self.stats.reorders_stashed.inc();
                    let expect = link.expect;
                    link.stash.insert(env.seq, env);
                    if link.last_nacked != expect {
                        link.last_nacked = expect;
                        self.stats.nacks_sent.inc();
                        let _ = self.inner.send(
                            src,
                            Message::Nack {
                                expect: expect as u64,
                            },
                        );
                    }
                    return;
                }
                // In order: deliver, then drain everything now contiguous.
                link.expect += 1;
                st.ready.push_back(env);
                while let Some(e) = link.stash.remove(&link.expect) {
                    link.expect += 1;
                    st.ready.push_back(e);
                }
                let expect = link.expect;
                self.ack(src, expect);
            }
        }
    }

    /// Sends the cumulative ack `upto = expect - 1` to `src`.
    fn ack(&self, src: usize, expect: u32) {
        self.stats.acks_sent.inc();
        let _ = self.inner.send(
            src,
            Message::Ack {
                upto: (expect - 1) as u64,
            },
        );
    }

    /// Tail-loss probe: nack every peer with its current `expect`, asking
    /// for a retransmit of anything we never saw.
    fn probe(&self, st: &mut State) {
        for peer in 0..st.links_in.len() {
            let expect = st.links_in[peer].expect;
            st.links_in[peer].last_nacked = expect;
            self.stats.probes_sent.inc();
            let _ = self.inner.send(
                peer,
                Message::Nack {
                    expect: expect as u64,
                },
            );
        }
    }

    /// [`State::drained`], for the tests.
    #[cfg(test)]
    fn drained(&self) -> bool {
        self.state.lock().expect("reliable state lock").drained()
    }

    /// The one receive loop: hands inner frames to the state machine until
    /// `until` yields, probing every peer on an idle slice when `probing`.
    /// With a `deadline`, an idle slice that ends past it returns the inner
    /// transport's timeout; without one the loop never times out.
    fn pump<R>(
        &self,
        deadline: Option<Instant>,
        probing: bool,
        mut until: impl FnMut(&mut State) -> Option<R>,
    ) -> Result<R, TransportError> {
        loop {
            if let Some(done) = until(&mut self.state.lock().expect("reliable state lock")) {
                return Ok(done);
            }
            let slice = deadline.map_or(self.cfg.probe_interval, |d| {
                d.saturating_duration_since(Instant::now())
                    .min(self.cfg.probe_interval)
                    .max(Duration::from_millis(1))
            });
            match self.inner.recv_timeout(slice) {
                Ok(env) => {
                    let mut st = self.state.lock().expect("reliable state lock");
                    self.process(&mut st, env);
                }
                Err(TransportError::Timeout(diag)) => {
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        return Err(TransportError::Timeout(diag));
                    }
                    if probing {
                        self.probe(&mut self.state.lock().expect("reliable state lock"));
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }
}

impl<T: Transport> Transport for ReliableTransport<T> {
    fn node(&self) -> usize {
        self.inner.node()
    }

    fn endpoint_id(&self) -> usize {
        self.inner.endpoint_id()
    }

    fn endpoints(&self) -> usize {
        self.inner.endpoints()
    }

    fn traffic(&self) -> &Arc<super::TrafficCounters> {
        self.inner.traffic()
    }

    fn send_seq(&self, to: usize, msg: Message, seq: u32) -> Result<(), TransportError> {
        debug_assert_eq!(seq, 0, "the reliable layer owns the sequence space");
        if msg.is_control() {
            return self.inner.send(to, msg);
        }
        let s = {
            let mut st = self.state.lock().expect("reliable state lock");
            let link = &mut st.links_out[to];
            link.next_seq += 1;
            let s = link.next_seq;
            link.unacked.insert(s, msg.clone());
            s
        };
        self.inner.send_seq(to, msg, s)
    }

    fn sever_link(&self, to: usize) -> Result<(), TransportError> {
        self.inner.sever_link(to)
    }

    fn recv(&self) -> Result<Envelope, TransportError> {
        self.pump(None, true, |st| st.ready.pop_front())
    }

    fn try_recv(&self) -> Result<Option<Envelope>, TransportError> {
        let mut st = self.state.lock().expect("reliable state lock");
        loop {
            if let Some(env) = st.ready.pop_front() {
                return Ok(Some(env));
            }
            match self.inner.try_recv()? {
                Some(env) => self.process(&mut st, env),
                None => return Ok(None),
            }
        }
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Envelope, TransportError> {
        let deadline = Instant::now() + timeout;
        self.pump(Some(deadline), true, |st| st.ready.pop_front())
            .map_err(|e| match e {
                // The inner transport saw only its last slice: the verdict
                // states the caller's whole budget, and this layer's repair
                // effort, which only it counts.
                TransportError::Timeout(mut diag) => {
                    diag.waited = timeout;
                    diag.link.get_or_insert_with(Default::default).retransmits =
                        self.stats.retransmits.get();
                    TransportError::Timeout(diag)
                }
                e => e,
            })
    }

    fn set_epoch(&self, epoch: u32) {
        self.inner.set_epoch(epoch);
    }

    fn current_epoch(&self) -> u32 {
        self.inner.current_epoch()
    }

    fn shutdown(&mut self) -> Result<(), TransportError> {
        // Linger: a peer may still be missing a frame only we hold. Keep
        // answering nacks (and acking the peer's own stragglers, so *its*
        // linger can finish) until our buffers drain or the bound expires.
        let deadline = Instant::now() + self.cfg.linger;
        let done = |st: &mut State| (st.drained() || Instant::now() >= deadline).then_some(());
        let _ = self.pump(Some(deadline), false, done);
        self.inner.shutdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::ChaosReport;
    use crate::transport::fabric;
    use bytes::Bytes;

    fn grad(iter: u64) -> Message {
        Message::GradChunk {
            iter,
            layer: 0,
            chunk: 0,
            codec: crate::wire::Codec::Identity,
            data: Bytes::from(vec![1u8; 8]),
        }
    }

    fn quick() -> ReliabilityConfig {
        ReliabilityConfig {
            probe_interval: Duration::from_millis(20),
            linger: Duration::from_millis(300),
        }
    }

    #[test]
    fn in_order_traffic_passes_through_with_acks() {
        let (mut eps, _) = fabric(2);
        let b = ReliableTransport::new(eps.remove(1), quick());
        let a = ReliableTransport::new(eps.remove(0), quick());
        for i in 0..5 {
            a.send(1, grad(i)).unwrap();
        }
        for i in 0..5 {
            let env = b.recv_timeout(Duration::from_secs(2)).unwrap();
            assert_eq!(env.msg.iter(), i);
            assert_eq!(env.seq, i as u32 + 1);
        }
        // Pump the acks back into a's state machine.
        while a.try_recv().unwrap().is_some() {}
        assert!(a.drained(), "all five frames acknowledged");
        assert_eq!(b.stats().acks_sent.get(), 5);
        assert_eq!(ChaosReport::from(&*a.stats()).recovery_actions(), 0);
        assert_eq!(ChaosReport::from(&*b.stats()).recovery_actions(), 0);
    }

    #[test]
    fn reordered_frames_are_delivered_in_order() {
        let (mut eps, _) = fabric(2);
        let raw_a = eps.remove(0);
        let b = ReliableTransport::new(eps.remove(0), quick());
        // Simulate a reordering lower layer: send seqs 2, 3, then 1.
        raw_a.send_seq(1, grad(1), 2).unwrap();
        raw_a.send_seq(1, grad(2), 3).unwrap();
        raw_a.send_seq(1, grad(0), 1).unwrap();
        for i in 0..3 {
            let env = b.recv_timeout(Duration::from_secs(2)).unwrap();
            assert_eq!(env.msg.iter(), i, "delivery must be seq-ordered");
        }
        assert_eq!(b.stats().reorders_stashed.get(), 2);
        assert_eq!(b.stats().nacks_sent.get(), 1, "one gap");
        // The raw sender received that nack asking for seq 1.
        let nack = raw_a.recv().unwrap();
        assert!(matches!(nack.msg, Message::Nack { expect: 1 }));
    }

    #[test]
    fn duplicates_are_dropped_and_reacked() {
        let (mut eps, _) = fabric(2);
        let raw_a = eps.remove(0);
        let b = ReliableTransport::new(eps.remove(0), quick());
        raw_a.send_seq(1, grad(0), 1).unwrap();
        raw_a.send_seq(1, grad(0), 1).unwrap();
        raw_a.send_seq(1, grad(1), 2).unwrap();
        assert_eq!(
            b.recv_timeout(Duration::from_secs(2)).unwrap().msg.iter(),
            0
        );
        assert_eq!(
            b.recv_timeout(Duration::from_secs(2)).unwrap().msg.iter(),
            1
        );
        assert!(b.try_recv().unwrap().is_none(), "duplicate never delivered");
        assert_eq!(b.stats().dups_dropped.get(), 1);
    }

    #[test]
    fn lost_tail_frame_is_recovered_by_probe() {
        let (mut eps, _) = fabric(2);
        let rb = eps.remove(1);
        let a = ReliableTransport::new(eps.remove(0), quick());
        // a sends two frames; "the network" loses the second (we just don't
        // forward it): receiver b is raw so we can play the network.
        a.send(1, grad(0)).unwrap();
        a.send(1, grad(1)).unwrap();
        let f0 = rb.recv().unwrap();
        let _lost = rb.recv().unwrap();
        // b (reliable in spirit) acks frame 1 and probes for seq 2.
        rb.send(0, Message::Ack { upto: 1 }).unwrap();
        rb.send(0, Message::Nack { expect: 2 }).unwrap();
        assert_eq!(f0.seq, 1);
        // a consumes ack + nack and retransmits seq 2.
        while a.try_recv().unwrap().is_some() {}
        assert_eq!(a.stats().retransmits.get(), 1);
        let again = rb.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(again.seq, 2);
        assert_eq!(again.msg.iter(), 1);
    }

    #[test]
    fn recv_timeout_still_expires_with_a_diag() {
        let (mut eps, _) = fabric(2);
        let _peer = eps.remove(1);
        let a = ReliableTransport::new(eps.remove(0), quick());
        let start = Instant::now();
        let err = a.recv_timeout(Duration::from_millis(90)).unwrap_err();
        let TransportError::Timeout(diag) = err else {
            panic!("expected a timeout, got {err:?}");
        };
        assert!(start.elapsed() < Duration::from_secs(2), "bounded");
        // The verdict states the caller's budget, not the last probe slice.
        assert_eq!(diag.waited, Duration::from_millis(90));
        // Three-ish slices expired, each probing the peer.
        assert!(a.stats().probes_sent.get() >= 2);
    }

    /// Two meshes in one process share endpoint ids: each layer's stats
    /// read its own repairs only, while the registry family sums them.
    #[test]
    fn stats_are_per_endpoint_while_families_sum() {
        let retransmits = |snap: &crate::metrics::MetricsSnapshot| {
            snap.value("poseidon_retransmits_total", &[("endpoint", "0")])
                .unwrap_or(0)
        };
        let before = retransmits(&metrics::snapshot());

        // The repairing pair: endpoint 1 plays a network that lost seq 2 and
        // nacks for it.
        let (mut eps, _) = fabric(2);
        let raw = eps.remove(1);
        let repairing = ReliableTransport::new(eps.remove(0), quick());
        repairing.send(1, grad(0)).unwrap();
        repairing.send(1, grad(1)).unwrap();
        raw.send(0, Message::Nack { expect: 2 }).unwrap();
        while repairing.try_recv().unwrap().is_some() {}

        // The clean pair, same endpoint ids, on its own fabric.
        let (mut eps, _) = fabric(2);
        let b = ReliableTransport::new(eps.remove(1), quick());
        let a = ReliableTransport::new(eps.remove(0), quick());
        a.send(1, grad(0)).unwrap();
        b.recv_timeout(Duration::from_secs(2)).unwrap();
        while a.try_recv().unwrap().is_some() {}

        assert_eq!(repairing.stats().retransmits.get(), 1);
        assert_eq!(
            a.stats().retransmits.get(),
            0,
            "the clean pair repaired nothing"
        );
        assert_eq!(ChaosReport::from(&*a.stats()).recovery_actions(), 0);
        assert_eq!(ChaosReport::from(&*b.stats()).recovery_actions(), 0);
        assert_eq!(b.stats().acks_sent.get(), 1);
        let snap = metrics::snapshot();
        assert!(retransmits(&snap) > before, "the family counts the repair");
        assert!(snap.family("poseidon_acks_total").is_some());
    }
}
