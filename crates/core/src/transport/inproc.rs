//! In-process transport: the threaded runtime's stand-in for the cluster
//! network.
//!
//! Every endpoint gets one mpsc inbox; a send pushes an [`Envelope`] onto the
//! destination's queue and, once that succeeded, has the shared endpoint core
//! charge the message's frame bytes to the traffic ledger. Messages never
//! actually cross the wire format here — the codec is exercised by
//! `wire_bytes()` (accounting) and by the codec's own tests — which keeps the
//! threaded runtime allocation-light while still counting exactly what
//! [`super::TcpTransport`] would move. Everything on the receive side (the
//! epoch fence, the receive loops, timeout diagnostics) is the core's.

use super::{EndpointCore, Envelope, Message, TrafficCounters, Transport, TransportError};
use crate::telemetry;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::Duration;

/// One endpoint's attachment to an in-process fabric.
pub struct InProcTransport {
    core: EndpointCore,
    inbox: Receiver<Envelope>,
    outboxes: Vec<Option<Sender<Envelope>>>,
}

/// With no reader thread to do it, the `rx.frame` instant is emitted by the
/// receiving thread as it dequeues.
fn traced(env: Envelope) -> Envelope {
    if telemetry::is_enabled() {
        telemetry::instant("rx.frame", env.from as u64, env.msg.wire_bytes());
    }
    env
}

impl Transport for InProcTransport {
    fn node(&self) -> usize {
        self.core.node()
    }

    fn endpoint_id(&self) -> usize {
        self.core.me()
    }

    fn endpoints(&self) -> usize {
        self.core.endpoints()
    }

    fn traffic(&self) -> &Arc<TrafficCounters> {
        self.core.traffic()
    }

    fn send_seq(&self, to: usize, msg: Message, seq: u32) -> Result<(), TransportError> {
        let outbox = self
            .outboxes
            .get(to)
            .ok_or(TransportError::Closed)?
            .as_ref()
            .ok_or(TransportError::Closed)?;
        let bytes = msg.wire_bytes();
        outbox
            .send(Envelope {
                from: self.core.node(),
                src: self.core.me(),
                seq,
                epoch: self.core.current_epoch(),
                msg,
            })
            .map_err(|_| TransportError::Closed)?;
        self.core.note_sent(to, bytes);
        Ok(())
    }

    fn recv(&self) -> Result<Envelope, TransportError> {
        self.core.recv(&self.inbox).map(traced)
    }

    fn try_recv(&self) -> Result<Option<Envelope>, TransportError> {
        Ok(self.core.try_recv(&self.inbox)?.map(traced))
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Envelope, TransportError> {
        self.core.recv_timeout(&self.inbox, timeout).map(traced)
    }

    fn set_epoch(&self, epoch: u32) {
        self.core.set_epoch(epoch);
    }

    fn current_epoch(&self) -> u32 {
        self.core.current_epoch()
    }

    fn shutdown(&mut self) -> Result<(), TransportError> {
        // Dropping our clones of the senders lets peers' `recv` observe
        // `Closed` once every endpoint has shut down.
        for slot in &mut self.outboxes {
            *slot = None;
        }
        Ok(())
    }
}

/// Creates a fabric of `nodes` endpoints plus the shared traffic counters.
/// Endpoint `i` lives on physical node `i`.
pub fn fabric(nodes: usize) -> (Vec<InProcTransport>, Arc<TrafficCounters>) {
    let ids: Vec<usize> = (0..nodes).collect();
    fabric_with_nodes(&ids)
}

/// Creates one endpoint per entry of `node_of_endpoint`, where entry `j` is
/// the *physical node* endpoint `j` lives on. Several endpoints may share a
/// node — the paper's deployment colocates a worker and a KV-store shard on
/// every machine — and traffic between co-resident endpoints is loop-back
/// (delivered, not counted).
pub fn fabric_with_nodes(
    node_of_endpoint: &[usize],
) -> (Vec<InProcTransport>, Arc<TrafficCounters>) {
    assert!(
        !node_of_endpoint.is_empty(),
        "fabric needs at least one node"
    );
    let physical_nodes = node_of_endpoint.iter().max().expect("non-empty") + 1;
    let counters = Arc::new(TrafficCounters::new(physical_nodes));
    let mut senders = Vec::with_capacity(node_of_endpoint.len());
    let mut receivers = Vec::with_capacity(node_of_endpoint.len());
    for _ in node_of_endpoint {
        let (s, r) = channel();
        senders.push(Some(s));
        receivers.push(r);
    }
    let node_ids: Arc<[usize]> = Arc::from(node_of_endpoint);
    let endpoints = receivers
        .into_iter()
        .enumerate()
        .map(|(idx, inbox)| InProcTransport {
            core: EndpointCore::new(idx, Arc::clone(&node_ids), Arc::clone(&counters)),
            inbox,
            outboxes: senders.clone(),
        })
        .collect();
    (endpoints, counters)
}
