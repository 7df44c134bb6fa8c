//! Socket plumbing of the TCP transport: the fabric spec, the connection
//! HELLO, and the dial/accept helpers.
//!
//! [`TcpTransport`](super::TcpTransport) builds a full mesh of
//! *unidirectional* connections: endpoint `a` dials `b` and uses that stream
//! exclusively for a → b frames. Every dial opens with a 16-byte
//! HELLO:
//!
//! ```text
//! offset  size  field
//! 0       4     magic "PSDN" (LE u32)
//! 4       4     wire version u32 LE
//! 8       4     dialer endpoint id u32 LE
//! 12      4     connection generation u32 LE (1 = initial dial,
//!               incremented on every redial attempt)
//! ```
//!
//! The generation makes acceptor-side registration *idempotent per
//! (peer, generation)*: a peer that redials while its old stream is still
//! draining — or whose HELLO gets duplicated by a dial race — cannot install
//! two live readers. The acceptor adopts a stream only when its generation
//! is strictly newer than the last one adopted for that peer.

use super::{Backoff, TransportError};
use crate::metrics::{self, Counter};
use crate::telemetry;
use crate::wire::FRAME_VERSION;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// First four bytes of the connection HELLO ("PSDN").
pub(crate) const HELLO_MAGIC: u32 = 0x5053_444E;
/// Size of the HELLO preamble every dial writes.
pub(crate) const HELLO_BYTES: usize = 16;

/// Poll interval of a persistent acceptor between nonblocking accepts.
pub(crate) const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Static description of a TCP fabric: where every endpoint listens and
/// which physical node it lives on. All participants must construct the
/// identical spec (same flags to every `poseidon-node` process).
#[derive(Debug, Clone)]
pub struct TcpFabricSpec {
    /// Listen address of each endpoint, indexed by endpoint id.
    pub addrs: Vec<SocketAddr>,
    /// Physical node of each endpoint (colocated endpoints share a node and
    /// their traffic is uncounted loop-back).
    pub node_of_endpoint: Vec<usize>,
    /// How long `connect` keeps retrying the initial mesh before giving up.
    pub connect_timeout: Duration,
    /// First delay of the capped exponential backoff shared by initial
    /// dials and post-sever reconnects.
    pub backoff_base: Duration,
    /// Ceiling of the dial/reconnect backoff delay.
    pub backoff_cap: Duration,
    /// How long a send keeps redialing a broken peer before declaring the
    /// link dead (bounded dead-peer verdict, never a hang).
    pub reconnect_timeout: Duration,
}

impl TcpFabricSpec {
    /// A localhost fabric on consecutive ports starting at `base_port`.
    pub fn loopback(base_port: u16, node_of_endpoint: &[usize]) -> Self {
        let addrs = (0..node_of_endpoint.len())
            .map(|i| SocketAddr::from(([127, 0, 0, 1], base_port + i as u16)))
            .collect();
        Self {
            addrs,
            node_of_endpoint: node_of_endpoint.to_vec(),
            connect_timeout: Duration::from_secs(10),
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(400),
            reconnect_timeout: Duration::from_secs(5),
        }
    }

    /// The paper's deployment on localhost: `workers` physical nodes, each
    /// hosting one worker (endpoints `0..P`) colocated with one KV-store
    /// shard (endpoints `P..2P`).
    pub fn colocated_loopback(workers: usize, base_port: u16) -> Self {
        let ids: Vec<usize> = (0..workers).chain(0..workers).collect();
        Self::loopback(base_port, &ids)
    }

    /// Number of physical nodes on the fabric.
    pub fn physical_nodes(&self) -> usize {
        self.node_of_endpoint.iter().max().map_or(0, |m| m + 1)
    }
}

/// Binds `n` listeners on OS-assigned localhost ports. Lets threaded tests
/// build a collision-free [`TcpFabricSpec`] before connecting endpoints.
pub fn bind_ephemeral(n: usize) -> std::io::Result<(Vec<TcpListener>, Vec<SocketAddr>)> {
    let mut listeners = Vec::with_capacity(n);
    let mut addrs = Vec::with_capacity(n);
    for _ in 0..n {
        let l = TcpListener::bind((std::net::Ipv4Addr::LOCALHOST, 0))?;
        addrs.push(l.local_addr()?);
        listeners.push(l);
    }
    Ok((listeners, addrs))
}

/// A validated inbound HELLO.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Hello {
    /// The dialing endpoint.
    pub peer: usize,
    /// The dialer's connection generation (1 = initial mesh).
    pub generation: u32,
}

/// One connect + HELLO attempt. An error anywhere (refused, reset mid-HELLO)
/// means "try again later".
pub(crate) fn dial_once(
    addr: SocketAddr,
    me: usize,
    generation: u32,
    timeout: Duration,
) -> std::io::Result<TcpStream> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_nodelay(true)?;
    let mut hello = [0u8; HELLO_BYTES];
    hello[0..4].copy_from_slice(&HELLO_MAGIC.to_le_bytes());
    hello[4..8].copy_from_slice(&(FRAME_VERSION as u32).to_le_bytes());
    hello[8..12].copy_from_slice(&(me as u32).to_le_bytes());
    hello[12..16].copy_from_slice(&generation.to_le_bytes());
    stream.write_all(&hello)?;
    Ok(stream)
}

/// Dials `peer` for the initial mesh (generation 1) with capped exponential
/// backoff until its listener is up or `deadline` passes.
pub(crate) fn dial(
    spec: &TcpFabricSpec,
    me: usize,
    peer: usize,
    deadline: Instant,
) -> Result<TcpStream, TransportError> {
    let addr = spec.addrs[peer];
    let mut backoff = Backoff::new(spec.backoff_base, spec.backoff_cap);
    let mut attempts: u64 = 0;
    let retries = metrics::counter(
        "poseidon_dial_retries_total",
        &[("endpoint", &me.to_string())],
    );
    loop {
        let remaining = deadline
            .checked_duration_since(Instant::now())
            .ok_or_else(|| {
                TransportError::Handshake(format!(
                    "endpoint {me}: timed out dialing {addr} after {attempts} attempts"
                ))
            })?;
        match dial_once(addr, me, 1, remaining.min(Duration::from_secs(1))) {
            Ok(stream) => return Ok(stream),
            Err(_) => {
                attempts += 1;
                retries.inc();
                telemetry::instant("dial.retry", peer as u64, attempts);
                std::thread::sleep(backoff.next_delay().min(remaining));
            }
        }
    }
}

/// Validates one inbound HELLO; returns the peer endpoint id and generation.
pub(crate) fn validate_hello(stream: &mut TcpStream, me: usize) -> Result<Hello, TransportError> {
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| TransportError::Handshake(format!("read timeout: {e}")))?;
    let mut hello = [0u8; HELLO_BYTES];
    stream
        .read_exact(&mut hello)
        .map_err(|e| TransportError::Handshake(format!("read hello: {e}")))?;
    let magic = u32::from_le_bytes(hello[0..4].try_into().expect("4 bytes"));
    let version = u32::from_le_bytes(hello[4..8].try_into().expect("4 bytes"));
    let peer = u32::from_le_bytes(hello[8..12].try_into().expect("4 bytes")) as usize;
    let generation = u32::from_le_bytes(hello[12..16].try_into().expect("4 bytes"));
    if magic != HELLO_MAGIC {
        return Err(TransportError::Handshake(format!(
            "bad hello magic {magic:#010x}"
        )));
    }
    if version != FRAME_VERSION as u32 {
        return Err(TransportError::Handshake(format!(
            "peer speaks wire version {version}, we speak {FRAME_VERSION}"
        )));
    }
    if peer == me {
        return Err(TransportError::Handshake(format!(
            "self hello from endpoint {peer}"
        )));
    }
    stream
        .set_read_timeout(None)
        .map_err(|e| TransportError::Handshake(format!("clear timeout: {e}")))?;
    stream
        .set_nodelay(true)
        .map_err(|e| TransportError::Handshake(format!("nodelay: {e}")))?;
    Ok(Hello { peer, generation })
}

/// Tracks the newest connection generation adopted per peer, making stream
/// registration idempotent: [`admit`](HelloGate::admit) accepts a HELLO only
/// if its generation is strictly newer than the last admitted one for that
/// peer. Duplicate HELLOs (a dial race, or a redial racing its old stream's
/// teardown) are counted in `dups` and dropped.
#[derive(Debug)]
pub(crate) struct HelloGate {
    last_gen: std::sync::Mutex<Vec<u32>>,
    pub dups: Counter,
}

impl HelloGate {
    /// A gate for `n` peers, none yet admitted, counting rejects in `dups`.
    pub fn new(n: usize, dups: Counter) -> Self {
        Self {
            last_gen: std::sync::Mutex::new(vec![0; n]),
            dups,
        }
    }

    /// Admits `hello` if its generation is newer than anything seen from
    /// that peer; counts and rejects it otherwise.
    pub fn admit(&self, hello: Hello) -> bool {
        let mut last = self.last_gen.lock().expect("hello gate lock");
        if hello.peer >= last.len() || hello.generation <= last[hello.peer] {
            self.dups.inc();
            return false;
        }
        last[hello.peer] = hello.generation;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_gate_is_idempotent_per_peer_generation() {
        let gate = HelloGate::new(3, Counter::new());
        let h = |peer, generation| Hello { peer, generation };
        assert!(gate.admit(h(1, 1)), "first generation admitted");
        assert!(!gate.admit(h(1, 1)), "duplicate HELLO rejected");
        assert!(gate.admit(h(1, 2)), "newer generation admitted");
        assert!(!gate.admit(h(1, 1)), "stale generation rejected");
        assert!(gate.admit(h(2, 5)), "peers are independent");
        assert!(!gate.admit(h(7, 1)), "out-of-range peer rejected");
        assert_eq!(gate.dups.get(), 3);
    }
}
