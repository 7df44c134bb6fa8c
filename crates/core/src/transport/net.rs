//! Socket plumbing of the TCP transport: the fabric spec, the connection
//! HELLO, and one dial attempt.
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
//! 12      4     connection generation u32 LE (1 = first dial,
//!               incremented on every further dial attempt)
//! ```
//!
//! The accepting poller parses it ([`validate_hello`]) and passes it through
//! its [`HelloGate`], which makes registration *idempotent per (peer,
//! generation)*: a redial racing its old stream's teardown, or a HELLO
//! duplicated by a dial race, cannot install two live readers.

use crate::metrics::Counter;
use crate::wire::FRAME_VERSION;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

/// First four bytes of the connection HELLO ("PSDN").
pub(crate) const HELLO_MAGIC: u32 = 0x5053_444E;
/// Size of the HELLO preamble every dial writes.
pub(crate) const HELLO_BYTES: usize = 16;

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
    /// The dialer's connection generation (1 = first dial attempt).
    pub generation: u32,
}

/// The HELLO endpoint `me` opens connection `generation` with.
pub(crate) fn hello_bytes(me: usize, generation: u32) -> [u8; HELLO_BYTES] {
    let mut hello = [0u8; HELLO_BYTES];
    hello[0..4].copy_from_slice(&HELLO_MAGIC.to_le_bytes());
    hello[4..8].copy_from_slice(&(FRAME_VERSION as u32).to_le_bytes());
    hello[8..12].copy_from_slice(&(me as u32).to_le_bytes());
    hello[12..16].copy_from_slice(&generation.to_le_bytes());
    hello
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
    stream.write_all(&hello_bytes(me, generation))?;
    Ok(stream)
}

/// Parses one inbound HELLO for endpoint `me` of a fabric of `endpoints`:
/// the magic, our wire version, and a dialer id in range that is not our
/// own. `None` rejects it.
pub(crate) fn validate_hello(hello: &[u8], me: usize, endpoints: usize) -> Option<Hello> {
    let word = |at: usize| u32::from_le_bytes(hello[at..at + 4].try_into().expect("4 bytes"));
    let peer = word(8) as usize;
    (word(0) == HELLO_MAGIC && word(4) == FRAME_VERSION as u32 && peer < endpoints && peer != me)
        .then(|| Hello {
            peer,
            generation: word(12),
        })
}

/// The poller's record of the newest connection generation admitted per
/// peer: [`admit`](HelloGate::admit) accepts a HELLO only if its generation
/// is strictly newer than the last admitted one for that peer, and counts
/// the rest in `dups`.
#[derive(Debug)]
pub(crate) struct HelloGate {
    last_gen: Vec<u32>,
    pub dups: Counter,
}

impl HelloGate {
    /// A gate for `n` peers, none yet admitted, counting rejects in `dups`.
    pub fn new(n: usize, dups: Counter) -> Self {
        Self {
            last_gen: vec![0; n],
            dups,
        }
    }

    /// Whether a HELLO from `peer` has been admitted yet.
    pub fn heard(&self, peer: usize) -> bool {
        self.last_gen[peer] > 0
    }

    /// Admits `hello` if its generation is newer than anything seen from
    /// that peer; counts and rejects it otherwise.
    pub fn admit(&mut self, hello: Hello) -> bool {
        let last = &mut self.last_gen;
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
        let mut gate = HelloGate::new(3, Counter::new());
        let h = |peer, generation| Hello { peer, generation };
        assert!(gate.admit(h(1, 1)), "first generation admitted");
        assert!(!gate.admit(h(1, 1)), "duplicate HELLO rejected");
        assert!(gate.admit(h(1, 2)), "newer generation admitted");
        assert!(!gate.admit(h(1, 1)), "stale generation rejected");
        assert!(gate.admit(h(2, 5)), "peers are independent");
        assert!(!gate.admit(h(7, 1)), "out-of-range peer rejected");
        assert_eq!(gate.dups.get(), 3);
        assert!(gate.heard(1) && !gate.heard(0), "only admitted peers heard");
    }

    #[test]
    fn hello_parse_rejects_magic_version_range_and_self() {
        let parsed = validate_hello(&hello_bytes(2, 9), 0, 3).expect("a valid HELLO");
        assert_eq!((parsed.peer, parsed.generation), (2, 9));
        assert!(validate_hello(&hello_bytes(0, 1), 0, 3).is_none(), "self");
        assert!(validate_hello(&hello_bytes(3, 1), 0, 3).is_none(), "range");
        for at in [0, 4] {
            let mut bad = hello_bytes(1, 1);
            bad[at] ^= 0xFF;
            assert!(validate_hello(&bad, 0, 3).is_none(), "byte {at}");
        }
    }
}
