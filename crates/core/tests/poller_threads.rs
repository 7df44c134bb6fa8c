//! Thread-budget proof for the TCP transport: one endpoint costs one thread
//! (its poller, which also accepts and reads every HELLO) no matter how many
//! peers it meshes with. Counted straight from `/proc/self/status` (the
//! build is Linux-only), in a binary of its own, so no other test's threads
//! land in the measurement.

mod common;

use poseidon::transport::{Message, TcpTransport, Transport};
use std::time::Duration;

/// Live threads in this process, per the kernel, once the count has held
/// still for 20 ms: a joined thread lingers in `/proc` until the kernel reaps
/// it, which under load is after `join` has returned.
fn thread_count() -> usize {
    let mut last = thread_count_now();
    for _ in 0..100 {
        std::thread::sleep(Duration::from_millis(20));
        let now = thread_count_now();
        if now == last {
            break;
        }
        last = now;
    }
    last
}

fn thread_count_now() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("Threads: line")
        .trim()
        .parse()
        .expect("thread count")
}

/// One frame around the ring proves every endpoint is live.
fn prove_ring(eps: &[TcpTransport]) {
    for (i, ep) in eps.iter().enumerate() {
        ep.send((i + 1) % eps.len(), Message::Ack { upto: i as u64 })
            .expect("ring send");
    }
    for (i, ep) in eps.iter().enumerate() {
        let env = ep.recv_timeout(Duration::from_secs(20)).expect("ring recv");
        let prev = (i + eps.len() - 1) % eps.len();
        assert_eq!(env.from, prev);
        assert_eq!(env.msg, Message::Ack { upto: prev as u64 });
    }
}

/// A 33-endpoint mesh (32 peers per endpoint) costs one thread per
/// endpoint — its poller — not one per peer, and shutdown joins every one
/// of them.
#[test]
fn evented_mesh_at_32_peers_is_one_thread_per_endpoint() {
    const ENDPOINTS: usize = 33;
    let baseline = thread_count();
    let nodes: Vec<usize> = (0..ENDPOINTS).collect();
    let (mut eps, _) = common::tcp_mesh(&nodes);
    let steady = thread_count();
    let delta = steady - baseline;
    assert!(
        delta <= ENDPOINTS,
        "evented mesh spawned {delta} threads for {ENDPOINTS} endpoints; \
         budget is 1 per endpoint (the poller)"
    );
    assert!(
        delta >= ENDPOINTS,
        "mesh reports only {delta} threads — endpoints are missing their poller"
    );
    prove_ring(&eps);
    for ep in &mut eps {
        ep.shutdown().expect("shutdown");
    }
    drop(eps);
    let after = thread_count();
    assert!(
        after <= baseline + 1,
        "shutdown must join every poller thread ({after} live, baseline {baseline})"
    );
}
