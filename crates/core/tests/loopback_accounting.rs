//! Pins the loop-back accounting contract on *both* transports: messages
//! between endpoints colocated on one physical node are delivered but never
//! counted by [`TrafficCounters`], while cross-node messages are counted at
//! exactly their encoded frame length. Table 1's `(P1 + P2 − 2)/P2` factor
//! depends on this — a colocated worker/shard pair's exchange is free.

mod common;

use bytes::Bytes;
use poseidon::transport::{fabric_with_nodes, Envelope, Message, Transport};
use poseidon::wire::FRAME_HEADER_BYTES;
use poseidon_testkit::cases;
use std::time::Duration;

fn grad(iter: u64, payload: usize) -> Message {
    Message::GradChunk {
        iter,
        layer: 0,
        chunk: 0,
        codec: poseidon::wire::Codec::Identity,
        data: Bytes::from(vec![0x5Au8; payload]),
    }
}

/// In-proc fabric, arbitrary colocation layout and message plan: only
/// cross-node messages are counted, each at its frame length, and every
/// message (loop-back included) is delivered.
#[test]
fn inproc_loopback_uncounted_cross_node_exact() {
    cases(64, |g| {
        let node_of_endpoint = g.vec(2..8, |g| g.range(0usize..4));
        let plan = g.vec(1..32, |g| {
            (
                g.any::<u32>() as u16,
                g.any::<u32>() as u16,
                g.range(0usize..256),
            )
        });
        let (eps, counters) = fabric_with_nodes(&node_of_endpoint);
        let n = eps.len();
        let mut expected_total = 0u64;
        let mut expected_deliveries = vec![0usize; n];
        for &(from_raw, to_raw, payload) in &plan {
            let from = from_raw as usize % n;
            let to = to_raw as usize % n;
            let msg = grad(0, payload);
            if node_of_endpoint[from] != node_of_endpoint[to] {
                expected_total += msg.wire_bytes();
            }
            eps[from].send(to, msg).unwrap();
            expected_deliveries[to] += 1;
        }
        assert_eq!(counters.total_bytes(), expected_total);
        for (ep, &want) in eps.iter().zip(&expected_deliveries) {
            let mut got = 0;
            while ep.try_recv().unwrap().is_some() {
                got += 1;
            }
            assert_eq!(got, want, "endpoint lost or invented messages");
        }
        // tx and rx ledgers agree in aggregate.
        let tx_sum: u64 = (0..counters.nodes()).map(|x| counters.tx_bytes(x)).sum();
        let rx_sum: u64 = (0..counters.nodes()).map(|x| counters.rx_bytes(x)).sum();
        assert_eq!(tx_sum, rx_sum);
    });
}

/// The same contract over real sockets: endpoints 0 and 1 share node 0,
/// endpoint 2 sits alone on node 1. Colocated traffic crosses the socket but
/// never the ledger; remote traffic is counted at frame length.
#[test]
fn tcp_loopback_uncounted_cross_node_exact() {
    let (eps, counters) = common::tcp_mesh(&[0, 0, 1]);
    const PAYLOAD: usize = 96;
    const ROUNDS: u64 = 10;

    std::thread::scope(|s| {
        for (me, mut ep) in eps.into_iter().enumerate() {
            s.spawn(move || {
                match me {
                    0 => {
                        for i in 0..ROUNDS {
                            ep.send(1, grad(i, PAYLOAD)).unwrap(); // colocated
                            ep.send(0, grad(i, PAYLOAD)).unwrap(); // self
                            ep.send(2, grad(i, PAYLOAD)).unwrap(); // remote
                        }
                        for i in 0..ROUNDS {
                            let env = ep.recv().unwrap();
                            assert_eq!(env.from, 0, "self loop-back keeps origin");
                            assert_eq!(env.msg.iter(), i);
                        }
                    }
                    1 => {
                        for i in 0..ROUNDS {
                            let env = ep.recv().unwrap();
                            assert_eq!(env.from, 0);
                            assert_eq!(env.msg.iter(), i);
                        }
                    }
                    _ => {
                        for i in 0..ROUNDS {
                            let env = ep.recv().unwrap();
                            assert_eq!(env.from, 0);
                            assert_eq!(env.msg.iter(), i);
                        }
                    }
                }
                ep.shutdown().unwrap();
            });
        }
    });

    // Of 3 sends per round only the node 0 -> node 1 one is counted.
    let frame = (FRAME_HEADER_BYTES + PAYLOAD) as u64;
    assert_eq!(counters.total_bytes(), ROUNDS * frame);
    assert_eq!(counters.tx_bytes(0), ROUNDS * frame);
    assert_eq!(counters.rx_bytes(1), ROUNDS * frame);
    assert_eq!(counters.rx_bytes(0), 0, "loop-back must not be counted");
}

/// Both transports charge the identical number of bytes for the identical
/// message plan — the in-proc fabric is a faithful accounting model of TCP.
#[test]
fn transports_agree_on_counted_bytes() {
    let node_of_endpoint = [0usize, 0, 1];
    let payloads = [0usize, 1, 13, 128, 1024];

    // In-proc run.
    let (inproc_eps, inproc_counters) = fabric_with_nodes(&node_of_endpoint);
    for (i, &p) in payloads.iter().enumerate() {
        inproc_eps[0].send(1, grad(i as u64, p)).unwrap();
        inproc_eps[0].send(2, grad(i as u64, p)).unwrap();
        inproc_eps[2].send(0, grad(i as u64, p)).unwrap();
    }

    // TCP run of the same plan.
    let (tcp_eps, tcp_counters) = common::tcp_mesh(&node_of_endpoint);
    std::thread::scope(|s| {
        for (me, mut ep) in tcp_eps.into_iter().enumerate() {
            s.spawn(move || {
                match me {
                    0 => {
                        for (i, &p) in payloads.iter().enumerate() {
                            ep.send(1, grad(i as u64, p)).unwrap();
                            ep.send(2, grad(i as u64, p)).unwrap();
                        }
                        for _ in payloads {
                            ep.recv().unwrap();
                        }
                    }
                    1 => {
                        for _ in payloads {
                            ep.recv().unwrap();
                        }
                    }
                    _ => {
                        for (i, &p) in payloads.iter().enumerate() {
                            ep.send(0, grad(i as u64, p)).unwrap();
                        }
                        for _ in payloads {
                            ep.recv().unwrap();
                        }
                    }
                }
                ep.shutdown().unwrap();
            });
        }
    });

    assert_eq!(inproc_counters.total_bytes(), tcp_counters.total_bytes());
    assert_eq!(
        inproc_counters.per_node_totals(),
        tcp_counters.per_node_totals()
    );
    assert_eq!(
        inproc_counters.snapshot(),
        tcp_counters.snapshot(),
        "full tx/rx ledgers must agree between transports"
    );
}

/// Ring traffic `i -> (i + 1) % E` over full meshes of 2, 8 and 32
/// endpoints, one per node, small and large frames: every frame arrives from
/// the right peer and in order, and every node's ledger holds exactly the
/// frames it sent and received.
#[test]
fn tcp_ring_over_full_meshes_delivers_in_order_and_ledgers_exact_bytes() {
    for endpoints in [2usize, 8, 32] {
        for (payload, frames) in [(256usize, 500u64), (64 << 10, 50)] {
            let nodes: Vec<usize> = (0..endpoints).collect();
            let (eps, counters) = common::tcp_mesh(&nodes);
            let data = Bytes::from(vec![0x5Au8; payload]);
            let frame = |k: u64| Message::GradChunk {
                iter: k,
                layer: 0,
                chunk: 0,
                codec: poseidon::wire::Codec::Identity,
                data: data.clone(),
            };
            std::thread::scope(|s| {
                for (me, mut ep) in eps.into_iter().enumerate() {
                    let frame = &frame;
                    s.spawn(move || {
                        let next = (me + 1) % endpoints;
                        let prev = (me + endpoints - 1) % endpoints;
                        let mut got = 0u64;
                        let take = |env: Envelope, got: &mut u64| {
                            assert_eq!(env.from, prev, "E={endpoints} endpoint {me}: wrong peer");
                            assert_eq!(
                                env.msg.iter(),
                                *got,
                                "E={endpoints} endpoint {me}: lost or reordered"
                            );
                            *got += 1;
                        };
                        for k in 0..frames {
                            ep.send(next, frame(k)).unwrap();
                            // Drain eagerly so inboxes stay bounded however
                            // far ahead of its peer a sender runs.
                            while let Some(env) = ep.try_recv().unwrap() {
                                take(env, &mut got);
                            }
                        }
                        while got < frames {
                            let env = ep.recv_timeout(Duration::from_secs(60)).expect("starved");
                            take(env, &mut got);
                        }
                        ep.shutdown().unwrap();
                    });
                }
            });
            let per_node = frames * frame(0).wire_bytes();
            for node in 0..endpoints {
                let at = format!("E={endpoints} payload={payload} node {node}");
                assert_eq!(counters.tx_bytes(node), per_node, "{at} tx ledger");
                assert_eq!(counters.rx_bytes(node), per_node, "{at} rx ledger");
            }
        }
    }
}
