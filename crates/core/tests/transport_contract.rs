//! The [`Transport`] contract, each case written once and run on an
//! in-process fabric *and* a loopback [`TcpTransport`] mesh: whatever moves
//! the envelopes, origin stamps, byte accounting, ordering, the membership
//! fence, timeout diagnostics and shutdown behave the same. Public API only.

use poseidon::metrics;
mod common;

use bytes::Bytes;
use common::tcp_mesh;
use poseidon::transport::{
    fabric_with_nodes, stale_epoch_frames, Envelope, Message, TrafficCounters, TrafficSnapshot,
    Transport, TransportError,
};
use poseidon::wire::{Codec, FRAME_HEADER_BYTES};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const HDR: u64 = FRAME_HEADER_BYTES as u64;

/// Long enough that only a lost frame trips it.
const PATIENCE: Duration = Duration::from_secs(20);

/// A fabric under test: its endpoints in index order plus their shared ledger.
type Fabric<T> = (Vec<T>, Arc<TrafficCounters>);

fn grad(iter: u64, layer: u32, data: Vec<u8>) -> Message {
    Message::GradChunk {
        iter,
        layer,
        chunk: 0,
        codec: Codec::Identity,
        data: data.into(),
    }
}

fn payload_of(env: Envelope) -> Vec<u8> {
    match env.msg {
        Message::GradChunk { data, .. } => data.to_vec(),
        other => panic!("expected a GradChunk, got {other:?}"),
    }
}

/// Shuts every endpoint down. Nothing is left blocked afterwards: once
/// whatever was still queued is drained, each inbox reports `Closed`.
fn close<T: Transport>(mut eps: Vec<T>) {
    for ep in &mut eps {
        ep.shutdown().expect("shutdown");
    }
    for ep in &eps {
        assert_eq!(ep.recv().unwrap_err(), TransportError::Closed);
    }
}

fn expect_timeout(err: TransportError) -> Box<poseidon::transport::TimeoutDiag> {
    match err {
        TransportError::Timeout(diag) => diag,
        other => panic!("expected Timeout, got {other:?}"),
    }
}

/// `from` is the sender's node, `src` its endpoint, `seq` what `send_seq`
/// stamped (0 for plain `send`); a cross-node frame is charged at exactly its
/// encoded length, once, to the two nodes it crossed.
fn delivery_keeps_origin_and_counts_exact_bytes<T: Transport>((eps, counters): Fabric<T>) {
    assert_eq!(eps[2].node(), 0);
    assert_eq!(eps[2].endpoint_id(), 2);
    assert_eq!(eps[2].endpoints(), 4);
    eps[2].send_seq(1, grad(7, 3, vec![1; 40]), 17).unwrap();
    let env = eps[1].recv_timeout(PATIENCE).unwrap();
    assert_eq!(
        (env.from, env.src, env.seq),
        (0, 2, 17),
        "node, endpoint, seq"
    );
    assert_eq!((env.msg.iter(), env.msg.layer()), (7, 3));
    assert_eq!(env.msg.wire_bytes(), HDR + 40);
    eps[0].send(1, grad(8, 0, vec![2; 10])).unwrap();
    assert_eq!(eps[1].recv().unwrap().seq, 0, "plain send is unsequenced");
    assert_eq!(counters.tx_bytes(0), 2 * HDR + 50);
    assert_eq!(counters.rx_bytes(1), 2 * HDR + 50);
    assert_eq!(counters.tx_bytes(1) + counters.rx_bytes(0), 0);
    assert_eq!(counters.total_bytes(), 2 * HDR + 50);
    assert!(Arc::ptr_eq(eps[0].traffic(), &counters));
    close(eps);
}

#[test]
fn delivery_keeps_origin_and_counts_exact_bytes_on_both() {
    delivery_keeps_origin_and_counts_exact_bytes(fabric_with_nodes(&[0, 1, 0, 1]));
    delivery_keeps_origin_and_counts_exact_bytes(tcp_mesh(&[0, 1, 0, 1]));
}

/// A worker talking to the shard on its own node, and an endpoint talking to
/// itself, are delivered like any frame and never counted.
fn loopback_is_delivered_but_not_counted<T: Transport>((eps, counters): Fabric<T>) {
    eps[0].send(2, grad(1, 0, vec![3; 100])).unwrap();
    let env = eps[2].recv_timeout(PATIENCE).unwrap();
    assert_eq!((env.from, env.src), (0, 0), "colocated peer");
    eps[1].send(1, grad(2, 0, vec![4; 999])).unwrap();
    let env = eps[1].recv_timeout(PATIENCE).unwrap();
    assert_eq!((env.from, env.src), (1, 1), "self");
    assert_eq!(payload_of(env).len(), 999);
    assert_eq!(counters.total_bytes(), 0);
    assert_eq!(counters.per_node_totals(), vec![0, 0]);
    close(eps);
}

#[test]
fn loopback_is_delivered_but_not_counted_on_both() {
    loopback_is_delivered_but_not_counted(fabric_with_nodes(&[0, 1, 0, 1]));
    loopback_is_delivered_but_not_counted(tcp_mesh(&[0, 1, 0, 1]));
}

/// A frame between co-resident endpoints — a worker and the shard on its
/// node, or an endpoint and itself — arrives as the sender's own buffer:
/// nothing copied it on the way.
fn coresident_frame_is_the_senders_own_bytes<T: Transport>((eps, _): Fabric<T>) {
    for (from, to) in [(0, 2), (3, 1), (2, 2)] {
        let data = Bytes::from(vec![from as u8; 1 << 20]);
        let sent = data.as_ptr();
        eps[from]
            .send(
                to,
                Message::GradChunk {
                    iter: 1,
                    layer: 0,
                    chunk: 0,
                    codec: Codec::Identity,
                    data,
                },
            )
            .unwrap();
        let env = eps[to].recv_timeout(PATIENCE).unwrap();
        assert_eq!(env.src, from);
        assert_eq!(
            payload_ptr(&env.msg),
            sent,
            "{from} -> {to}: the payload was copied"
        );
    }
    close(eps);
}

fn payload_ptr(msg: &Message) -> *const u8 {
    match msg {
        Message::GradChunk { data, .. } => data.as_ptr(),
        other => panic!("expected a GradChunk, got {other:?}"),
    }
}

#[test]
fn coresident_frame_is_the_senders_own_bytes_on_both() {
    coresident_frame_is_the_senders_own_bytes(fabric_with_nodes(&[0, 1, 0, 1]));
    coresident_frame_is_the_senders_own_bytes(tcp_mesh(&[0, 1, 0, 1]));
}

/// Endpoint 2 is fed at once by its co-resident endpoint 0 and by endpoint 1
/// across nodes, each from its own thread, in sizes on both sides of the TCP
/// receiver's 8 KiB direct-read threshold: each sender's frames arrive in
/// its send order.
fn coresident_and_cross_node_frames_keep_per_pair_order<T: Transport>((eps, _): Fabric<T>) {
    const FRAMES: u64 = 300;
    let Ok([e0, e1, e2, e3]) = <[T; 4]>::try_from(eps) else {
        panic!("a four-endpoint fabric")
    };
    let (e0, e1) = std::thread::scope(|s| {
        let sending = |ep: T| {
            s.spawn(move || {
                for i in 0..FRAMES {
                    let len = (i % 7) as usize * 3000;
                    ep.send(2, grad(i, 0, vec![i as u8; len])).unwrap();
                }
                ep
            })
        };
        let (h0, h1) = (sending(e0), sending(e1));
        let mut next = [0u64; 2];
        for _ in 0..2 * FRAMES {
            let env = e2.recv_timeout(PATIENCE).unwrap();
            assert_eq!(env.msg.iter(), next[env.src], "reordered from {}", env.src);
            next[env.src] += 1;
        }
        (h0.join().expect("sender 0"), h1.join().expect("sender 1"))
    });
    close(vec![e0, e1, e2, e3]);
}

#[test]
fn coresident_and_cross_node_frames_keep_per_pair_order_on_both() {
    coresident_and_cross_node_frames_keep_per_pair_order(fabric_with_nodes(&[0, 1, 0, 1]));
    coresident_and_cross_node_frames_keep_per_pair_order(tcp_mesh(&[0, 1, 0, 1]));
}

/// Co-resident, self and cross-node frames from endpoints 5 and 6 of a
/// seven-endpoint fabric: returns the ledger and each `(sender, peer)`'s
/// `poseidon_tx_frames_total` delta. No other case in this binary has an
/// endpoint 5 or 6 to share those counters with.
fn mixed_plan_charges<T: Transport>((eps, counters): Fabric<T>) -> (TrafficSnapshot, Vec<u64>) {
    let tx_frames = || -> Vec<u64> {
        let snap = metrics::snapshot();
        let value = |from: usize, to: usize| {
            let (from, to) = (from.to_string(), to.to_string());
            snap.value(
                "poseidon_tx_frames_total",
                &[("endpoint", from.as_str()), ("peer", to.as_str())],
            )
            .unwrap_or(0)
        };
        (5..7)
            .flat_map(|from| (0..7).map(move |to| value(from, to)))
            .collect()
    };
    let before = tx_frames();
    let plan: Vec<(usize, usize)> = [1, 3, 5, 0, 6]
        .map(|to| (5, to))
        .into_iter()
        .chain([0, 2, 4, 6, 1, 5].map(|to| (6, to)))
        .collect();
    for (i, &(from, to)) in plan.iter().enumerate() {
        eps[from]
            .send(to, grad(i as u64, 0, vec![1; 997 * i + 5]))
            .unwrap();
    }
    for (to, ep) in eps.iter().enumerate() {
        for _ in plan.iter().filter(|&&(_, t)| t == to) {
            ep.recv_timeout(PATIENCE).unwrap();
        }
    }
    let after = tx_frames();
    let charged = (
        counters.snapshot(),
        (0..14).map(|i| after[i] - before[i]).collect(),
    );
    close(eps);
    charged
}

#[test]
fn coresident_frames_charge_what_the_inproc_fabric_charges() {
    let nodes = [0, 1, 0, 1, 0, 1, 0];
    let (inproc_ledger, inproc_frames) = mixed_plan_charges(fabric_with_nodes(&nodes));
    let (tcp_ledger, tcp_frames) = mixed_plan_charges(tcp_mesh(&nodes));
    assert_eq!(tcp_ledger, inproc_ledger, "traffic ledger");
    assert_eq!(tcp_frames, inproc_frames, "poseidon_tx_frames_total");
    assert_eq!(
        tcp_frames.iter().sum::<u64>(),
        11,
        "every send is one frame"
    );
    // Cross-node only: 5 -> 0, 5 -> 6, 6 -> 1 and 6 -> 5 (plan positions 3,
    // 4, 9 and 10).
    let cross: u64 = [3u64, 4, 9, 10].iter().map(|i| HDR + 997 * i + 5).sum();
    assert_eq!(tcp_ledger.total_bytes(), cross);
}

/// Severing the link to a co-resident peer, or to itself, succeeds and loses
/// nothing: the frames sent around the sever all arrive, in order.
fn sever_coresident_link_loses_nothing<T: Transport>(eps: &[T]) {
    for (from, to) in [(0, 2), (2, 2)] {
        eps[from].send(to, grad(0, 0, vec![0; 64])).unwrap();
        eps[from].sever_link(to).unwrap();
        for i in 1..4 {
            eps[from]
                .send(to, grad(i, 0, vec![i as u8; 20_000]))
                .unwrap();
        }
        for i in 0..4 {
            let env = eps[to].recv_timeout(PATIENCE).unwrap();
            assert_eq!((env.src, env.msg.iter()), (from, i), "{from} -> {to}");
        }
    }
}

#[test]
fn sever_coresident_link_loses_nothing_on_both() {
    let (eps, _) = fabric_with_nodes(&[0, 1, 0, 1]);
    sever_coresident_link_loses_nothing(&eps);
    close(eps);
    let (eps, _) = tcp_mesh(&[0, 1, 0, 1]);
    sever_coresident_link_loses_nothing(&eps);
    assert!(
        eps.iter().all(|ep| ep.reconnect_count() == 0),
        "no socket was severed"
    );
    close(eps);
}

/// 500 frames of mixed sizes sent while the receiver drains concurrently
/// arrive in send order, and the ledger holds their exact sum.
fn frames_keep_per_pair_order_under_load<T: Transport>((mut eps, counters): Fabric<T>) {
    const FRAMES: u64 = 500;
    let receiver = eps.pop().expect("endpoint 1");
    let sender = eps.pop().expect("endpoint 0");
    let sender = std::thread::scope(|s| {
        let sending = s.spawn(move || {
            for i in 0..FRAMES {
                sender
                    .send(1, grad(i, 0, vec![i as u8; (i % 97) as usize]))
                    .unwrap();
            }
            sender
        });
        for i in 0..FRAMES {
            let env = receiver.recv_timeout(PATIENCE).unwrap();
            assert_eq!(env.msg.iter(), i, "reordered frame");
        }
        sending.join().expect("sender thread")
    });
    let payloads: u64 = (0..FRAMES).map(|i| i % 97).sum();
    assert_eq!(counters.total_bytes(), FRAMES * HDR + payloads);
    close(vec![sender, receiver]);
}

#[test]
fn frames_keep_per_pair_order_under_load_on_both() {
    frames_keep_per_pair_order_under_load(fabric_with_nodes(&[0, 1]));
    frames_keep_per_pair_order_under_load(tcp_mesh(&[0, 1]));
}

/// Payloads past the TCP transport's 8 KiB direct-read threshold — 200 kB
/// spans many staging refills, 2 MiB is the benchmark's frame size — arrive
/// byte-for-byte, in order, behind a small frame.
fn large_payloads_arrive_intact<T: Transport>((eps, counters): Fabric<T>) {
    let pattern = |len: usize| -> Vec<u8> { (0..len).map(|i| (i % 251) as u8).collect() };
    let sizes = [5usize, 200_000, 2 << 20];
    for (i, &len) in sizes.iter().enumerate() {
        eps[0].send(1, grad(i as u64, 0, pattern(len))).unwrap();
    }
    for (i, &len) in sizes.iter().enumerate() {
        let env = eps[1].recv_timeout(PATIENCE).unwrap();
        assert_eq!(env.msg.iter(), i as u64);
        let data = payload_of(env);
        assert_eq!(data.len(), len);
        assert!(data == pattern(len), "{len}-byte payload corrupted");
    }
    let total: usize = sizes.iter().sum();
    assert_eq!(counters.total_bytes(), 3 * HDR + total as u64);
    close(eps);
}

#[test]
fn large_payloads_arrive_intact_on_both() {
    large_payloads_arrive_intact(fabric_with_nodes(&[0, 1]));
    large_payloads_arrive_intact(tcp_mesh(&[0, 1]));
}

/// A receiver at epoch 1 drops and counts a data frame stamped epoch 0, and
/// delivers a control frame from that same stale sender and a data frame from
/// a sender already at epoch 2. Per-pair order makes the drop observable: the
/// stale frame was sent first, so it would have surfaced first.
fn fence_drops_stale_data_passes_control_and_future<T: Transport>((eps, counters): Fabric<T>) {
    eps[1].set_epoch(1);
    assert_eq!(
        (eps[0].current_epoch(), eps[1].current_epoch()),
        (0, 1),
        "epochs are per endpoint"
    );
    let dropped_before = stale_epoch_frames();
    eps[0].send(1, grad(1, 0, vec![9; 4])).unwrap();
    eps[0].send(1, Message::Ack { upto: 5 }).unwrap();
    eps[0].set_epoch(2);
    eps[0].send(1, grad(2, 0, vec![9; 4])).unwrap();

    let env = eps[1].recv_timeout(PATIENCE).unwrap();
    assert_eq!(
        env.msg,
        Message::Ack { upto: 5 },
        "control frames are exempt"
    );
    assert_eq!(env.epoch, 0, "the envelope carries the sender's epoch");
    let env = eps[1].recv_timeout(PATIENCE).unwrap();
    assert_eq!((env.msg.iter(), env.epoch), (2, 2), "future epoch passes");
    assert!(
        eps[1].try_recv().unwrap().is_none(),
        "nothing else surfaced"
    );
    // Other tests in this binary drop frames too: a lower bound.
    assert!(
        stale_epoch_frames() > dropped_before,
        "the drop must be counted"
    );
    // The fenced frame still crossed the network and was charged for it.
    assert_eq!(counters.tx_bytes(0), 3 * HDR + 8);
    close(eps);
}

#[test]
fn fence_drops_stale_data_passes_control_and_future_on_both() {
    fence_drops_stale_data_passes_control_and_future(fabric_with_nodes(&[0, 1]));
    fence_drops_stale_data_passes_control_and_future(tcp_mesh(&[0, 1]));
}

/// `recv_timeout` has one budget however many frames the fence drops inside
/// it: a straggler feeding a stale frame every 5 ms — faster than the 40 ms
/// budget, for far longer than it — cannot keep the verdict from firing.
fn stale_trickle_cannot_postpone_the_timeout<T: Transport>((mut eps, _): Fabric<T>) {
    const BUDGET: Duration = Duration::from_millis(40);
    const TRICKLE: Duration = Duration::from_secs(2);
    let receiver = eps.pop().expect("endpoint 1");
    let straggler = eps.pop().expect("endpoint 0");
    receiver.set_epoch(1);
    let dropped_before = stale_epoch_frames();
    let stop = AtomicBool::new(false);
    let (elapsed, straggler) = std::thread::scope(|s| {
        let stop = &stop;
        let trickling = s.spawn(move || {
            let until = Instant::now() + TRICKLE;
            while !stop.load(Ordering::SeqCst) && Instant::now() < until {
                straggler.send(1, grad(0, 0, vec![0; 8])).unwrap();
                std::thread::sleep(Duration::from_millis(5));
            }
            straggler
        });
        // Let the trickle establish itself before the clock starts.
        while stale_epoch_frames() == dropped_before {
            assert!(receiver.try_recv().unwrap().is_none());
            std::thread::yield_now();
        }
        let started = Instant::now();
        let err = receiver.recv_timeout(BUDGET).unwrap_err();
        let elapsed = started.elapsed();
        stop.store(true, Ordering::SeqCst);
        assert_eq!(expect_timeout(err).waited, BUDGET);
        (elapsed, trickling.join().expect("straggler thread"))
    });
    assert!(elapsed >= BUDGET, "returned early: {elapsed:?}");
    // Nominally the budget plus one trickle period; the bound only has to
    // separate that from "whenever the trickle stops", on a noisy host.
    assert!(
        elapsed < TRICKLE / 4,
        "a {BUDGET:?} budget took {elapsed:?} under a stale trickle"
    );
    assert!(stale_epoch_frames() > dropped_before + 1);
    close(vec![straggler, receiver]);
}

#[test]
fn stale_trickle_cannot_postpone_the_timeout_on_both() {
    stale_trickle_cannot_postpone_the_timeout(fabric_with_nodes(&[0, 1]));
    stale_trickle_cannot_postpone_the_timeout(tcp_mesh(&[0, 1]));
}

/// A timeout says who timed out, for how long, and what the last frame seen
/// was — or that there never was one.
fn timeout_diag_names_the_last_frame_seen<T: Transport>((eps, _): Fabric<T>) {
    let budget = Duration::from_millis(20);
    let diag = expect_timeout(eps[0].recv_timeout(budget).unwrap_err());
    assert_eq!((diag.endpoint, diag.waited), (0, budget));
    assert!(diag.last_frame.is_none(), "nothing was ever received");

    eps[1].send(0, grad(9, 4, vec![0; 8])).unwrap();
    eps[0].recv_timeout(PATIENCE).unwrap();
    let diag = expect_timeout(eps[0].recv_timeout(budget).unwrap_err());
    let last = diag
        .last_frame
        .clone()
        .expect("a frame was received before");
    assert_eq!(
        (last.from_node, last.tag, last.iter, last.layer),
        (1, "GradChunk", 9, 4)
    );
    assert!(last.since >= budget, "the frame predates the wait");
    let text = TransportError::Timeout(diag).to_string();
    assert!(text.contains("GradChunk iter 9 layer 4"), "{text}");
    close(eps);
}

#[test]
fn timeout_diag_names_the_last_frame_seen_on_both() {
    timeout_diag_names_the_last_frame_seen(fabric_with_nodes(&[0, 1]));
    timeout_diag_names_the_last_frame_seen(tcp_mesh(&[0, 1]));
}

/// `try_recv` never waits: `None` on an empty inbox, the frame once it has
/// arrived, `None` again after.
fn try_recv_is_nonblocking<T: Transport>((eps, _): Fabric<T>) {
    assert!(eps[0].try_recv().unwrap().is_none());
    eps[1].send(0, grad(1, 0, vec![1])).unwrap();
    let deadline = Instant::now() + PATIENCE;
    let env = loop {
        match eps[0].try_recv().unwrap() {
            Some(env) => break env,
            None => assert!(Instant::now() < deadline, "frame never arrived"),
        }
        std::thread::yield_now();
    };
    assert_eq!(env.from, 1);
    assert!(eps[0].try_recv().unwrap().is_none());
    close(eps);
}

#[test]
fn try_recv_is_nonblocking_on_both() {
    try_recv_is_nonblocking(fabric_with_nodes(&[0, 1]));
    try_recv_is_nonblocking(tcp_mesh(&[0, 1]));
}

/// `shutdown` is idempotent; afterwards every send — to a peer or to self —
/// is refused with `Closed`, and a refused send is not accounted: neither the
/// ledger nor the endpoint's tx counters move.
///
/// The registry is process-wide and keyed by (endpoint, peer), so this case
/// sends from endpoint 4 of a five-endpoint fabric: no other case in this
/// binary has an endpoint 4 to share those counters with.
fn send_after_shutdown_is_closed_and_uncounted<T: Transport>((mut eps, counters): Fabric<T>) {
    let tx_frames = |peer: &str| {
        metrics::snapshot()
            .value(
                "poseidon_tx_frames_total",
                &[("endpoint", "4"), ("peer", peer)],
            )
            .unwrap_or(0)
    };
    eps[4].send(3, grad(1, 0, vec![1; 16])).unwrap();
    eps[3].recv_timeout(PATIENCE).unwrap();
    let before = (tx_frames("3"), tx_frames("4"), counters.total_bytes());
    assert_eq!(before.2, HDR + 16);

    eps[4].shutdown().unwrap();
    eps[4].shutdown().unwrap();
    for to in [3, 4] {
        assert_eq!(
            eps[4].send(to, grad(2, 0, vec![2; 16])),
            Err(TransportError::Closed),
            "send to endpoint {to} after shutdown"
        );
    }
    assert_eq!(
        (tx_frames("3"), tx_frames("4"), counters.total_bytes()),
        before,
        "a refused send must not be counted"
    );
    close(eps);
}

#[test]
fn send_after_shutdown_is_closed_and_uncounted_on_both() {
    // One after the other: both fabrics share the endpoint-4 counters.
    send_after_shutdown_is_closed_and_uncounted(fabric_with_nodes(&[0, 1, 2, 3, 4]));
    send_after_shutdown_is_closed_and_uncounted(tcp_mesh(&[0, 1, 2, 3, 4]));
}
