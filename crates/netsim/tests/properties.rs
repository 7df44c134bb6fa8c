//! Property-based tests for the discrete-event simulator.

use poseidon_netsim::{EventQueue, LinkConfig, Network, NodeId, Resource};
use poseidon_testkit::cases;

/// Popping events always yields non-decreasing timestamps.
#[test]
fn event_queue_pops_monotonically() {
    cases(256, |g| {
        let times = g.vec(1..200, |g| g.range(0.0f64..1e6));
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(t, i);
        }
        let mut last = f64::NEG_INFINITY;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
        }
    });
}

/// Two identical schedules produce identical pop sequences (determinism).
#[test]
fn event_queue_is_deterministic() {
    cases(256, |g| {
        let times = g.vec(1..100, |g| g.range(0.0f64..100.0));
        let run = |times: &[f64]| {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule_at(t, i);
            }
            let mut out = Vec::new();
            while let Some(ev) = q.pop() {
                out.push(ev);
            }
            out
        };
        assert_eq!(run(&times), run(&times));
    });
}

/// A serial resource's total busy time equals the sum of durations, job
/// intervals never overlap, and finish times never decrease in reservation
/// order, exactly, whatever the ready times (the simulator's CPU streams
/// lean on this the way its NICs lean on the rx-queue property below).
#[test]
fn resource_conserves_time() {
    cases(256, |g| {
        let jobs = g.vec(1..100, |g| (g.range(0.0f64..100.0), g.range(0.0f64..10.0)));
        let mut r = Resource::new();
        let mut total = 0.0;
        let mut last_finish = f64::NEG_INFINITY;
        for &(ready, dur) in &jobs {
            let (start, finish) = r.reserve(ready, dur);
            assert!(start >= ready);
            assert!(start >= last_finish - 1e-12, "jobs must not overlap");
            assert!(
                finish >= last_finish,
                "{finish} finishes before {last_finish}"
            );
            assert!((finish - start - dur).abs() < 1e-9);
            last_finish = finish;
            total += dur;
        }
        assert!((r.total_busy() - total).abs() < 1e-6);
    });
}

/// Per-NIC throughput can never exceed the configured bandwidth: the
/// completion time of all transfers out of one node is at least
/// total_bytes / bandwidth.
#[test]
fn nic_bandwidth_is_respected() {
    cases(256, |g| {
        let sizes = g.vec(1..40, |g| g.range(1u64..50_000_000));
        let gbps = g.range(1.0f64..40.0);
        let mut net = Network::new(
            2,
            LinkConfig {
                bandwidth_gbps: gbps,
                latency_s: 0.0,
            },
        );
        let mut last_done = 0.0f64;
        let mut total_bytes = 0u64;
        for &s in &sizes {
            last_done = last_done.max(net.transfer(0.0, NodeId(0), NodeId(1), s));
            total_bytes += s;
        }
        let min_time = (total_bytes as f64 * 8.0) / (gbps * 1e9);
        assert!(
            last_done >= min_time - 1e-9,
            "finished in {last_done} but wire minimum is {min_time}"
        );
        // FIFO with no gaps: should also finish exactly at the wire minimum.
        assert!((last_done - min_time).abs() <= 1e-9);
    });
}

/// Ledger totals: sum of tx == sum of rx == total.
#[test]
fn ledger_is_conservative() {
    cases(256, |g| {
        let transfers = g.vec(1..60, |g| {
            (
                g.range(0usize..4),
                g.range(0usize..4),
                g.range(1u64..1_000_000),
            )
        });
        let mut net = Network::new(4, LinkConfig::gbe(10.0));
        let mut expect_total = 0u64;
        for &(src, dst, bytes) in &transfers {
            net.transfer(0.0, NodeId(src), NodeId(dst), bytes);
            if src != dst {
                expect_total += bytes;
            }
        }
        let l = net.ledger();
        let tx_sum: u64 = (0..4).map(|n| l.tx_bytes(n)).sum();
        let rx_sum: u64 = (0..4).map(|n| l.rx_bytes(n)).sum();
        assert_eq!(tx_sum, expect_total);
        assert_eq!(rx_sum, expect_total);
        assert_eq!(l.total_bytes(), expect_total);
    });
}

/// Max-min fairness conservation: in the fluid-flow model, every flow
/// completes, total ledger bytes equal the sum of flow sizes, and the
/// makespan is at least the busiest NIC's bytes / capacity.
#[test]
fn flow_network_conserves_bytes_and_respects_capacity() {
    use poseidon_netsim::FlowNetwork;
    cases(256, |g| {
        let flows = g.vec(1..20, |g| {
            (
                g.range(0usize..4),
                g.range(0usize..4),
                g.range(1u64..200_000_000),
                g.range(0.0f64..0.5),
            )
        });
        let gbps = g.range(1.0f64..40.0);
        let mut net: FlowNetwork<usize> = FlowNetwork::new(4, gbps);
        let mut tx = [0u64; 4];
        let mut rx = [0u64; 4];
        let mut expect_total = 0u64;
        let mut n_real = 0usize;
        for (i, &(src, dst, bytes, start)) in flows.iter().enumerate() {
            net.add_flow(start, src, dst, bytes, i);
            if src != dst {
                tx[src] += bytes;
                rx[dst] += bytes;
                expect_total += bytes;
                n_real += 1;
            }
        }
        let mut completed = 0usize;
        let mut makespan = 0.0f64;
        while let Some(t) = net.next_event_time() {
            let done = net.advance(t);
            completed += done.len();
            if !done.is_empty() {
                makespan = makespan.max(t);
            }
        }
        assert_eq!(completed, flows.len(), "every flow must complete");
        assert_eq!(net.ledger().total_bytes(), expect_total);
        if n_real > 0 {
            let capacity = gbps * 1e9 / 8.0;
            let busiest = tx.iter().chain(rx.iter()).cloned().max().unwrap() as f64;
            assert!(
                makespan + 1e-9 >= busiest / capacity,
                "makespan {makespan} beats the {busiest}-byte NIC at {capacity} B/s"
            );
        }
    });
}

/// Later ready times never make a transfer finish earlier.
#[test]
fn transfer_completion_is_monotone_in_ready_time() {
    cases(256, |g| {
        let bytes = g.range(1u64..100_000_000);
        let r1 = g.range(0.0f64..10.0);
        let dr = g.range(0.0f64..10.0);
        let cfg = LinkConfig::gbe(10.0);
        let mut a = Network::new(2, cfg);
        let mut b = Network::new(2, cfg);
        let d1 = a.transfer(r1, NodeId(0), NodeId(1), bytes);
        let d2 = b.transfer(r1 + dr, NodeId(0), NodeId(1), bytes);
        assert!(d2 >= d1 - 1e-12);
    });
}

/// The premise on which the cluster simulator queues only the arrivals that
/// can complete a count: over any sequence of transfers, with ready times
/// in any order, the remote transfers into one node complete in call order
/// (never earlier than the one before them), exactly, with no tolerance. A
/// loopback completes at its ready time and is invisible to everything
/// else: a twin network that never sees it returns the same completions
/// and keeps the same ledger.
#[test]
fn remote_completions_into_a_node_never_decrease_and_loopbacks_are_free() {
    cases(256, |g| {
        let nodes = g.size(1..6);
        let cfg = LinkConfig {
            bandwidth_gbps: g.range(1.0f64..40.0),
            latency_s: g.range(0.0f64..1e-3),
        };
        let calls = g.vec(1..150, |g| {
            (
                g.range(0.0f64..0.1),
                g.range(0..nodes),
                g.range(0..nodes),
                g.range(0u64..20_000_000),
            )
        });
        let mut net = Network::new(nodes, cfg);
        let mut twin = Network::new(nodes, cfg);
        let mut last_into = vec![0.0f64; nodes];
        for &(ready, src, dst, bytes) in &calls {
            let done = net.transfer(ready, NodeId(src), NodeId(dst), bytes);
            if src == dst {
                assert_eq!(done.to_bits(), ready.to_bits(), "loopback at {ready}");
                continue;
            }
            let twin_done = twin.transfer(ready, NodeId(src), NodeId(dst), bytes);
            assert_eq!(
                done.to_bits(),
                twin_done.to_bits(),
                "a loopback moved a NIC"
            );
            assert!(
                done >= last_into[dst],
                "into node {dst}: {done} completes before {}",
                last_into[dst]
            );
            last_into[dst] = done;
        }
        for n in 0..nodes {
            assert_eq!(net.ledger().tx_bytes(n), twin.ledger().tx_bytes(n));
            assert_eq!(net.ledger().rx_bytes(n), twin.ledger().rx_bytes(n));
        }
    });
}
