//! The KV-store shard's loop. What a shard does with each pair it holds is
//! [`ShardServer`]'s business; this loop never names a scheme. It routes
//! frames, counts them against the owned pairs, stashes early ones, moves
//! pairs at membership boundaries and assembles the checkpoint. Like the
//! worker, it runs unchanged over any [`Transport`].
//!
//! One loop serves every run, segmented by membership epoch: a run with
//! fixed membership, fresh or resumed from a checkpoint, is
//! one segment in which every owned pair takes exactly `P` gradient messages
//! per iteration. A non-trivial
//! [`MembershipSchedule`](crate::membership::MembershipSchedule) cuts the run at each
//! boundary. There the shard first bumps its transport epoch (so every frame
//! it emits from then on carries the new epoch), then streams the KV pairs
//! it no longer owns to their new owners as [`Message::Handoff`] frames —
//! params, optimizer velocity, and the reply-compressor residual, so the
//! lossy byte stream continues bitwise — and blocks until every pair it
//! newly owns has arrived, stashing any early gradient pushes from fast
//! workers. BSP quiescence makes the boundary deterministic: a worker only
//! reaches the boundary iteration after every shard folded the previous one,
//! so no pre-boundary frame can chase a handed-off pair.

use super::{note_poisoned_frame, route, NodeOutcome, RunPlan};
use crate::checkpoint::ShardCheckpoint;
use crate::kvstore::{KvKey, ShardServer};
use crate::metrics;
use crate::syncer;
use crate::telemetry;
use crate::transport::{Envelope, Message, Transport, TransportError};
use poseidon_nn::Model;
use std::collections::VecDeque;
use std::time::Instant;

/// Runs one shard to completion. Its initial master values are `net`'s
/// parameters, unless `restore` carries the pairs it owns instead.
pub(crate) fn run_server<M: Model, T: Transport>(
    run: &RunPlan<'_>,
    net: M,
    restore: Option<ShardCheckpoint>,
    mut endpoint: T,
) -> NodeOutcome<M> {
    let (cfg, sched) = (run.cfg, &*run.schedule);
    let me = endpoint.endpoint_id() - cfg.workers;
    telemetry::set_thread_track(format!("shard e{}", endpoint.endpoint_id()));
    let m_handoff = metrics::counter("poseidon_handoff_pairs_total", &[]);
    let shard_label = endpoint.endpoint_id().to_string();
    let m_serve = metrics::histogram("poseidon_serve_ns", &[("shard", &shard_label)]);
    let mut kv = ShardServer::new(&run.coordinator, me, &run.schedule, cfg.momentum);

    let (start, end) = (cfg.start_iter, cfg.start_iter + cfg.iterations);
    let mut epoch = sched.epoch_at(start);
    endpoint.set_epoch(epoch);
    if let Some(ck) = restore {
        assert_eq!(
            ck.next_iter, start as u64,
            "checkpoint resumes at a different iteration than this segment starts"
        );
        let mut restored: Vec<KvKey> = ck.pairs.iter().map(|pair| pair.key).collect();
        restored.sort_unstable();
        assert_eq!(
            restored,
            kv.owned(epoch),
            "checkpoint pair set does not match the pairs owned at the resume epoch"
        );
        for pair in ck.pairs {
            kv.install(pair)
                .expect("a checkpointed pair fits its table entry");
        }
    } else {
        assert_eq!(
            start, 0,
            "a mid-run segment (start_iter > 0) must restore from a checkpoint"
        );
        kv.init(epoch, |layer| {
            let params = net.slot(layer).and_then(|l| l.params());
            syncer::flatten_params(params.expect("trainable layer"))
        });
    }
    // The masters hold their own copies now.
    drop(net);

    // Gradient frames that raced ahead of a handoff install: replayed before
    // reading fresh envelopes in the next segment.
    let mut stash: VecDeque<Envelope> = VecDeque::new();
    let mut it = start;
    while it < end {
        // Serve until the next membership boundary (or the end of the run):
        // every owned pair takes `P` gradient messages per iteration. Control
        // frames (a peer acking over a bare transport) don't count against
        // the budget, and neither do poisoned frames — counted separately
        // and dropped.
        let seg_end = if (epoch as usize) + 1 < sched.epochs() {
            sched.epoch_start(epoch + 1).min(end)
        } else {
            end
        };
        let expected = kv.owned(epoch).len() * cfg.workers * (seg_end - it);
        let mut served = 0usize;
        while served < expected {
            let env = match stash.pop_front() {
                Some(env) => env,
                None => must_recv(&endpoint, cfg.comm_timeout, served, expected),
            };
            if env.msg.is_control() {
                continue;
            }
            let (from, what, iter) = (env.from, env.msg.tag_name(), env.msg.iter());
            let _serve_span = telemetry::span("serve.apply", env.msg.layer() as u64, iter);
            let serve_started = Instant::now();
            // Per-iteration learning-rate schedule: messages carry their
            // round, so the scale for this update is exact.
            let emit = |to, msg| route(run, &endpoint, epoch, to, msg);
            match kv.serve(from, env.msg, run.scale_at(iter as usize), emit) {
                Ok(()) => {
                    m_serve.record(serve_started.elapsed().as_nanos() as u64);
                    served += 1;
                }
                Err(e) => note_poisoned_frame(endpoint.endpoint_id(), from, what, &e),
            }
        }
        it = seg_end;
        if it >= end {
            break;
        }

        // Membership boundary. Bump the epoch *first* so every frame sent
        // from here on (handoffs included) carries the new epoch, then
        // stream out the pairs this shard no longer owns and block for the
        // ones it just acquired.
        while epoch < sched.epoch_at(it) {
            let next = epoch + 1;
            endpoint.set_epoch(next);
            for (home, _) in sched.handoffs_out(me, next) {
                kv.hand_off(home, it as u64, |to, msg| {
                    m_handoff.inc();
                    route(run, &endpoint, next, to, msg)
                });
            }
            let expect_in: usize = sched
                .handoffs_in(me, next)
                .iter()
                .map(|&(home, _)| kv.home_keys(home).len())
                .sum();
            let mut got = 0usize;
            while got < expect_in {
                let env = must_recv(&endpoint, cfg.comm_timeout, got, expect_in);
                if env.msg.is_control() {
                    continue;
                }
                // A fast worker already pushed a gradient for a pair still
                // being installed — hold it for the next segment.
                if !matches!(env.msg, Message::Handoff { .. }) {
                    stash.push_back(env);
                    continue;
                }
                assert_eq!(
                    env.msg.iter(),
                    it as u64,
                    "handoff stamped with the wrong boundary"
                );
                match kv.take_over(env.msg) {
                    Ok(()) => {
                        got += 1;
                        m_handoff.inc();
                    }
                    Err(e) => note_poisoned_frame(endpoint.endpoint_id(), env.from, "Handoff", &e),
                }
            }
            epoch = next;
        }
    }

    let checkpoint = cfg.export_state.then(|| ShardCheckpoint {
        shard: me as u32,
        next_iter: end as u64,
        epoch,
        pairs: kv
            .owned(epoch)
            .into_iter()
            .map(|key| kv.export(key))
            .collect(),
    });

    endpoint.shutdown().unwrap_or_else(|e| {
        panic!("shard transport shutdown failed: {e}");
    });
    NodeOutcome::Server {
        checkpoint,
        chaos: None,
    }
}

/// Receives one envelope or panics with enough context to triage a starve.
fn must_recv<T: Transport>(
    endpoint: &T,
    timeout: std::time::Duration,
    done: usize,
    expected: usize,
) -> Envelope {
    match endpoint.recv_timeout(timeout) {
        Ok(env) => env,
        Err(e @ (TransportError::Timeout(_) | TransportError::Closed)) => panic!(
            "shard endpoint {} starved after {done}/{expected} messages — a worker died \
             or stalled: {e}",
            endpoint.endpoint_id()
        ),
        Err(e) => panic!(
            "shard endpoint {} transport failed: {e}",
            endpoint.endpoint_id()
        ),
    }
}
