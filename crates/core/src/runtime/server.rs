//! The KV-store shard.
//!
//! Each shard owns a [`ShardState`] holding the master copy of its KV pairs
//! (plus any layer-granular masters for the Adam path), consumes gradient
//! messages from workers, and broadcasts fresh parameters when a pair's
//! update count reaches the number of workers (BSP). Like the worker, the
//! shard is written against the [`Transport`] trait and runs unchanged over
//! in-process channels or TCP.
//!
//! Gradient compression rides the codec plane: every gradient frame carries
//! its codec in the header, the shard folds whatever arrives straight from
//! the frame's bytes (so mixed-codec meshes interoperate and no payload is
//! decoded to a vector), and a lossy chunk replies with the compressed
//! *velocity delta* instead of fresh parameters — double error feedback,
//! CNTK-style, with the master advanced by the decoded bytes the workers
//! will apply so replicas and master stay bitwise consistent. A reply is
//! encoded once into one pooled buffer that all `P` workers share.
//!
//! One loop serves every run, segmented by membership epoch: a run with
//! fixed membership — BSP or SSP, fresh or resumed from a checkpoint — is
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

use super::{NodeOutcome, RunPlan};
use crate::checkpoint::{self, PairState, ShardCheckpoint};
use crate::chunk::Chunk;
use crate::kvstore::{KvKey, ShardState, Staged};
use crate::metrics::Histogram;
use crate::syncer;
use crate::telemetry;
use crate::transport::{Envelope, Message, Transport, TransportError};
use crate::wire::{self, Codec, LAYER_GRANULAR_CHUNK};
use poseidon_nn::Model;
use poseidon_tensor::compress::{make_compressor, Compressor};
use std::collections::{HashMap, VecDeque};

/// What one shard serves, fixed at plan time.
#[derive(Default)]
pub(crate) struct ServerPlan {
    /// The ownership universe: `(within-layer chunk index, chunk, reply
    /// codec)` of every PS pair this shard may hold — its home pairs under a
    /// trivial membership schedule, every pair of the mesh under an elastic
    /// one. Which of them it owns is the schedule's call, epoch by epoch.
    pub chunks: Vec<(u32, Chunk, Codec)>,
    /// Layers this shard syncs whole (the Adam SF-push / matrix-pull
    /// baseline; fixed membership only).
    pub layer_granular: Vec<usize>,
}

/// The key of a PS pair.
fn pair_key(idx: u32, chunk: &Chunk) -> KvKey {
    (chunk.layer as u32, idx)
}

/// A shard's live state: its master pairs and what serving them takes.
struct Shard<'a> {
    run: &'a RunPlan<'a>,
    state: ShardState,
    /// Per-chunk serving metadata: element count and the codec this shard
    /// replies with. Folding always follows the *frame's* codec.
    chunk_info: HashMap<KvKey, (usize, Codec)>,
    /// Per-chunk aggregate compressors (error feedback on the reply path);
    /// created lazily, only lossy chunks ever allocate one.
    reply_comp: HashMap<KvKey, Box<dyn Compressor>>,
    /// Serve latency, resolved once so the loop records registry-free.
    m_serve: Histogram,
}

/// Sends or panics with enough context to name the broken link.
fn must_send<T: Transport>(endpoint: &T, to: usize, msg: Message) {
    if let Err(e) = endpoint.send(to, msg) {
        panic!(
            "shard endpoint {}: send to endpoint {to} failed: {e}",
            endpoint.endpoint_id()
        );
    }
}

/// Runs one shard to completion. Its initial master values are `net`'s
/// parameters, unless `restore` carries the pairs it owns instead.
pub(crate) fn run_server<M: Model, T: Transport>(
    run: &RunPlan<'_>,
    net: M,
    restore: Option<ShardCheckpoint>,
    mut endpoint: T,
) -> NodeOutcome<M> {
    let cfg = run.cfg;
    let me = endpoint.endpoint_id() - cfg.workers;
    let (plan, sched) = (&run.plans[me], &*run.schedule);
    telemetry::set_thread_track(format!("shard e{}", endpoint.endpoint_id()));
    let m_handoff = crate::metrics::counter("poseidon_handoff_pairs_total", &[]);
    let shard_label = endpoint.endpoint_id().to_string();
    let mut shard = Shard {
        run,
        state: ShardState::with_momentum(cfg.workers, run.update_scale, cfg.momentum),
        chunk_info: plan
            .chunks
            .iter()
            .map(|(idx, chunk, codec)| (pair_key(*idx, chunk), (chunk.len, *codec)))
            .collect(),
        reply_comp: HashMap::new(),
        m_serve: crate::metrics::histogram("poseidon_serve_ns", &[("shard", &shard_label)]),
    };
    // Keys grouped by home shard, in deterministic (sorted) order — the order
    // handoff frames are emitted in.
    let mut home_keys: HashMap<usize, Vec<KvKey>> = HashMap::new();
    for (idx, chunk, _) in &plan.chunks {
        home_keys
            .entry(chunk.shard)
            .or_default()
            .push(pair_key(*idx, chunk));
    }
    for keys in home_keys.values_mut() {
        keys.sort_unstable();
    }
    // The PS pairs of the universe this shard owns at an epoch.
    let owned = |epoch: u32| {
        plan.chunks
            .iter()
            .filter(move |(_, chunk, _)| sched.owner(chunk.shard, epoch) == me)
    };
    let lg_keys = plan
        .layer_granular
        .iter()
        .map(|&l| (l as u32, LAYER_GRANULAR_CHUNK));

    let (start, end) = (cfg.start_iter, cfg.start_iter + cfg.iterations);
    let mut epoch = sched.epoch_at(start);
    endpoint.set_epoch(epoch);
    if let Some(ck) = restore {
        assert_eq!(
            ck.next_iter, start as u64,
            "checkpoint resumes at a different iteration than this segment starts"
        );
        let mut restored: Vec<KvKey> = ck.pairs.iter().map(|pair| pair.key).collect();
        let mut expected: Vec<KvKey> = owned(epoch)
            .map(|(idx, chunk, _)| pair_key(*idx, chunk))
            .chain(lg_keys)
            .collect();
        restored.sort_unstable();
        expected.sort_unstable();
        assert_eq!(
            restored, expected,
            "checkpoint pair set does not match the pairs owned at the resume epoch"
        );
        for pair in ck.pairs {
            shard.install(pair);
        }
    } else {
        assert_eq!(
            start, 0,
            "a mid-run segment (start_iter > 0) must restore from a checkpoint"
        );
        let params = |layer: usize| {
            syncer::flatten_params(
                net.slot(layer)
                    .and_then(|l| l.params())
                    .expect("trainable layer"),
            )
        };
        for (idx, chunk, _) in owned(epoch) {
            let init = params(chunk.layer)[chunk.range()].to_vec();
            shard.state.init_pair(pair_key(*idx, chunk), init);
        }
        for (&layer, key) in plan.layer_granular.iter().zip(lg_keys) {
            shard.state.init_pair(key, params(layer));
        }
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
        let pairs = owned(epoch).count() + plan.layer_granular.len();
        let expected = pairs * cfg.workers * (seg_end - it);
        let mut served = 0usize;
        while served < expected {
            let env = match stash.pop_front() {
                Some(env) => env,
                None => must_recv(&endpoint, cfg.comm_timeout, served, expected),
            };
            if !env.msg.is_control() && shard.serve(&endpoint, env) {
                served += 1;
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
            for (home, new_owner) in sched.handoffs_out(me, next) {
                for &key in home_keys.get(&home).map(|v| v.as_slice()).unwrap_or(&[]) {
                    let pair = shard.pair_state(key);
                    must_send(
                        &endpoint,
                        cfg.workers + new_owner,
                        Message::Handoff {
                            iter: it as u64,
                            layer: key.0,
                            chunk: key.1,
                            data: checkpoint::encode_pair_state(
                                &pair.params,
                                &pair.velocity,
                                &pair.residual,
                            ),
                        },
                    );
                    shard.state.remove_pair(key);
                    shard.reply_comp.remove(&key);
                    m_handoff.inc();
                }
            }
            let expect_in: usize = sched
                .handoffs_in(me, next)
                .iter()
                .map(|(home, _)| home_keys.get(home).map(|v| v.len()).unwrap_or(0))
                .sum();
            let mut got = 0usize;
            while got < expect_in {
                let env = must_recv(&endpoint, cfg.comm_timeout, got, expect_in);
                if env.msg.is_control() {
                    continue;
                }
                match env.msg {
                    Message::Handoff {
                        iter,
                        layer,
                        chunk,
                        data,
                    } => {
                        assert_eq!(iter, it as u64, "handoff stamped with the wrong boundary");
                        let (params, velocity, residual) =
                            checkpoint::decode_pair_state(&data).expect("corrupt handoff payload");
                        shard.install(PairState {
                            key: (layer, chunk),
                            params,
                            velocity,
                            residual,
                        });
                        got += 1;
                        m_handoff.inc();
                    }
                    // A fast worker already pushed a gradient for the pair we
                    // are still installing — hold it for the next segment.
                    _ => stash.push_back(env),
                }
            }
            epoch = next;
        }
    }

    let checkpoint = cfg.export_state.then(|| ShardCheckpoint {
        shard: me as u32,
        next_iter: end as u64,
        epoch,
        pairs: shard
            .state
            .sorted_keys()
            .into_iter()
            .map(|key| shard.pair_state(key))
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

impl Shard<'_> {
    /// One pair's full state — master, optimizer velocity and reply-codec
    /// residual — for a handoff or a checkpoint.
    fn pair_state(&self, key: KvKey) -> PairState {
        let (params, velocity) = self
            .state
            .export_pair(key)
            .expect("a pair this shard holds");
        let residual = self
            .reply_comp
            .get(&key)
            .map(|c| c.residual())
            .unwrap_or_default();
        PairState {
            key,
            params,
            velocity,
            residual,
        }
    }

    /// Installs one pair's [`Self::pair_state`], recreating the lossy reply
    /// compressor so the byte stream continues exactly where the previous
    /// owner left it.
    fn install(&mut self, pair: PairState) {
        self.state
            .install_pair(pair.key, pair.params, pair.velocity);
        if !pair.residual.is_empty() {
            let &(elems, codec) = self
                .chunk_info
                .get(&pair.key)
                .expect("installed pair missing from the chunk table");
            let mut comp = make_compressor(codec, elems);
            comp.set_residual(&pair.residual);
            self.reply_comp.insert(pair.key, comp);
        }
    }

    /// Applies one non-control envelope. Returns `false` when the frame was
    /// poisoned (dropped and counted elsewhere, not served).
    fn serve<T: Transport>(&mut self, endpoint: &T, env: Envelope) -> bool {
        let _serve_span = telemetry::span("serve.apply", env.msg.layer() as u64, env.msg.iter());
        let serve_started = std::time::Instant::now();
        let (ssp, workers) = (self.run.ssp.is_some(), self.run.cfg.workers);
        // Per-iteration learning-rate schedule: messages carry their BSP
        // round, so the scale for this update is exact even under SSP.
        self.state
            .set_update_scale(self.run.scale_at(env.msg.iter() as usize));
        match env.msg {
            Message::GradChunk {
                iter,
                layer,
                chunk,
                codec,
                data,
            } => {
                let key = (layer, chunk);
                let &(elems, reply_codec) = self
                    .chunk_info
                    .get(&key)
                    .expect("gradient push for a chunk this shard does not own");
                // Stage the frame as it arrived, under the codec its own
                // header names (whatever the worker chose to send):
                // validated here, folded straight from its bytes when the
                // round fills — or, under SSP, at once.
                let grad = Staged::Frame {
                    codec,
                    payload: data,
                };
                let staged = if ssp {
                    self.state.receive_grad_async(key, &grad).map(|_| true)
                } else {
                    self.state.stage(env.from, key, grad)
                };
                let complete = match staged {
                    Ok(complete) => complete,
                    Err(e) => {
                        let me = endpoint.endpoint_id();
                        crate::runtime::note_poisoned_frame(me, env.from, "gradient", &e);
                        return false;
                    }
                };
                if complete {
                    // One pooled reply, encoded once and shared by refcount.
                    let data = if ssp {
                        wire::encode_f32s_pooled(self.state.pair(key).expect("pair just updated"))
                    } else if reply_codec == Codec::Identity {
                        self.state.fold_apply_encode(key)
                    } else {
                        // Lossy reply: compress the scaled velocity (with
                        // error feedback) where it lies; the master follows
                        // below.
                        let comp = self
                            .reply_comp
                            .entry(key)
                            .or_insert_with(|| make_compressor(reply_codec, elems));
                        wire::compress_pooled(comp.as_mut(), self.state.fold(key))
                    };
                    // SSP answers the sender alone (and is identity-only by
                    // plan).
                    let to = if ssp {
                        env.from..env.from + 1
                    } else {
                        0..workers
                    };
                    for w in to {
                        must_send(
                            endpoint,
                            w,
                            Message::ParamChunk {
                                iter,
                                layer,
                                chunk,
                                codec: reply_codec,
                                data: data.clone(),
                            },
                        );
                    }
                    // The lossy reply is on its way before the master
                    // advances — by the *decoded* bytes, so it tracks exactly
                    // what every replica applies; nothing reads the master in
                    // between.
                    if !ssp && reply_codec != Codec::Identity {
                        self.state.apply_delta(key, reply_codec, &data);
                    }
                }
            }
            Message::SfPush { iter, layer, data } => {
                // Adam path: reconstruct the dense gradient from the factors,
                // exactly as an SFB replica does.
                let (m, n) = self.run.coordinator.layers()[layer as usize]
                    .fc_shape
                    .expect("layer-granular schemes need FC shape");
                let batch =
                    poseidon_tensor::bytesio::decode_sf_batch(&data).expect("corrupt SF payload");
                let (grad_w, grad_b) =
                    syncer::reconstruct_sf_batches(std::slice::from_ref(&batch), m, n);
                let key = (layer, LAYER_GRANULAR_CHUNK);
                let complete = self
                    .state
                    .stage(
                        env.from,
                        key,
                        Staged::Dense([grad_w.as_slice(), &grad_b].concat()),
                    )
                    .expect("a dense gradient is never refused");
                if complete {
                    let data = self.state.fold_apply_encode(key);
                    for w in 0..workers {
                        must_send(
                            endpoint,
                            w,
                            Message::ParamMatrix {
                                iter,
                                layer,
                                data: data.clone(),
                            },
                        );
                    }
                }
            }
            other => panic!("server received unexpected message {other:?}"),
        }
        self.m_serve
            .record(serve_started.elapsed().as_nanos() as u64);
        true
    }
}
