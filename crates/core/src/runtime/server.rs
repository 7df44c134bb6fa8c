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
//! Elastic membership rides the epoch plane: when the shard's
//! [`MembershipSchedule`] is non-trivial, the serving loop is segmented by
//! membership epoch. At each boundary the shard first bumps its transport
//! epoch (so every frame it emits from then on carries the new epoch), then
//! streams the KV pairs it no longer owns to their new owners as
//! [`Message::Handoff`] frames — params, optimizer velocity, and the
//! reply-compressor residual, so the lossy byte stream continues bitwise —
//! and blocks until every pair it newly owns has arrived, stashing any
//! early gradient pushes from fast workers. BSP quiescence makes the
//! boundary deterministic: a worker only reaches the boundary iteration
//! after every shard folded the previous one, so no pre-boundary frame can
//! chase a handed-off pair.

use crate::checkpoint::{self, PairState, ShardCheckpoint};
use crate::chunk::Chunk;
use crate::kvstore::{ShardState, Staged};
use crate::membership::MembershipSchedule;
use crate::telemetry;
use crate::transport::{Envelope, Message, Transport, TransportError};
use crate::wire::{self, Codec, LAYER_GRANULAR_CHUNK};
use poseidon_tensor::compress::{make_compressor, Compressor};
use poseidon_tensor::Matrix;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// A layer synchronised at layer granularity by this shard (the Adam
/// SF-push / matrix-pull baseline).
#[derive(Clone, Debug)]
pub(crate) struct LayerGranular {
    pub layer: usize,
    /// `(M, N)` weight shape — needed to reconstruct factors into gradients.
    pub fc_shape: (usize, usize),
    /// Flattened parameter length (`M·N + M`).
    pub param_elems: usize,
}

/// Everything one shard needs.
pub(crate) struct ServerPlan {
    /// Home KV pairs: `(within-layer chunk index, chunk, reply codec)`.
    pub ps_chunks: Vec<(u32, Chunk, Codec)>,
    /// Owned layer-granular layers.
    pub layer_granular: Vec<LayerGranular>,
    /// Initial values for every home pair, same order as `ps_chunks` then
    /// `layer_granular`.
    pub init_values: Vec<Vec<f32>>,
    /// Worker count (`P1`).
    pub workers: usize,
    /// `-learning_rate / P1`.
    pub update_scale: f32,
    /// Classical momentum on the aggregated gradient.
    pub momentum: f32,
    /// Learning-rate schedule (scales `update_scale` per iteration).
    pub lr_schedule: crate::runtime::LrSchedule,
    /// Training iterations to serve.
    pub iterations: usize,
    /// Stale-synchronous mode: apply each worker's gradient eagerly and reply
    /// to that worker only (no per-pair barrier).
    pub ssp: bool,
    /// Transport receive timeout before declaring a worker lost.
    pub comm_timeout: std::time::Duration,
    /// This shard's id in `0..P` (endpoint id minus `workers`).
    pub me_shard: usize,
    /// Membership schedule shared by the whole mesh.
    pub schedule: Arc<MembershipSchedule>,
    /// First absolute iteration of this run segment.
    pub start_iter: usize,
    /// Every PS chunk in the mesh with its reply codec — the ownership
    /// universe under elastic membership. Empty when membership is fixed.
    pub all_chunks: Vec<(u32, Chunk, Codec)>,
    /// Initial values aligned with `all_chunks` (elastic runs only).
    pub all_init: Vec<Vec<f32>>,
    /// Restore shard state from a previous segment instead of initialising.
    pub restore: Option<ShardCheckpoint>,
    /// Export a [`ShardCheckpoint`] at the end of the run.
    pub export_state: bool,
}

impl ServerPlan {
    /// A plain run needs none of the elastic machinery — serve it with the
    /// original count-driven loop (bitwise and perf-identical to before the
    /// elastic plane existed, and the only loop that supports SSP).
    fn is_plain(&self) -> bool {
        self.schedule.is_trivial()
            && self.start_iter == 0
            && self.restore.is_none()
            && !self.export_state
    }
}

/// What one shard hands back to the harness.
pub(crate) struct ShardOutput {
    pub checkpoint: Option<ShardCheckpoint>,
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

/// Runs one shard to completion.
pub(crate) fn run_server<T: Transport>(mut plan: ServerPlan, mut endpoint: T) -> ShardOutput {
    telemetry::set_thread_track(format!("shard e{}", endpoint.endpoint_id()));
    // Serve-latency histogram, resolved once so the serving loop records
    // registry-free.
    let shard_label = endpoint.endpoint_id().to_string();
    let m_serve = crate::metrics::histogram("poseidon_serve_ns", &[("shard", &shard_label)]);
    let mut state = ShardState::with_momentum(plan.workers, plan.update_scale, plan.momentum);
    // Per-chunk serving metadata: element count and the codec this shard
    // replies with. Folding always follows the *frame's* codec.
    let mut chunk_info: HashMap<(u32, u32), (usize, Codec)> = HashMap::new();
    // Per-chunk aggregate compressors (error feedback on the reply path);
    // created lazily, only lossy chunks ever allocate one.
    let mut reply_comp: HashMap<(u32, u32), Box<dyn Compressor>> = HashMap::new();

    if plan.is_plain() {
        let init = std::mem::take(&mut plan.init_values);
        let mut init = init.into_iter();
        for &(idx, chunk, codec) in &plan.ps_chunks {
            chunk_info.insert((chunk.layer as u32, idx), (chunk.len, codec));
            state.init_pair(
                (chunk.layer as u32, idx),
                init.next().expect("init value per ps chunk"),
            );
        }
        for lg in &plan.layer_granular {
            let flat = init.next().expect("init value per layer-granular layer");
            state.init_pair((lg.layer as u32, LAYER_GRANULAR_CHUNK), flat);
        }

        // Every owned pair receives exactly `workers` gradient messages per
        // iteration; serve that many envelopes, then exit. Control frames (a
        // peer acking over a bare transport) don't count against the budget,
        // and neither do poisoned frames — counted separately and dropped.
        let pairs = plan.ps_chunks.len() + plan.layer_granular.len();
        let expected = pairs * plan.workers * plan.iterations;
        let mut served = 0usize;
        while served < expected {
            let env = must_recv(&endpoint, plan.comm_timeout, served, expected);
            if env.msg.is_control() {
                continue;
            }
            if serve_envelope(
                &endpoint,
                &plan,
                &mut state,
                &chunk_info,
                &mut reply_comp,
                &m_serve,
                env,
            ) {
                served += 1;
            }
        }
        endpoint.shutdown().unwrap_or_else(|e| {
            panic!("shard transport shutdown failed: {e}");
        });
        return ShardOutput { checkpoint: None };
    }

    run_server_elastic(plan, endpoint, state, chunk_info, reply_comp, m_serve)
}

/// The epoch-segmented serving loop: checkpoint restore/export, shard-level
/// join/leave with deterministic KV handoff, or both.
fn run_server_elastic<T: Transport>(
    mut plan: ServerPlan,
    mut endpoint: T,
    mut state: ShardState,
    mut chunk_info: HashMap<(u32, u32), (usize, Codec)>,
    mut reply_comp: HashMap<(u32, u32), Box<dyn Compressor>>,
    m_serve: crate::metrics::Histogram,
) -> ShardOutput {
    assert!(
        !plan.ssp,
        "elastic membership and checkpointing require BSP"
    );
    let me = plan.me_shard;
    let sched = Arc::clone(&plan.schedule);
    assert!(
        sched.is_trivial() || plan.layer_granular.is_empty(),
        "elastic membership does not support layer-granular (AdamSf) shards"
    );
    let m_handoff = crate::metrics::counter("poseidon_handoff_pairs_total", &[]);

    // The ownership universe: under a non-trivial schedule every shard knows
    // every PS chunk (`all_chunks`); under a trivial schedule (checkpoint-only
    // runs) the home set is the universe.
    let home_only = plan.all_chunks.is_empty();
    let universe: Vec<(u32, Chunk, Codec)> = if home_only {
        plan.ps_chunks.clone()
    } else {
        std::mem::take(&mut plan.all_chunks)
    };
    let universe_init: Vec<Vec<f32>> = if home_only {
        // Trivial schedule: init_values is ps_chunks-then-layer-granular.
        plan.init_values[..plan.ps_chunks.len()].to_vec()
    } else {
        std::mem::take(&mut plan.all_init)
    };
    assert_eq!(
        universe.len(),
        universe_init.len(),
        "one init value per chunk in the ownership universe"
    );
    for &(idx, chunk, codec) in &universe {
        chunk_info.insert((chunk.layer as u32, idx), (chunk.len, codec));
    }
    // Keys grouped by home shard, in deterministic (sorted) order — the order
    // handoff frames are emitted in.
    let mut home_keys: HashMap<usize, Vec<(u32, u32)>> = HashMap::new();
    for &(idx, chunk, _) in &universe {
        home_keys
            .entry(chunk.shard)
            .or_default()
            .push((chunk.layer as u32, idx));
    }
    for keys in home_keys.values_mut() {
        keys.sort_unstable();
    }

    let start = plan.start_iter;
    let end = start + plan.iterations;
    let mut epoch = sched.epoch_at(start);
    endpoint.set_epoch(epoch);

    // Populate owned pairs: from the checkpoint when restoring, from the
    // deterministic init tables otherwise.
    let owned_now: Vec<(u32, u32)> = universe
        .iter()
        .filter(|(_, chunk, _)| sched.owner(chunk.shard, epoch) == me)
        .map(|&(idx, chunk, _)| (chunk.layer as u32, idx))
        .collect();
    if let Some(ck) = plan.restore.take() {
        assert_eq!(ck.shard, me as u32, "checkpoint belongs to another shard");
        assert_eq!(
            ck.next_iter, start as u64,
            "checkpoint resumes at a different iteration than this segment starts"
        );
        let mut restored: Vec<(u32, u32)> = Vec::with_capacity(ck.pairs.len());
        for pair in ck.pairs {
            restored.push(pair.key);
            install_pair_state(&mut state, &mut reply_comp, &chunk_info, pair);
        }
        restored.sort_unstable();
        let mut expected_keys = owned_now.clone();
        for lg in &plan.layer_granular {
            expected_keys.push((lg.layer as u32, LAYER_GRANULAR_CHUNK));
        }
        expected_keys.sort_unstable();
        assert_eq!(
            restored, expected_keys,
            "checkpoint pair set does not match the pairs owned at the resume epoch"
        );
    } else {
        assert_eq!(
            start, 0,
            "a mid-run segment (start_iter > 0) must restore from a checkpoint"
        );
        for (&(idx, chunk, _), init) in universe.iter().zip(universe_init.iter()) {
            if sched.owner(chunk.shard, epoch) == me {
                state.init_pair((chunk.layer as u32, idx), init.clone());
            }
        }
        let mut lg_init = plan.init_values[plan.ps_chunks.len()..].iter();
        for lg in &plan.layer_granular {
            let flat = lg_init.next().expect("init value per layer-granular layer");
            state.init_pair((lg.layer as u32, LAYER_GRANULAR_CHUNK), flat.clone());
        }
    }

    // Gradient frames that raced ahead of a handoff install: replayed before
    // reading fresh envelopes in the next segment.
    let mut stash: VecDeque<Envelope> = VecDeque::new();
    let mut it = start;
    while it < end {
        // Serve until the next membership boundary (or the end of the run).
        let seg_end = if (epoch as usize) + 1 < sched.epochs() {
            sched.epoch_start(epoch + 1).min(end)
        } else {
            end
        };
        let owned = universe
            .iter()
            .filter(|(_, chunk, _)| sched.owner(chunk.shard, epoch) == me)
            .count()
            + plan.layer_granular.len();
        let expected = owned * plan.workers * (seg_end - it);
        let mut served = 0usize;
        while served < expected {
            let env = match stash.pop_front() {
                Some(env) => env,
                None => must_recv(&endpoint, plan.comm_timeout, served, expected),
            };
            if env.msg.is_control() {
                continue;
            }
            if serve_envelope(
                &endpoint,
                &plan,
                &mut state,
                &chunk_info,
                &mut reply_comp,
                &m_serve,
                env,
            ) {
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
                    let (params, velocity) = state
                        .export_pair(key)
                        .expect("handoff of a pair this shard does not hold");
                    let residual = reply_comp
                        .get(&key)
                        .map(|c| c.residual())
                        .unwrap_or_default();
                    must_send(
                        &endpoint,
                        plan.workers + new_owner,
                        Message::Handoff {
                            iter: it as u64,
                            layer: key.0,
                            chunk: key.1,
                            data: checkpoint::encode_pair_state(&params, &velocity, &residual),
                        },
                    );
                    state.remove_pair(key);
                    reply_comp.remove(&key);
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
                let env = must_recv(&endpoint, plan.comm_timeout, got, expect_in);
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
                        install_pair_state(
                            &mut state,
                            &mut reply_comp,
                            &chunk_info,
                            PairState {
                                key: (layer, chunk),
                                params,
                                velocity,
                                residual,
                            },
                        );
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

    let checkpoint = plan.export_state.then(|| ShardCheckpoint {
        shard: me as u32,
        next_iter: end as u64,
        epoch,
        pairs: state
            .sorted_keys()
            .into_iter()
            .map(|key| {
                let (params, velocity) = state.export_pair(key).expect("key just listed");
                let residual = reply_comp
                    .get(&key)
                    .map(|c| c.residual())
                    .unwrap_or_default();
                PairState {
                    key,
                    params,
                    velocity,
                    residual,
                }
            })
            .collect(),
    });

    endpoint.shutdown().unwrap_or_else(|e| {
        panic!("shard transport shutdown failed: {e}");
    });
    ShardOutput { checkpoint }
}

/// Installs one pair (params + velocity + reply-compressor residual) into
/// the shard, recreating the lossy reply compressor so the byte stream
/// continues exactly where the previous owner left it.
fn install_pair_state(
    state: &mut ShardState,
    reply_comp: &mut HashMap<(u32, u32), Box<dyn Compressor>>,
    chunk_info: &HashMap<(u32, u32), (usize, Codec)>,
    pair: PairState,
) {
    state.install_pair(pair.key, pair.params, pair.velocity);
    if !pair.residual.is_empty() {
        let &(elems, codec) = chunk_info
            .get(&pair.key)
            .expect("installed pair missing from the chunk table");
        let mut comp = make_compressor(codec, elems);
        comp.set_residual(&pair.residual);
        reply_comp.insert(pair.key, comp);
    }
}

/// Receives one envelope or panics with enough context to triage a starve.
fn must_recv<T: Transport>(
    endpoint: &T,
    timeout: std::time::Duration,
    done: usize,
    expected: usize,
) -> Envelope {
    match crate::runtime::recv_with_retry(endpoint, timeout) {
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

/// Applies one non-control envelope to the shard. Returns `false` when the
/// frame was poisoned (dropped and counted elsewhere, not served).
fn serve_envelope<T: Transport>(
    endpoint: &T,
    plan: &ServerPlan,
    state: &mut ShardState,
    chunk_info: &HashMap<(u32, u32), (usize, Codec)>,
    reply_comp: &mut HashMap<(u32, u32), Box<dyn Compressor>>,
    m_serve: &crate::metrics::Histogram,
    env: Envelope,
) -> bool {
    // Per-iteration learning-rate schedule: messages carry their BSP
    // round, so the scale for this update is exact even under SSP.
    let _serve_span = telemetry::span("serve.apply", env.msg.layer() as u64, env.msg.iter());
    let serve_started = std::time::Instant::now();
    let scale = plan.update_scale * plan.lr_schedule.multiplier(env.msg.iter() as usize);
    state.set_update_scale(scale);
    match env.msg {
        Message::GradChunk {
            iter,
            layer,
            chunk,
            codec,
            data,
        } => {
            let key = (layer, chunk);
            let &(elems, reply_codec) = chunk_info
                .get(&key)
                .expect("gradient push for a chunk this shard does not own");
            // Stage the frame as it arrived, under the codec its own header
            // names (whatever the worker chose to send): validated here,
            // folded straight from its bytes when the round fills — or, under
            // SSP, at once.
            let grad = Staged::Frame {
                codec,
                payload: data,
            };
            let staged = if plan.ssp {
                state.receive_grad_async(key, &grad).map(|_| true)
            } else {
                state.stage(env.from, key, grad)
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
                let data = if plan.ssp {
                    wire::encode_f32s_pooled(state.pair(key).expect("pair just updated"))
                } else if reply_codec == Codec::Identity {
                    state.fold_apply_encode(key)
                } else {
                    // Lossy reply: compress the scaled velocity (with error
                    // feedback) where it lies; the master follows below.
                    let comp = reply_comp
                        .entry(key)
                        .or_insert_with(|| make_compressor(reply_codec, elems));
                    wire::compress_pooled(comp.as_mut(), state.fold(key))
                };
                // SSP answers the sender alone (and is identity-only by plan).
                let to = match plan.ssp {
                    true => env.from..env.from + 1,
                    false => 0..plan.workers,
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
                // The lossy reply is on its way before the master advances —
                // by the *decoded* bytes, so it tracks exactly what every
                // replica applies; nothing reads the master in between.
                if !plan.ssp && reply_codec != Codec::Identity {
                    state.apply_delta(key, reply_codec, &data);
                }
            }
        }
        Message::SfPush { iter, layer, data } => {
            // Adam path: reconstruct the dense gradient from the factors.
            let lg = plan
                .layer_granular
                .iter()
                .find(|lg| lg.layer as u32 == layer)
                .expect("SF push for a layer this shard does not own");
            let batch =
                poseidon_tensor::bytesio::decode_sf_batch(&data).expect("corrupt SF payload");
            let (m, n) = lg.fc_shape;
            let mut grad_w = Matrix::zeros(m, n);
            batch.accumulate_into(&mut grad_w, 1.0);
            let mut flat = grad_w.as_slice().to_vec();
            let mut bias = vec![0.0f32; m];
            for sf in batch.factors() {
                for (b, &u) in bias.iter_mut().zip(&sf.u) {
                    *b += u;
                }
            }
            flat.extend_from_slice(&bias);
            assert_eq!(
                flat.len(),
                lg.param_elems,
                "reconstructed gradient size mismatch"
            );
            let key = (layer, LAYER_GRANULAR_CHUNK);
            let complete = state
                .stage(env.from, key, Staged::Dense(flat))
                .expect("length asserted above");
            if complete {
                let data = state.fold_apply_encode(key);
                for w in 0..plan.workers {
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
    m_serve.record(serve_started.elapsed().as_nanos() as u64);
    true
}
