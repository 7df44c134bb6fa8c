//! The worker: Algorithm 2 of the paper.
//!
//! Per iteration: forward, then backward with every layer's whole sync —
//! Send → Receive → Move — scheduled against the back-propagation of the
//! layers below it (wait-free backpropagation). The per-layer gradient
//! callback fires that layer's `Send`s and then drains, without blocking,
//! whatever has arrived for the layers already done: a PS chunk decodes into
//! the replica, a complete set of SFB factors is reconstructed and applied, a
//! collective frame is hop-added and forwarded — into layers the backward
//! pass has finished with and lends out for exactly that
//! ([`poseidon_nn::Finished`]). What is still outstanding when the bottom
//! layer is done is received by a blocking tail, through the same
//! [`Exchange::dispatch`], until every syncer reports complete (the
//! completion vector `C` is all ones).
//!
//! A neighbour that is ahead can deliver a frame for a layer whose own `Send`
//! has not fired here yet (a ring REDUCE, a peer's factors): it is parked with
//! its layer and replayed, in arrival order, right after that `Send`. A frame
//! for the next iteration is stashed and replayed first thing in it.
//!
//! The worker is transport-agnostic: the same loop drives an in-process
//! channel endpoint (threaded [`train`](crate::runtime::train)) or a TCP
//! endpoint (the `poseidon-node` process runtime). A peer that stops talking
//! surfaces as a [`TransportError::Timeout`] panic naming this worker, its
//! iteration and its sync progress — never a silent hang. A frame whose
//! payload fails codec decode is poisoned: counted, diagnosed and dropped,
//! never a process abort at the decode site.

use crate::checkpoint::{LayerCheckpoint, WorkerCheckpoint};
use crate::config::CommScheme;
use crate::coordinator::Coordinator;
use crate::membership::MembershipSchedule;
use crate::metrics;
use crate::serving::{Snapshot, SnapshotCell};
use crate::syncer::{self, CollectiveSend, SyncOutcome, Syncer};
use crate::telemetry;
use crate::transport::{Message, Transport, TransportError};
use crate::wire;
use poseidon_nn::data::Dataset;
use poseidon_nn::loss::SoftmaxCrossEntropy;
use poseidon_nn::{BackwardNeeds, Finished, Layer, Model, ParamBlock};
use poseidon_tensor::bytesio;
use poseidon_tensor::Matrix;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// What one worker reports back.
pub(crate) struct WorkerOutput<M: Model> {
    /// Mean training loss per iteration (this worker's minibatches).
    pub losses: Vec<f32>,
    /// `(iteration, top-1 error)` on the eval set (worker 0 only).
    pub test_errors: Vec<(usize, f32)>,
    /// The final model replica.
    pub net: M,
    /// Wall time this worker spent on its own training loop (under SSP fast
    /// workers finish well before a straggler; under BSP they pace it).
    pub wall: std::time::Duration,
    /// Per-iteration busy-time distribution (forward + backward + any
    /// injected delay) — the straggler detector's input. Recorded into a
    /// private histogram so the verdict is independent of the global
    /// metrics gate.
    pub busy: metrics::HistogramSnapshot,
    /// Full training state at the end of the run (`export_state` runs only).
    pub checkpoint: Option<WorkerCheckpoint>,
}

/// Per-worker configuration slice.
pub(crate) struct WorkerConfig {
    pub me: usize,
    pub iterations: usize,
    pub batch: usize,
    pub update_scale: f32,
    pub momentum: f32,
    pub lr_schedule: crate::runtime::LrSchedule,
    pub eval_every: usize,
    /// `Some(staleness)` enables the SSP clock protocol.
    pub ssp_staleness: Option<u64>,
    /// Artificial per-iteration delay (straggler injection for experiments).
    pub straggler_delay: Option<std::time::Duration>,
    /// Uniform random per-iteration delay bound in microseconds (jitter
    /// injection for the SSP experiments).
    pub jitter_us: Option<u64>,
    /// This worker's share of the compute-thread budget for layer kernels.
    pub compute_threads: usize,
    /// Transport receive timeout before declaring a peer lost.
    pub comm_timeout: std::time::Duration,
    /// First absolute iteration of this run segment (checkpoint resume).
    pub start_iter: usize,
    /// Membership schedule shared by the whole mesh: iteration → epoch and
    /// epoch → shard-ownership map. Trivial for fixed-membership runs.
    pub schedule: Arc<MembershipSchedule>,
    /// Restore worker state exported by a previous segment.
    pub restore: Option<WorkerCheckpoint>,
    /// Export a [`WorkerCheckpoint`] at the end of the run.
    pub export_state: bool,
    /// Publish a parameter [`Snapshot`] after every iteration (the serving
    /// front door reads these; worker 0 only, by caller convention).
    pub snapshots: Option<Arc<SnapshotCell>>,
}

impl WorkerConfig {
    /// `update_scale · lr multiplier`: the f32 product the PS shard scales a
    /// gradient by at iteration `iter`, formed client-side by the schemes
    /// that fold without a shard.
    fn scale_at(&self, iter: usize) -> f32 {
        self.update_scale * self.lr_schedule.multiplier(iter)
    }
}

/// Sends or panics with enough context to name the broken link.
fn must_send<T: Transport>(endpoint: &T, me: usize, to: usize, msg: Message) {
    if let Err(e) = endpoint.send(to, msg) {
        panic!("worker {me}: send to endpoint {to} failed: {e}");
    }
}

/// Transmits the collective frames a syncer handed back for `layer`.
fn send_collective_frames<T: Transport>(
    endpoint: &T,
    me: usize,
    (iter, layer): (u64, usize),
    codec: wire::Codec,
    sends: Vec<CollectiveSend>,
) {
    for send in sends {
        must_send(
            endpoint,
            me,
            send.to_worker,
            Message::Collective {
                iter,
                layer: layer as u32,
                route: send.route,
                codec,
                data: send.data,
            },
        );
    }
}

/// One trainable layer's side of the exchange.
struct LayerSync {
    syncer: Syncer,
    /// This iteration's `Send` has fired. Until then the layer's incoming
    /// frames wait in `parked`, in arrival order.
    sent: bool,
    parked: Vec<(usize, Message)>,
    /// When the `Send` fired: the layer's WFBP window is open from then
    /// until its outcome is applied.
    started: Option<Instant>,
    wait: metrics::Histogram,
}

/// Where [`Exchange::dispatch`] finds the parameters a frame lands in.
enum Replica<'a, 'f, M> {
    /// Inside backward: the layer whose callback is running and the finished
    /// layers above it.
    Lent(usize, &'a mut dyn Layer, &'a mut Finished<'f>),
    /// After backward: the whole model.
    Whole(&'a mut M),
}

impl<M: Model> Replica<'_, '_, M> {
    fn params_mut(&mut self, id: usize) -> &mut ParamBlock {
        let layer: Option<&mut dyn Layer> = match self {
            Replica::Lent(current, layer, _) if *current == id => Some(&mut **layer),
            Replica::Lent(_, _, finished) => finished.slot_mut(id),
            Replica::Whole(net) => net.slot_mut(id),
        };
        layer
            .and_then(|l| l.params_mut())
            .expect("a frame is dispatched to a trainable layer whose backward is done")
    }
}

/// A worker's half of the parameter exchange: the per-layer syncers and
/// everything a frame needs on its way from the endpoint into the replica.
struct Exchange<'a, T: Transport> {
    cfg: &'a WorkerConfig,
    endpoint: &'a T,
    workers: usize,
    layers: HashMap<usize, LayerSync>,
    /// SFB velocity buffers (identical on every replica).
    sf_velocity: HashMap<usize, (Matrix, Vec<f32>)>,
    /// Frames that arrived early for the next iteration (peers can run one
    /// iteration ahead of us).
    stashed: VecDeque<(usize, Message)>,
    /// Frames to dispatch before anything new off the endpoint: last
    /// iteration's stash, then whatever a `Send` released from its layer's
    /// park. The transports guarantee per-link FIFO and the collective
    /// chains rely on it (a segment's DISTRIBUTE must not overtake its
    /// REDUCE), so arrival order is kept through both.
    pending: VecDeque<(usize, Message)>,
    iter: usize,
    epoch: u32,
    /// Layers whose sync completed this iteration.
    completed: usize,
    m_apply: metrics::Histogram,
}

impl<T: Transport> Exchange<'_, T> {
    fn begin_iteration(&mut self, iter: usize, epoch: u32) {
        (self.iter, self.epoch, self.completed) = (iter, epoch, 0);
        for l in self.layers.values_mut() {
            l.syncer.begin_iteration();
            l.sent = false;
        }
        debug_assert!(self.pending.is_empty(), "an iteration ends drained");
        std::mem::swap(&mut self.pending, &mut self.stashed);
    }

    /// Layer `l`'s `Send`, the moment `bˡ` is done; opens its sync window
    /// and releases the frames that were parked for it.
    fn send(&mut self, l: usize, layer: &dyn Layer) {
        let (endpoint, schedule, epoch) = (self.endpoint, &self.cfg.schedule, self.epoch);
        let (me, workers, iter) = (self.cfg.me, self.workers, self.iter as u64);
        let Some(state) = self.layers.get_mut(&l) else {
            return;
        };
        let s = &mut state.syncer;
        let params = layer.params().expect("trainable layer");
        match s.scheme() {
            CommScheme::Ps => {
                let codec = s.codec();
                for idx in 0..s.chunks().len() {
                    let payload = s.encode_push_grad(idx, params);
                    must_send(
                        endpoint,
                        me,
                        workers + schedule.owner(s.chunks()[idx].shard, epoch),
                        Message::GradChunk {
                            iter,
                            layer: l as u32,
                            chunk: idx as u32,
                            codec,
                            data: payload,
                        },
                    );
                }
            }
            CommScheme::Sfb => {
                let batch = layer
                    .sufficient_factors()
                    .expect("SFB requires sufficient factors");
                let payload = bytesio::encode_sf_batch(&batch);
                for peer in (0..workers).filter(|&peer| peer != me) {
                    must_send(
                        endpoint,
                        me,
                        peer,
                        Message::SfPush {
                            iter,
                            layer: l as u32,
                            data: payload.clone(),
                        },
                    );
                }
                s.set_own_sf(batch);
            }
            CommScheme::AdamSf => {
                let batch = layer
                    .sufficient_factors()
                    .expect("Adam requires sufficient factors");
                must_send(
                    endpoint,
                    me,
                    workers + schedule.owner(l % workers, epoch),
                    Message::SfPush {
                        iter,
                        layer: l as u32,
                        data: bytesio::encode_sf_batch(&batch),
                    },
                );
            }
            CommScheme::Ring | CommScheme::Tree => {
                let sends = s.send_collective(params, self.cfg.scale_at(self.iter));
                send_collective_frames(endpoint, me, (iter, l), s.codec(), sends);
            }
        }
        // The layer's sync window opens the instant its gradient left
        // (WFBP); it closes when the outcome is applied in `dispatch`. The
        // span lives on the layer's own lane because windows of different
        // layers overlap.
        if telemetry::is_enabled() {
            telemetry::instant("grad.ready", l as u64, iter);
            telemetry::span_begin_lane("wfbp.sync", l as u32, l as u64, iter);
        }
        state.started = Some(Instant::now());
        state.sent = true;
        // Parked frames are older than anything still pending.
        for parked in state.parked.drain(..).rev() {
            self.pending.push_front(parked);
        }
    }

    /// The next frame that is already here, if any, and whether it came off
    /// the endpoint just now rather than out of the replay queue. A transport
    /// failure is left to [`Self::wait_next`], which meets it again and
    /// reports it with the sync progress.
    fn try_next(&mut self) -> Option<(usize, Message, bool)> {
        if let Some((from, msg)) = self.pending.pop_front() {
            return Some((from, msg, false));
        }
        let env = self.endpoint.try_recv().ok().flatten()?;
        Some((env.from, env.msg, true))
    }

    /// The next frame, waiting for it up to `comm_timeout`.
    fn wait_next(&mut self) -> (usize, Message) {
        if let Some(p) = self.pending.pop_front() {
            return p;
        }
        let (me, iter) = (self.cfg.me, self.iter);
        match crate::runtime::recv_with_retry(self.endpoint, self.cfg.comm_timeout) {
            Ok(env) => (env.from, env.msg),
            Err(e @ (TransportError::Timeout(_) | TransportError::Closed)) => panic!(
                "worker {me} starved at iteration {iter} with {}/{} layers synced — a peer \
                 died or stalled: {e}",
                self.completed,
                self.layers.len()
            ),
            Err(e) => panic!("worker {me} transport failed at iteration {iter}: {e}"),
        }
    }

    /// Takes one received frame to its syncer and, when that completes the
    /// layer, applies the outcome to the replica — unless the frame goes
    /// elsewhere instead: control traffic (dropped), a frame stashed for the
    /// next iteration or parked until its layer's `Send`, a poisoned payload.
    fn dispatch<M: Model>(&mut self, from: usize, msg: Message, replica: &mut Replica<'_, '_, M>) {
        // Control traffic is consumed by the reliability layer; any that
        // surfaces here (a peer acking over a bare transport) carries no
        // training state and is dropped before the iteration bookkeeping.
        if msg.is_control() {
            return;
        }
        let (me, iter) = (self.cfg.me, self.iter);
        let msg_iter = msg.iter() as usize;
        if msg_iter > iter {
            self.stashed.push_back((from, msg));
            return;
        }
        assert_eq!(msg_iter, iter, "stale message from a past iteration");
        let layer = match &msg {
            Message::GradChunk { layer, .. }
            | Message::ParamChunk { layer, .. }
            | Message::SfPush { layer, .. }
            | Message::ParamMatrix { layer, .. }
            | Message::Collective { layer, .. } => *layer as usize,
            Message::Handoff { .. } => {
                // Shard-to-shard state transfer; a worker is never a
                // handoff destination. Arriving here means a routing bug.
                panic!("worker {me} received a shard handoff frame")
            }
            Message::Ack { .. } | Message::Nack { .. } => {
                unreachable!("control frames are filtered before dispatch")
            }
        };
        let state = self
            .layers
            .get_mut(&layer)
            .expect("message for unknown layer");
        if !state.sent {
            state.parked.push((from, msg));
            return;
        }
        let s = &mut state.syncer;
        let was_complete = s.is_complete();
        match msg {
            Message::ParamChunk {
                chunk, codec, data, ..
            } => {
                // Lands in the layer's parameters at the chunk's offset
                // right here; the apply span and histogram wrap each
                // chunk, so a layer's apply time is the sum over them.
                let params = replica.params_mut(layer);
                telemetry::span_begin("apply", layer as u64, iter as u64);
                let apply_started = Instant::now();
                let applied = s.on_param_chunk(chunk as usize, codec, &data, params);
                telemetry::span_end("apply", layer as u64, iter as u64);
                self.m_apply
                    .record(apply_started.elapsed().as_nanos() as u64);
                if let Err(e) = applied {
                    crate::runtime::note_poisoned_frame(
                        self.endpoint.endpoint_id(),
                        from,
                        "param chunk",
                        &e,
                    );
                    return;
                }
            }
            Message::ParamMatrix { data, .. } => {
                s.on_param_matrix(wire::decode_f32s(&data).expect("corrupt param matrix"));
            }
            Message::SfPush { data, .. } => {
                s.on_peer_sf(
                    from,
                    bytesio::decode_sf_batch(&data).expect("corrupt SF payload"),
                );
            }
            Message::Collective { route, data, .. } => {
                let codec = s.codec();
                match s.on_collective(from, route, data) {
                    Ok(sends) => send_collective_frames(
                        self.endpoint,
                        me,
                        (iter as u64, layer),
                        codec,
                        sends,
                    ),
                    Err(e) => {
                        crate::runtime::note_poisoned_frame(
                            self.endpoint.endpoint_id(),
                            from,
                            "collective",
                            &e,
                        );
                        return;
                    }
                }
            }
            Message::GradChunk { .. } => {
                panic!("worker {me} received an unexpected gradient chunk")
            }
            Message::Handoff { .. } => {
                unreachable!("handoff frames are rejected before dispatch")
            }
            Message::Ack { .. } | Message::Nack { .. } => {
                unreachable!("control frames are filtered before dispatch")
            }
        }
        if !was_complete && s.is_complete() {
            // PS layers have nothing left to apply: their chunks landed
            // in the replica as they arrived.
            if let Some(outcome) = s.take_outcome() {
                telemetry::span_begin("apply", layer as u64, iter as u64);
                let apply_started = Instant::now();
                let params = replica.params_mut(layer);
                match outcome {
                    SyncOutcome::FreshParams(flat) => syncer::write_params_flat(params, &flat),
                    SyncOutcome::ApplyDelta(segments) => syncer::apply_delta(params, &segments),
                    SyncOutcome::SfApply(batches) => {
                        let (rows, cols) = params.weights.shape();
                        let (grad_w, grad_b) = syncer::reconstruct_sf_batches(&batches, rows, cols);
                        let (vw, vb) = self
                            .sf_velocity
                            .entry(layer)
                            .or_insert_with(|| (Matrix::zeros(rows, cols), vec![0.0; rows]));
                        let (w, b) = (&mut params.weights, &mut params.bias);
                        let (momentum, scale) = (self.cfg.momentum, self.cfg.scale_at(iter));
                        momentum_step(
                            w.as_mut_slice(),
                            vw.as_mut_slice(),
                            grad_w.as_slice(),
                            momentum,
                            scale,
                        );
                        momentum_step(b.as_mut_slice(), vb, &grad_b, momentum, scale);
                    }
                }
                telemetry::span_end("apply", layer as u64, iter as u64);
                self.m_apply
                    .record(apply_started.elapsed().as_nanos() as u64);
            }
            telemetry::span_end_lane("wfbp.sync", layer as u32, layer as u64, iter as u64);
            if let Some(t0) = state.started.take() {
                state.wait.record(t0.elapsed().as_nanos() as u64);
            }
            self.completed += 1;
        }
    }
}

/// Runs one worker to completion.
pub(crate) fn run_worker<M: Model, T: Transport>(
    mut cfg: WorkerConfig,
    coordinator: &Coordinator,
    mut net: M,
    data: Dataset,
    eval: Option<Dataset>,
    mut endpoint: T,
    clock: std::sync::Arc<crate::runtime::clock::SspClock>,
) -> WorkerOutput<M> {
    let workers = coordinator.cluster().workers;
    telemetry::set_thread_track(format!("worker {}", cfg.me));
    // Pin this worker thread's share of the compute budget; the layer
    // kernels read it thread-locally when fanning out batch work.
    poseidon_nn::parallel::set_compute_threads(cfg.compute_threads.max(1));
    let head = SoftmaxCrossEntropy;

    // Metrics handles resolved once per worker, so recording inside the
    // loop never touches the registry mutex. The busy histogram is also
    // kept privately (unconditional `observe`) because the health verdict
    // must not flicker with the global metrics gate.
    let worker_label = cfg.me.to_string();
    let m_step = metrics::histogram("poseidon_step_time_ns", &[("worker", &worker_label)]);
    let m_busy = metrics::histogram("poseidon_busy_time_ns", &[("worker", &worker_label)]);
    let m_apply = metrics::histogram("poseidon_apply_ns", &[("worker", &worker_label)]);
    let m_drained = metrics::counter(
        "poseidon_wfbp_drained_frames_total",
        &[("worker", &worker_label)],
    );
    let busy_local = metrics::Histogram::new();

    // One syncer per trainable layer — each carries its scheme, its codec
    // (with per-chunk error-feedback state for lossy codecs).
    let mut layers: HashMap<usize, LayerSync> = HashMap::new();
    for (l, scheme) in coordinator.scheme_assignment() {
        let info = &coordinator.layers()[l];
        let chunks = coordinator.chunk_table().layer_chunks(l);
        let layer_label = l.to_string();
        layers.insert(
            l,
            LayerSync {
                syncer: Syncer::new(l, scheme, chunks, info.param_elems, workers, cfg.me)
                    .with_momentum(cfg.momentum)
                    .with_codec(coordinator.best_codec(l)),
                sent: false,
                parked: Vec::new(),
                started: None,
                wait: metrics::histogram(
                    "poseidon_sync_wait_ns",
                    &[("worker", &worker_label), ("layer", &layer_label)],
                ),
            },
        );
    }
    let num_syncers = layers.len();
    let mut sf_velocity: HashMap<usize, (Matrix, Vec<f32>)> = HashMap::new();

    // What each slot's backward has to produce follows from where the slot
    // sits and how its update travels: nobody reads the gradient a slot fed
    // by the model input would pass further down, and a layer whose update
    // leaves as sufficient factors never ships its dense weight gradient.
    for id in 0..net.num_slots() {
        let needs = BackwardNeeds {
            input_grad: !net.reads_input(id),
            weight_grad: !layers
                .get(&id)
                .is_some_and(|l| matches!(l.syncer.scheme(), CommScheme::Sfb | CommScheme::AdamSf)),
        };
        if let Some(layer) = net.slot_mut(id) {
            layer.set_backward_needs(needs);
        }
    }

    // Resume: overwrite the fresh replica with the checkpointed one —
    // params, SFB velocity, and every syncer's lossy-codec stream state —
    // so the segmented run is bitwise-identical to an uninterrupted one.
    if let Some(ck) = cfg.restore.take() {
        assert_eq!(
            ck.worker, cfg.me as u32,
            "checkpoint belongs to another worker"
        );
        assert_eq!(
            ck.next_iter, cfg.start_iter as u64,
            "checkpoint resumes at a different iteration than this segment starts"
        );
        assert_eq!(
            ck.layers.len(),
            num_syncers,
            "checkpoint layer set does not match the model"
        );
        for lc in ck.layers {
            let l = lc.layer as usize;
            let params = net
                .slot_mut(l)
                .and_then(|x| x.params_mut())
                .expect("checkpointed layer is trainable");
            syncer::write_params_flat(params, &lc.params);
            if let Some((rows, cols, vw, vb)) = lc.sf_velocity {
                sf_velocity.insert(l, (Matrix::from_vec(rows as usize, cols as usize, vw), vb));
            }
            layers
                .get_mut(&l)
                .expect("checkpointed layer has a syncer")
                .syncer
                .import_state(lc.syncer);
        }
    }

    let mut ex = Exchange {
        cfg: &cfg,
        endpoint: &endpoint,
        workers,
        layers,
        sf_velocity,
        stashed: VecDeque::new(),
        pending: VecDeque::new(),
        iter: cfg.start_iter,
        epoch: 0,
        completed: 0,
        m_apply,
    };

    let started = Instant::now();
    let mut jitter_rng = cfg.jitter_us.map(|_| {
        use rand::SeedableRng;
        rand::rngs::StdRng::seed_from_u64(0x5A17 + cfg.me as u64)
    });
    let mut losses = Vec::with_capacity(cfg.iterations);
    let mut test_errors = Vec::new();

    let m_epoch = metrics::gauge("poseidon_membership_epoch", &[]);
    for iter in cfg.start_iter..cfg.start_iter + cfg.iterations {
        let _iter_span = telemetry::span("iter", cfg.me as u64, iter as u64);
        telemetry::set_iteration(iter as u64);
        // Membership epoch for this iteration: bump the transport stamp at
        // the boundary so everything sent from here on carries the new
        // epoch, and anything still addressed to the old ownership map is
        // recognisably stale.
        let epoch = cfg.schedule.epoch_at(iter);
        if endpoint.current_epoch() != epoch {
            endpoint.set_epoch(epoch);
            m_epoch.set(epoch as u64);
        }
        if let Some(staleness) = cfg.ssp_staleness {
            clock.wait_until_allowed(cfg.me, iter as u64, staleness);
        }
        ex.begin_iteration(iter, epoch);
        let iter_started = Instant::now();

        if let Some(delay) = cfg.straggler_delay {
            std::thread::sleep(delay);
        }
        if let (Some(bound), Some(rng)) = (cfg.jitter_us, jitter_rng.as_mut()) {
            use rand::Rng;
            std::thread::sleep(std::time::Duration::from_micros(rng.gen_range(0..bound)));
        }
        let (x, y) = data.minibatch(iter * cfg.batch, cfg.batch);
        let logits = net.forward(&x);
        let out = head.evaluate(&logits, &y);
        losses.push(out.loss);

        // Backward with WFBP: layer l's Send fires the moment bˡ is done,
        // and whatever has come back for the layers above it by then is
        // received and moved into them before bˡ⁻¹ starts.
        net.backward_with(&out.grad, &mut |l, layer, finished| {
            ex.send(l, layer);
            let mut replica = Replica::<M>::Lent(l, layer, finished);
            // A drained frame is one the endpoint yielded here, wherever
            // `dispatch` then takes it (a layer, its park, the stash). A
            // replayed frame is not: last iteration's stash was received by
            // the blocking tail, on a mesh that never drains too.
            while let Some((from, msg, off_endpoint)) = ex.try_next() {
                if off_endpoint {
                    m_drained.inc();
                }
                ex.dispatch(from, msg, &mut replica);
            }
        });
        // Busy window: everything this worker computed for the step
        // (injected delay included — that is exactly what a straggler looks
        // like to the mesh).
        let busy_ns = iter_started.elapsed().as_nanos() as u64;
        m_busy.record(busy_ns);
        busy_local.observe(busy_ns);

        // Receive what is still outstanding until the completion vector is
        // all ones.
        let mut replica = Replica::Whole(&mut net);
        while ex.completed < num_syncers {
            let (from, msg) = ex.wait_next();
            ex.dispatch(from, msg, &mut replica);
        }

        m_step.record(iter_started.elapsed().as_nanos() as u64);

        if cfg.ssp_staleness.is_some() {
            clock.advance(cfg.me, iter as u64);
        }

        // Periodic evaluation (worker 0 only, by convention of the caller
        // passing `eval` only to worker 0).
        if let Some(eval_set) = &eval {
            if cfg.eval_every > 0 && (iter + 1) % cfg.eval_every == 0 {
                let err = evaluate_error(&mut net, eval_set);
                test_errors.push((iter + 1, err));
            }
        }

        // Serving: publish this iteration's replica under snapshot
        // isolation. In-flight requests keep reading the version they
        // pinned; new requests see this one.
        if let Some(cell) = &cfg.snapshots {
            cell.publish(Snapshot {
                iter: iter as u64,
                epoch,
                params: crate::runtime::flatten_model_params(&net),
            });
        }
    }

    let wall = started.elapsed();
    let Exchange {
        layers,
        sf_velocity,
        ..
    } = ex;
    endpoint
        .shutdown()
        .unwrap_or_else(|e| panic!("worker {}: transport shutdown failed: {e}", cfg.me));

    // The replica leaves as an ordinary model again.
    for id in 0..net.num_slots() {
        if let Some(layer) = net.slot_mut(id) {
            layer.set_backward_needs(BackwardNeeds::ALL);
        }
    }

    // Export: the complete per-layer state a future segment needs to resume
    // bitwise-identically — replica params, SFB velocity, syncer stream
    // state (collective velocity + lossy-codec residuals).
    let checkpoint = cfg.export_state.then(|| {
        let next_iter = cfg.start_iter + cfg.iterations;
        let mut layer_ids: Vec<usize> = layers.keys().copied().collect();
        layer_ids.sort_unstable();
        WorkerCheckpoint {
            worker: cfg.me as u32,
            next_iter: next_iter as u64,
            epoch: cfg.schedule.epoch_at(next_iter),
            layers: layer_ids
                .into_iter()
                .map(|l| LayerCheckpoint {
                    layer: l as u32,
                    params: syncer::flatten_params(
                        net.slot(l)
                            .and_then(|x| x.params())
                            .expect("trainable layer"),
                    ),
                    sf_velocity: sf_velocity.get(&l).map(|(vw, vb)| {
                        let (rows, cols) = vw.shape();
                        (rows as u32, cols as u32, vw.as_slice().to_vec(), vb.clone())
                    }),
                    syncer: layers[&l].syncer.export_state(),
                })
                .collect(),
        }
    });

    WorkerOutput {
        losses,
        test_errors,
        net,
        wall,
        busy: busy_local.snapshot(),
        checkpoint,
    }
}

/// One momentum-SGD step over a parameter slice, in a single pass:
/// `v ← momentum·v + scale·g`, then `w ← w + v`. Each element sees the same
/// three roundings, in the same order, as `Matrix::scale` → `Matrix::axpy` →
/// `Matrix::add_assign` over the whole matrix (Rust never contracts `*` and
/// `+` into an FMA), so the replica's bits do not depend on the fusion.
fn momentum_step(w: &mut [f32], v: &mut [f32], g: &[f32], momentum: f32, scale: f32) {
    assert!(w.len() == v.len() && v.len() == g.len(), "length mismatch");
    for ((w, v), &g) in w.iter_mut().zip(v).zip(g) {
        *v *= momentum;
        *v += scale * g;
        *w += *v;
    }
}

/// Top-1 error of `net` on `data` (whole set, one batch of all samples).
pub fn evaluate_error<M: Model>(net: &mut M, data: &Dataset) -> f32 {
    let (x, y) = data.minibatch(0, data.len());
    let logits = net.forward(&x);
    let out = SoftmaxCrossEntropy.evaluate(&logits, &y);
    1.0 - out.correct as f32 / data.len() as f32
}

#[cfg(test)]
mod tests {
    use super::momentum_step;
    use poseidon_tensor::Matrix;

    #[test]
    fn momentum_step_is_scale_axpy_add_assign_bit_for_bit() {
        let ramp = |n: usize, seed: u32| -> Vec<f32> {
            (0..n as u32)
                .map(|i| ((i.wrapping_mul(2654435761) ^ seed) % 2003) as f32 / 977.0 - 1.0)
                .collect()
        };
        let (rows, cols) = (7, 13);
        let mut grad = ramp(rows * cols, 3);
        grad[5] = f32::NAN;
        grad[6] = f32::INFINITY;
        grad[7] = -0.0;
        for (momentum, scale) in [(0.9f32, -0.05f32), (0.0, -0.05), (0.9, 0.0), (0.0, 0.0)] {
            let mut w = Matrix::from_vec(rows, cols, ramp(rows * cols, 1));
            let mut v = Matrix::from_vec(rows, cols, ramp(rows * cols, 2));
            let g = Matrix::from_vec(rows, cols, grad.clone());
            let (mut w_fused, mut v_fused) = (w.clone(), v.clone());
            // Two steps, so the second starts from a velocity holding NaN/Inf.
            for _ in 0..2 {
                v.scale(momentum);
                v.axpy(scale, &g);
                w.add_assign(&v);
                momentum_step(
                    w_fused.as_mut_slice(),
                    v_fused.as_mut_slice(),
                    g.as_slice(),
                    momentum,
                    scale,
                );
            }
            let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&w), bits(&w_fused), "weights, m={momentum} s={scale}");
            assert_eq!(bits(&v), bits(&v_fused), "velocity, m={momentum} s={scale}");
        }
    }
}
