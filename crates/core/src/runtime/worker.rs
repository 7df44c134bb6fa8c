//! The worker: Algorithm 2 of the paper, for every scheme alike.
//!
//! Per iteration: forward, then backward with every layer's whole sync —
//! Send → Receive → Move — scheduled against the back-propagation of the
//! layers below it (wait-free backpropagation). The per-layer gradient
//! callback fires that layer's [`Syncer::send`] and then drains, without
//! blocking, whatever has arrived for the layers already done: each frame
//! goes to [`Syncer::receive`], and a round that completes to
//! [`Syncer::apply`], into layers the backward pass has finished with and
//! lends out for exactly that ([`poseidon_nn::Finished`]). What is still
//! outstanding when the bottom layer is done is received by a blocking tail,
//! through the same [`Exchange::dispatch`], until every syncer reports
//! complete (the completion vector `C` is all ones). How a scheme does any
//! of it is the syncer's business; the worker routes the frames.
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
//! payload fails validation, or whose header fits no layer or kind this
//! worker takes, is poisoned: counted, diagnosed and dropped, never a
//! process abort.

use super::{note_poisoned_frame, route, NodeOutcome, RunPlan};
use crate::checkpoint::{LayerCheckpoint, WorkerCheckpoint};
use crate::metrics;
use crate::syncer::{self, Syncer};
use crate::telemetry;
use crate::transport::{Message, Transport, TransportError};
use crate::wire::CodecError;
use poseidon_nn::data::Dataset;
use poseidon_nn::loss::SoftmaxCrossEntropy;
use poseidon_nn::{BackwardNeeds, Finished, Layer, Model, ParamBlock};
use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

/// What one worker has that its peers do not; everything else it reads
/// from the shared `RunPlan` and its `RuntimeConfig`.
pub(crate) struct WorkerConfig {
    /// The eval set scored every `eval_every` iterations (worker 0 only).
    pub eval: Option<Dataset>,
    /// Worker state exported by a previous segment, to resume from.
    pub restore: Option<WorkerCheckpoint>,
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
    run: &'a RunPlan<'a>,
    endpoint: &'a T,
    layers: BTreeMap<usize, LayerSync>,
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
    fn send(&mut self, l: usize, layer: &mut dyn Layer) {
        let (run, endpoint, epoch, iter) = (self.run, self.endpoint, self.epoch, self.iter);
        let Some(state) = self.layers.get_mut(&l) else {
            return;
        };
        let emit = |to, msg| route(run, endpoint, epoch, to, msg);
        state
            .syncer
            .send(layer, iter as u64, run.scale_at(iter), emit);
        // The layer's sync window opens the instant its gradient left
        // (WFBP); it closes when the outcome is applied in `dispatch`. The
        // span lives on the layer's own lane because windows of different
        // layers overlap.
        if telemetry::is_enabled() {
            telemetry::instant("grad.ready", l as u64, iter as u64);
            telemetry::span_begin_lane("wfbp.sync", l as u32, l as u64, iter as u64);
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
        let (me, iter) = (self.endpoint.endpoint_id(), self.iter);
        match self.endpoint.recv_timeout(self.run.cfg.comm_timeout) {
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

    /// Takes one received frame to its layer's syncer, and a round it
    /// completes into the replica — unless the frame goes elsewhere: control
    /// traffic and poisoned payloads are dropped, a frame for the next
    /// iteration is stashed, one for an unsent layer parked.
    fn dispatch<M: Model>(&mut self, from: usize, msg: Message, replica: &mut Replica<'_, '_, M>) {
        // Control traffic is consumed by the reliability layer; any that
        // surfaces here (a peer acking over a bare transport) carries no
        // training state and is dropped before the iteration bookkeeping.
        if msg.is_control() {
            return;
        }
        let (run, endpoint, epoch, iter) = (self.run, self.endpoint, self.epoch, self.iter);
        let msg_iter = msg.iter() as usize;
        if msg_iter > iter {
            self.stashed.push_back((from, msg));
            return;
        }
        assert_eq!(msg_iter, iter, "stale message from a past iteration");
        let layer = msg.layer() as usize;
        // A handoff moves pairs between shards: no worker takes one.
        let state = match self.layers.get_mut(&layer) {
            Some(state) if !matches!(msg, Message::Handoff { .. }) => state,
            _ => {
                let e = CodecError::Malformed("a frame no layer of this worker takes");
                note_poisoned_frame(endpoint.endpoint_id(), from, msg.tag_name(), &e);
                return;
            }
        };
        if !state.sent {
            state.parked.push((from, msg));
            return;
        }
        let (s, what) = (&mut state.syncer, msg.tag_name());
        let was_complete = s.is_complete();
        let params = replica.params_mut(layer);
        let emit = |to, msg| route(run, endpoint, epoch, to, msg);
        if let Err(e) = s.receive(from, msg, params, emit) {
            note_poisoned_frame(endpoint.endpoint_id(), from, what, &e);
            return;
        }
        if !was_complete && s.is_complete() {
            s.apply(params, iter as u64, run.scale_at(iter));
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
    run: &RunPlan<'_>,
    local: WorkerConfig,
    mut net: M,
    data: Dataset,
    mut endpoint: T,
) -> NodeOutcome<M> {
    let (cfg, coordinator) = (run.cfg, &run.coordinator);
    let (workers, me) = (cfg.workers, endpoint.endpoint_id());
    telemetry::set_thread_track(format!("worker {me}"));
    // Pin this worker thread's share of the compute budget; the layer
    // kernels read it thread-locally when fanning out batch work.
    poseidon_nn::parallel::set_compute_threads(cfg.compute.threads_per_worker(workers).max(1));
    let head = SoftmaxCrossEntropy;

    // Metrics handles resolved once per worker, so recording inside the
    // loop never touches the registry mutex. The health verdict reads the
    // busy histogram, this worker's own cell, so it records ungated.
    let worker_label = me.to_string();
    let worker: [(&'static str, &str); 1] = [("worker", &worker_label)];
    let m_step = metrics::histogram("poseidon_step_time_ns", &worker);
    let m_busy = metrics::global().owned_histogram("poseidon_busy_time_ns", &worker);
    let m_apply = metrics::histogram("poseidon_apply_ns", &worker);
    let m_drained = metrics::counter("poseidon_wfbp_drained_frames_total", &worker);

    // One syncer per trainable layer, built from the plan.
    let mut layers = BTreeMap::new();
    for (l, _) in coordinator.scheme_assignment() {
        let layer_label = l.to_string();
        layers.insert(
            l,
            LayerSync {
                syncer: Syncer::for_layer(coordinator, l, me)
                    .with_momentum(cfg.momentum)
                    .with_apply_histogram(m_apply.clone()),
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

    // What each slot's backward has to produce follows from where the slot
    // sits and how its update travels: nobody reads the gradient a slot fed
    // by the model input would pass further down, and the syncer knows
    // whether its layer ships the dense weight gradient at all.
    for id in 0..net.num_slots() {
        let needs = BackwardNeeds {
            input_grad: !net.reads_input(id),
            weight_grad: layers.get(&id).is_none_or(|l| l.syncer.needs_weight_grad()),
        };
        if let Some(layer) = net.slot_mut(id) {
            layer.set_backward_needs(needs);
        }
    }

    // Resume: overwrite the fresh replica with the checkpointed one —
    // params, and every syncer's persistent state (velocities, lossy-codec
    // streams) — so the segmented run is bitwise-identical to an
    // uninterrupted one.
    if let Some(ck) = local.restore {
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
            layers
                .get_mut(&l)
                .expect("checkpointed layer has a syncer")
                .syncer
                .import_state(lc.syncer);
        }
    }

    let mut ex = Exchange {
        run,
        endpoint: &endpoint,
        layers,
        stashed: VecDeque::new(),
        pending: VecDeque::new(),
        iter: cfg.start_iter,
        epoch: 0,
        completed: 0,
    };

    let mut losses = Vec::with_capacity(cfg.iterations);
    let mut test_errors = Vec::new();

    let m_epoch = metrics::gauge("poseidon_membership_epoch", &[]);
    for iter in cfg.start_iter..cfg.start_iter + cfg.iterations {
        let _iter_span = telemetry::span("iter", me as u64, iter as u64);
        telemetry::set_iteration(iter as u64);
        // Membership epoch for this iteration: bump the transport stamp at
        // the boundary so everything sent from here on carries the new
        // epoch, and anything still addressed to the old ownership map is
        // recognisably stale.
        let epoch = run.schedule.epoch_at(iter);
        if endpoint.current_epoch() != epoch {
            endpoint.set_epoch(epoch);
            m_epoch.set(epoch as u64);
        }
        ex.begin_iteration(iter, epoch);
        let iter_started = Instant::now();

        if let Some((_, ms)) = cfg.straggler_delay_ms.filter(|&(w, _)| w == me) {
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
        let batch = cfg.batch_per_worker;
        let (x, y) = data.minibatch(iter * batch, batch);
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
        m_busy.observe(iter_started.elapsed().as_nanos() as u64);

        // Receive what is still outstanding until the completion vector is
        // all ones.
        let mut replica = Replica::Whole(&mut net);
        while ex.completed < num_syncers {
            let (from, msg) = ex.wait_next();
            ex.dispatch(from, msg, &mut replica);
        }

        m_step.record(iter_started.elapsed().as_nanos() as u64);

        // Periodic evaluation (worker 0 only: the runner hands the eval set
        // to worker 0 alone).
        if let Some(eval_set) = &local.eval {
            if cfg.eval_every > 0 && (iter + 1) % cfg.eval_every == 0 {
                let err = evaluate_error(&mut net, eval_set);
                test_errors.push((iter + 1, err));
            }
        }
    }

    let layers = ex.layers;
    endpoint
        .shutdown()
        .unwrap_or_else(|e| panic!("worker {me}: transport shutdown failed: {e}"));

    // The replica leaves as an ordinary model again.
    for id in 0..net.num_slots() {
        if let Some(layer) = net.slot_mut(id) {
            layer.set_backward_needs(BackwardNeeds::ALL);
        }
    }

    // Export: the complete per-layer state a future segment needs to resume
    // bitwise-identically — replica params and each syncer's persistent
    // state (SFB and collective velocity, lossy-codec residuals).
    let checkpoint = cfg.export_state.then(|| {
        let next_iter = cfg.start_iter + cfg.iterations;
        WorkerCheckpoint {
            worker: me as u32,
            next_iter: next_iter as u64,
            epoch: run.schedule.epoch_at(next_iter),
            layers: layers
                .iter()
                .map(|(&l, sync)| LayerCheckpoint {
                    layer: l as u32,
                    params: syncer::flatten_params(
                        net.slot(l)
                            .and_then(|x| x.params())
                            .expect("trainable layer"),
                    ),
                    syncer: sync.syncer.export_state(),
                })
                .collect(),
        }
    });

    NodeOutcome::Worker {
        losses,
        test_errors,
        net,
        busy_p50_ns: m_busy.snapshot().quantile(0.5),
        checkpoint,
        chaos: None,
    }
}

/// Top-1 error of `net` on `data` (whole set, one batch of all samples).
pub fn evaluate_error<M: Model>(net: &mut M, data: &Dataset) -> f32 {
    let (x, y) = data.minibatch(0, data.len());
    let logits = net.forward(&x);
    let out = SoftmaxCrossEntropy.evaluate(&logits, &y);
    1.0 - out.correct as f32 / data.len() as f32
}
