//! Per-layer syncers: the client-library state machine of Section 4.1.
//!
//! "The client library will create a syncer for each NN layer during network
//! assembling (so that each layer one-to-one maps to one syncer), accounting
//! for its parameter synchronisation." A syncer is the one place a scheme's
//! worker side lives, behind three calls the worker makes alike for every
//! scheme: [`Syncer::send`] (`Move(GPU→CPU)` + `Send`: the layer's frames,
//! each addressed to a [`Dest`]), [`Syncer::receive`] (one frame validated,
//! decoded and staged, or refused as poisoned) and [`Syncer::apply`]
//! (`Move(CPU→GPU)`: the completed round into the replica).
//! [`Syncer::is_complete`] is the layer's entry in the client's completion
//! vector `C`.
//!
//! Who owns the gradient: an identity PS push, and the identity ring's
//! head (worker 0), on a little-endian host do not copy it. [`Syncer::send`]
//! moves the layer's weight gradient into a shared buffer, each chunk or
//! segment frame that lies in the weights is a view of its range, and
//! [`Syncer::apply`] gives the buffer back to the layer when the round
//! completes. A frame still held then — a retransmit copy, say — keeps the
//! buffer, and the layer gets a fresh one, which its next backward writes
//! over. Frames that touch the bias and every lossy codec encode into pool
//! leases as before.
//!
//! Where a round lands: a PS chunk, and a collective segment's new
//! velocity, step the replica the moment they arrive, inside
//! [`Syncer::receive`]. The identity ring's last hop folds, frames and
//! steps in one pass; every replica keeps a segment's velocity as the
//! DISTRIBUTE frame that carried it.
//!
//! Where the frames go is not decided here: every destination, every
//! collective hop and every expected sender comes from the layer's
//! [`Route`] ([`crate::route`]), the table the shard and the simulator
//! replay too; a syncer computes what travels. A collective frame from a
//! worker its route does not come from is refused like a poisoned payload.
//!
//! This module does no I/O — it builds frames and the runtime moves them — so
//! it is exhaustively unit tested; the [`crate::runtime`] threads drive it
//! with real messages.

use crate::chunk::{split_at_bias, Chunk};
use crate::config::{Codec, CommScheme};
use crate::coordinator::Coordinator;
use crate::metrics::Histogram;
use crate::pool::BufPool;
pub use crate::route::Dest;
use crate::route::{self, Hop, Payload, Route};
use crate::telemetry;
use crate::transport::Message;
use crate::wire::{self, CodecError, Seed, COLLECTIVE_DISTRIBUTE, COLLECTIVE_REDUCE};
use bytes::Bytes;
use poseidon_nn::{Layer, ParamBlock};
use poseidon_tensor::bytesio;
use poseidon_tensor::compress::{make_compressor, Compressor};
use poseidon_tensor::{Matrix, SfBatch};
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// What a completed syncer's round amounts to, before [`Syncer::apply`]
/// moves it into the replica. PS and collective layers have none: every
/// `ParamChunk` ([`Syncer::on_param_chunk`]) and every collective segment's
/// velocity stepped the replica the moment it arrived.
#[derive(Debug)]
pub enum SyncOutcome {
    /// Fresh parameters from the Adam matrix pull (flattened weights ++
    /// bias); overwrite the replica's parameters.
    FreshParams(Vec<f32>),
    /// All workers' sufficient-factor batches in worker-id order (including
    /// our own); reconstruct and apply `scale · Σ` locally.
    SfApply(Vec<SfBatch>),
}

/// A syncer's persistent cross-iteration state, exported at an iteration
/// boundary for checkpoint/restore.
///
/// Everything here survives iterations: the collective schemes' client-side
/// velocity replicas, SFB's momentum velocity and every error-feedback
/// compressor residual. A syncer rebuilt from this state compresses, folds
/// and steps bitwise-identically to one that never stopped. `None` entries
/// mean "not yet materialised" (a lazily created compressor that never ran,
/// a velocity before its first fold or step).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SyncerState {
    /// SFB's velocity replica `(rows, cols, weights, bias)`.
    pub sf_velocity: Option<(u32, u32, Vec<f32>, Vec<f32>)>,
    /// Per-segment collective velocity replicas.
    pub velocity: Vec<Option<Vec<f32>>>,
    /// Per-chunk PS push-compressor residuals.
    pub push_residuals: Vec<Option<Vec<f32>>>,
    /// Per-segment collective hop-compressor residuals.
    pub seg_residuals: Vec<Option<Vec<f32>>>,
}

/// A frame of a kind the layer's scheme never receives.
const WRONG_KIND: CodecError =
    CodecError::Malformed("a frame kind the layer's scheme never receives");

/// Per-layer synchronisation state for one worker.
#[derive(Debug)]
pub struct Syncer {
    layer: usize,
    /// Where this layer's frames go ([`crate::route`]).
    route: Route,
    param_elems: usize,
    /// Offset-ordered chunks of this layer (PS/1-bit paths).
    chunks: Vec<Chunk>,
    workers: usize,
    me: usize,
    // --- per-iteration state ---
    /// PS: which chunks have been applied to the replica this iteration.
    chunk_done: Vec<bool>,
    /// PS: staging for a chunk that straddles the weights/bias boundary, the
    /// one kind that cannot be encoded from or decoded into parameter storage
    /// directly. SFB: one row block of the rebuilt weight gradient
    /// ([`Self::sf_step`]). Kept between iterations.
    scratch: Vec<f32>,
    received_matrix: Option<Vec<f32>>,
    /// SFB: every worker's factor batch this iteration, ours included.
    sf_batches: Vec<Option<SfBatch>>,
    // --- collective (ring) state ---
    /// Momentum coefficient µ replicated client-side; must match the PS
    /// shards' for bitwise parity across schemes.
    momentum: f32,
    /// Offset-ordered `(offset, len)` segments for the collective schemes:
    /// the layer's KV chunks, or one whole-layer segment when it has none.
    segs: Vec<(usize, usize)>,
    /// Per-segment scaled velocity `v` as identity wire bytes — the
    /// client-side replica of the PS shard's velocity buffer, kept as the
    /// identity DISTRIBUTE frame that carried it. Persistent across
    /// iterations.
    velocity: Vec<Option<Bytes>>,
    /// The update scale of this round's `Send`: `Some` once it has fired.
    /// The hop or fold that adds this worker's contribution forms
    /// `scale·g` from the layer's gradient storage then.
    round_scale: Option<f32>,
    /// Per-segment completion flag this iteration.
    seg_done: Vec<bool>,
    // --- compression plane ---
    /// This layer's gradient codec (identity = the bitwise-exact f32 wire).
    codec: Codec,
    /// Per-chunk push compressors (error-feedback state), PS path. Lazily
    /// created; `None` until the chunk first compresses.
    push_comp: Vec<Option<Box<dyn Compressor>>>,
    /// Per-segment hop compressors (error-feedback state), collective path.
    seg_comp: Vec<Option<Box<dyn Compressor>>>,
    /// SFB: the momentum velocity `(weights, bias)`, identical on every
    /// replica. Persistent across iterations.
    sf_velocity: Option<(Matrix, Vec<f32>)>,
    /// PS identity: the layer's weight gradient `(rows, cols, storage)`
    /// while this round's push frames view it; [`Self::apply`] gives it
    /// back.
    lent: Option<(usize, usize, Arc<Vec<f32>>)>,
    /// Times each write into the replica (`poseidon_apply_ns`).
    m_apply: Histogram,
}

impl Syncer {
    /// Creates the syncer for `layer` under `scheme`.
    ///
    /// `chunks` must be the layer's offset-ordered KV pairs (may be empty for
    /// pure SFB/Adam/1-bit layers); `param_elems` the layer's flattened
    /// parameter count; `me` this worker's id out of `workers`.
    pub fn new(
        layer: usize,
        scheme: CommScheme,
        chunks: Vec<Chunk>,
        param_elems: usize,
        workers: usize,
        me: usize,
    ) -> Self {
        assert!(me < workers, "worker id out of range");
        let route = Route::new(scheme, workers);
        let n_chunks = chunks.len();
        let segs = match route.payload() {
            Payload::Segments => route::segments(&chunks, param_elems),
            _ => Vec::new(),
        };
        let n_segs = segs.len();
        Self {
            layer,
            route,
            param_elems,
            chunks,
            workers,
            me,
            chunk_done: vec![false; n_chunks],
            scratch: Vec::new(),
            received_matrix: None,
            sf_batches: vec![None; workers],
            momentum: 0.0,
            velocity: vec![None; n_segs],
            round_scale: None,
            seg_done: vec![false; n_segs],
            codec: Codec::Identity,
            push_comp: (0..n_chunks).map(|_| None).collect(),
            seg_comp: (0..n_segs).map(|_| None).collect(),
            segs,
            sf_velocity: None,
            lent: None,
            m_apply: Histogram::new(),
        }
    }

    /// The syncer the coordinator's plan gives `layer` on worker `me`.
    pub fn for_layer(coordinator: &Coordinator, layer: usize, me: usize) -> Self {
        let mut s = Self::new(
            layer,
            coordinator.best_scheme(layer),
            coordinator.chunk_table().layer_chunks(layer),
            coordinator.layers()[layer].param_elems,
            coordinator.cluster().workers,
            me,
        )
        .with_codec(coordinator.best_codec(layer));
        s.route = Route::for_layer(coordinator, layer);
        s
    }

    /// Sets the momentum coefficient µ the collective schemes replicate
    /// client-side (must equal the PS shards' µ for bitwise parity across
    /// schemes). Builder-style so non-collective call sites stay untouched.
    pub fn with_momentum(mut self, momentum: f32) -> Self {
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0,1)");
        self.momentum = momentum;
        self
    }

    /// Sets this layer's gradient codec (builder-style; the default identity
    /// keeps the pre-codec f32 wire bitwise intact). Factor schemes (SFB /
    /// Adam) reject lossy codecs — the factors *are* the compression.
    pub fn with_codec(mut self, codec: Codec) -> Self {
        assert!(
            codec == Codec::Identity || self.route.payload() != Payload::Factors,
            "layer {}: {} cannot ride codec {codec}",
            self.layer,
            self.route.scheme()
        );
        self.codec = codec;
        self
    }

    /// Times each write into the replica into `hist` (builder-style).
    pub fn with_apply_histogram(mut self, hist: Histogram) -> Self {
        self.m_apply = hist;
        self
    }

    /// Encodes one PS push chunk with this layer's codec into a pooled
    /// buffer, keeping per-chunk error-feedback state across iterations.
    pub fn encode_push(&mut self, chunk_idx: usize, vals: &[f32]) -> Bytes {
        Self::compress(self.codec, &mut self.push_comp[chunk_idx], vals)
    }

    /// [`Self::encode_push`] of chunk `chunk_idx` read straight from the
    /// layer's gradient storage (the flat layout is `weights ++ bias`).
    pub fn encode_push_grad(&mut self, chunk_idx: usize, p: &ParamBlock) -> Bytes {
        self.encode_push_from(chunk_idx, p.grad_weights.as_slice(), p.grad_bias.as_slice())
    }

    /// [`Self::encode_push`] of chunk `chunk_idx` of the flat gradient
    /// `w ++ b`, read where it lies.
    fn encode_push_from(&mut self, chunk_idx: usize, w: &[f32], b: &[f32]) -> Bytes {
        let (wr, br) = self.chunks[chunk_idx].split_at_bias(w.len());
        let vals = if br.is_empty() {
            &w[wr]
        } else if wr.is_empty() {
            &b[br]
        } else {
            self.scratch.clear();
            self.scratch.extend_from_slice(&w[wr]);
            self.scratch.extend_from_slice(&b[br]);
            &self.scratch
        };
        Self::compress(self.codec, &mut self.push_comp[chunk_idx], vals)
    }

    /// One stream's encode: identity is stateless, every other codec goes
    /// through the stream's lazily created error-feedback compressor.
    fn compress(codec: Codec, comp: &mut Option<Box<dyn Compressor>>, vals: &[f32]) -> Bytes {
        if codec == Codec::Identity {
            return wire::encode_f32s_pooled(vals);
        }
        let comp = comp.get_or_insert_with(|| make_compressor(codec, vals.len()));
        wire::encode_codec(comp.as_mut(), vals)
    }

    /// Exports the persistent cross-iteration state (velocity replicas and
    /// compressor residuals) at an iteration boundary.
    pub fn export_state(&self) -> SyncerState {
        SyncerState {
            sf_velocity: self.sf_velocity.as_ref().map(|(vw, vb)| {
                let (rows, cols) = vw.shape();
                (rows as u32, cols as u32, vw.as_slice().to_vec(), vb.clone())
            }),
            velocity: self
                .velocity
                .iter()
                .map(|v| {
                    v.as_deref()
                        .map(|v| wire::decode_f32s(v).expect("f32 bytes"))
                })
                .collect(),
            push_residuals: residuals(&self.push_comp),
            seg_residuals: residuals(&self.seg_comp),
        }
    }

    /// Restores state exported by [`Self::export_state`] into a freshly
    /// constructed syncer (same layer, scheme, chunks and codec). Compressors
    /// are re-materialised only where the exported state had them, so the
    /// lazy-creation pattern — and with it the bitwise byte stream — is
    /// preserved.
    ///
    /// # Panics
    ///
    /// Panics if the state's shape does not match this syncer's chunk and
    /// segment layout.
    pub fn import_state(&mut self, st: SyncerState) {
        let sf = st
            .sf_velocity
            .map(|(m, n, vw, vb)| (Matrix::from_vec(m as _, n as _, vw), vb));
        let segs = self.segs.iter().map(|&(_, len)| len);
        assert_eq!(st.velocity.len(), segs.len(), "velocity segment count");
        for (v, len) in st.velocity.iter().zip(segs.clone()) {
            assert!(
                v.as_ref().is_none_or(|v| v.len() == len),
                "velocity segment length"
            );
        }
        self.sf_velocity = sf;
        self.velocity = (st.velocity.into_iter())
            .map(|v| v.as_deref().map(wire::encode_f32s))
            .collect();
        let chunks = self.chunks.iter().map(|c| c.len);
        self.push_comp = restore(self.codec, st.push_residuals, chunks);
        self.seg_comp = restore(self.codec, st.seg_residuals, segs);
    }

    /// `f32` elements of buffer this syncer holds on to between iterations:
    /// the kept velocity frames and the staging scratch. Constant once every
    /// buffer has been used.
    pub fn retained_elems(&self) -> usize {
        let velocity = self.velocity.iter().flatten().map(|v| v.len() / 4);
        velocity.sum::<usize>() + self.scratch.capacity()
    }

    /// Segment `seg`'s kept velocity as identity wire bytes — under the
    /// identity codec, the very DISTRIBUTE frame that carried it — or `None`
    /// before its first fold.
    pub fn kept_velocity(&self, seg: usize) -> Option<&[u8]> {
        self.velocity[seg].as_deref()
    }

    /// Whether the layer's backward must produce the dense weight gradient:
    /// not when its update travels as sufficient factors.
    pub fn needs_weight_grad(&self) -> bool {
        self.route.payload() != Payload::Factors
    }

    /// Where this worker's `Send` frames go, as `(destination, chunk or
    /// segment)`.
    fn sends(&self) -> Vec<(Dest, usize)> {
        let n = self.chunks.len().max(self.segs.len());
        let home = |c: usize| self.chunks[c].shard;
        self.route.sends(self.me, n, home).collect()
    }

    /// `Send`, once the layer's backward is done: hands `emit` the layer's
    /// frames for iteration `iter` one at a time, so each is on its way
    /// while the next encodes. Collectives scale the gradient by `scale`.
    ///
    /// An identity PS push, and the identity ring's head, on a little-endian
    /// host lend the layer's weight gradient to their frames instead of
    /// encoding it: the storage moves into a shared buffer, a chunk or
    /// segment that lies in the weights is a view of its range
    /// (`wire::identity_view`), and [`Self::apply`] gives the storage back
    /// once the round is in. A frame that touches the bias is encoded as
    /// before.
    pub fn send(
        &mut self,
        layer: &mut dyn Layer,
        iter: u64,
        scale: f32,
        mut emit: impl FnMut(Dest, Message),
    ) {
        let id = self.layer as u32;
        match self.route.payload() {
            Payload::Chunks => {
                let params = layer.params_mut().expect("a trainable layer");
                let lent = self.lend_grad_weights(params);
                let view = lent.as_ref().map(wire::identity_view);
                let w = lent
                    .as_deref()
                    .map_or(params.grad_weights.as_slice(), Vec::as_slice);
                for (to, idx) in self.sends() {
                    let (wr, br) = self.chunks[idx].split_at_bias(w.len());
                    let data = match &view {
                        Some(view) if br.is_empty() => view.slice(4 * wr.start..4 * wr.end),
                        _ => self.encode_push_from(idx, w, params.grad_bias.as_slice()),
                    };
                    let msg = Message::GradChunk {
                        iter,
                        layer: id,
                        chunk: idx as u32,
                        codec: self.codec,
                        data,
                    };
                    emit(to, msg);
                }
            }
            Payload::Factors => {
                let batch = layer.sufficient_factors().expect("an FC layer");
                let data = bytesio::encode_sf_batch(&batch);
                let msg = Message::SfPush {
                    iter,
                    layer: id,
                    data,
                };
                for (to, _) in self.sends() {
                    emit(to, msg.clone());
                }
                if self.route.scheme() == CommScheme::Sfb {
                    self.set_own_sf(batch);
                }
            }
            Payload::Segments => {
                let params = layer.params_mut().expect("a trainable layer");
                for (to, msg) in self.send_collective(params, iter, scale) {
                    emit(to, msg);
                }
            }
        }
    }

    /// `Receive`: validates and decodes one frame of this layer, then stages
    /// it or — a PS chunk, a collective segment's velocity — steps `params`
    /// by it where it lies. A collective frame's onward hops go to `emit`.
    ///
    /// # Errors
    ///
    /// The [`CodecError`] of a poisoned frame — a payload that fails
    /// validation, a kind the layer's scheme never receives, a chunk or
    /// segment the layer does not have: nothing is staged or written.
    ///
    /// # Panics
    ///
    /// Panics on a protocol violation (see the `on_*` handlers).
    pub fn receive(
        &mut self,
        from: usize,
        msg: Message,
        params: &mut ParamBlock,
        mut emit: impl FnMut(Dest, Message),
    ) -> Result<(), CodecError> {
        let iter = msg.iter();
        match msg {
            Message::ParamChunk {
                chunk, codec, data, ..
            } => self.timed_apply(iter, |s| {
                s.on_param_chunk(chunk as usize, codec, &data, params)
            }),
            Message::ParamMatrix { data, .. } => {
                let fresh = wire::decode_codec(Codec::Identity, &data, self.param_elems)?;
                self.on_param_matrix(fresh)
            }
            Message::SfPush { data, .. } => {
                let batch = decode_sf_batch(&data, params.weights.shape())?;
                self.on_peer_sf(from, batch)
            }
            Message::Collective { route, data, .. } => {
                for (to, msg) in self.on_collective(from, route, data, params, iter)? {
                    emit(to, msg);
                }
                Ok(())
            }
            _ => Err(WRONG_KIND),
        }
    }

    /// `Move(CPU→GPU)`: applies iteration `iter`'s completed round to
    /// `params` — Adam's fresh parameters, or SFB's reconstruction through
    /// the momentum step at update scale `scale` — and gives back a weight
    /// gradient this round's frames viewed. A PS chunk and a collective
    /// segment already stepped the replica as they arrived.
    ///
    /// # Panics
    ///
    /// Panics if the round is not complete.
    pub fn apply(&mut self, params: &mut ParamBlock, iter: u64, scale: f32) {
        self.give_back_grad_weights(params);
        let Some(outcome) = self.take_outcome() else {
            return;
        };
        self.timed_apply(iter, |s| match outcome {
            SyncOutcome::FreshParams(flat) => write_params_flat(params, &flat),
            SyncOutcome::SfApply(batches) => s.sf_step(params, &batches, scale),
        });
    }

    /// Moves `p`'s weight gradient into the shared buffer this round's
    /// identity frames view, leaving a 1 × 1 placeholder in its place;
    /// `None`, and `p` untouched, where the frames are encoded instead: a
    /// lossy codec, a big-endian host, or no chunk that lies in the weights.
    /// A collective's segments are its chunks, or one whole-layer segment,
    /// which touches the bias.
    fn lend_grad_weights(&mut self, p: &mut ParamBlock) -> Option<Arc<Vec<f32>>> {
        let w_len = p.grad_weights.len();
        let in_weights = |c: &Chunk| c.split_at_bias(w_len).1.is_empty();
        if self.codec != Codec::Identity
            || cfg!(target_endian = "big")
            || !self.chunks.iter().any(in_weights)
        {
            return None;
        }
        assert!(
            self.lent.is_none(),
            "layer {}: weight gradient lent twice in one round",
            self.layer
        );
        let (rows, cols) = p.grad_weights.shape();
        let grad = std::mem::replace(&mut p.grad_weights, Matrix::zeros(1, 1));
        let buf = Arc::new(grad.into_vec());
        self.lent = Some((rows, cols, Arc::clone(&buf)));
        Some(buf)
    }

    /// Gives `p` back the weight gradient this round's frames viewed.
    /// A frame still held somewhere (a retransmit copy, a frame not yet
    /// dropped) keeps that storage; the layer gets a fresh buffer of the
    /// same shape instead, which its next backward writes over.
    fn give_back_grad_weights(&mut self, p: &mut ParamBlock) {
        if let Some((rows, cols, buf)) = self.lent.take() {
            let grad = Arc::try_unwrap(buf).unwrap_or_else(|_| vec![0.0; rows * cols]);
            p.grad_weights = Matrix::from_vec(rows, cols, grad);
        }
    }

    /// SFB's update: every worker's factors reconstructed and stepped into
    /// `p` through the replicated momentum velocity. The weight gradient
    /// `Uᵀ·V` is rebuilt [`SF_BLOCK`] elements (whole rows) at a time into
    /// `scratch`, which stays in L2, and each block is stepped into the
    /// weights and the velocity while it is there: the dense gradient is
    /// never written out. Every element gets the same GEMM fold and the
    /// same momentum step as through [`reconstruct_sf_batches`], so the
    /// bits are the same.
    fn sf_step(&mut self, p: &mut ParamBlock, batches: &[SfBatch], scale: f32) {
        let ((rows, cols), mu) = (p.weights.shape(), self.momentum);
        let (factors, grad_b) = stack_sf_batches(batches, rows, cols);
        let (vw, vb) = self
            .sf_velocity
            .get_or_insert_with(|| (Matrix::zeros(rows, cols), vec![0.0; rows]));
        let block = (SF_BLOCK / cols).max(1) * cols;
        self.scratch.resize(block, 0.0);
        let w = p.weights.as_mut_slice().chunks_mut(block);
        for (r0, (w, vw)) in (0..)
            .step_by(block / cols)
            .zip(w.zip(vw.as_mut_slice().chunks_mut(block)))
        {
            let g = &mut self.scratch[..w.len()];
            match &factors {
                Some((u, v)) => u.matmul_tn_rows_into(v, r0..r0 + w.len() / cols, g),
                None => g.fill(0.0),
            }
            momentum_step(w, vw, g, mu, scale);
        }
        momentum_step(p.bias.as_mut_slice(), vb, &grad_b, mu, scale);
    }

    /// Runs one write into the replica under the `apply` span and histogram.
    fn timed_apply<R>(&mut self, iter: u64, write: impl FnOnce(&mut Self) -> R) -> R {
        let layer = self.layer as u64;
        telemetry::span_begin("apply", layer, iter);
        let started = Instant::now();
        let out = write(self);
        telemetry::span_end("apply", layer, iter);
        self.m_apply.record(started.elapsed().as_nanos() as u64);
        out
    }

    /// The frame that carries a collective hop of iteration `iter` to
    /// worker `to`, along the packed `route` (phase ⊕ origin ⊕ segment,
    /// [`wire::pack_collective`]).
    fn hop(&self, iter: u64, to: usize, route: u32, data: Bytes) -> (Dest, Message) {
        (Dest::Worker(to), self.frame(iter, route, data))
    }

    /// A collective frame of iteration `iter` along the packed `route`.
    fn frame(&self, iter: u64, route: u32, data: Bytes) -> Message {
        Message::Collective {
            iter,
            layer: self.layer as u32,
            route,
            codec: self.codec,
            data,
        }
    }

    /// Resets the per-iteration state (the completion-vector entry goes back
    /// to 0).
    pub fn begin_iteration(&mut self) {
        self.chunk_done.fill(false);
        self.received_matrix = None;
        self.sf_batches.fill(None);
        // Collective per-iteration state only — the velocity is the optimiser
        // state and lives across iterations (next round's µ·v).
        self.round_scale = None;
        self.seg_done.fill(false);
    }

    /// The collective `Send`. The identity ring's head (worker 0) sends its
    /// raw gradient `g₀` — views of the lent weight gradient where a segment
    /// lies in the weights — and the hop after it seeds the fold from it;
    /// under a lossy codec the head sends the fold's prefix `µ·v + scale·g₀`
    /// instead, compressed with the segment's error feedback. Every other
    /// worker sends nothing: the hop or fold that adds its contribution
    /// forms `scale·g` from the layer's gradient storage then.
    fn send_collective(
        &mut self,
        p: &mut ParamBlock,
        iter: u64,
        scale: f32,
    ) -> Vec<(Dest, Message)> {
        assert!(
            self.workers > 1,
            "collective schemes need at least two workers"
        );
        assert_eq!(p.num_params(), self.param_elems, "gradient length mismatch");
        self.round_scale = Some(scale);
        let sends = self.sends();
        let lent = match sends.is_empty() {
            true => None,
            false => self.lend_grad_weights(p),
        };
        let view = lent.as_ref().map(wire::identity_view);
        let gw = lent
            .as_deref()
            .map_or(p.grad_weights.as_slice(), Vec::as_slice);
        let gb = p.grad_bias.as_slice();
        let mut out = Vec::new();
        for (to, seg) in sends {
            let data = self.head_frame(seg, view.as_ref(), (gw, gb), scale);
            let route = wire::pack_collective(COLLECTIVE_REDUCE, 0, seg);
            out.push((to, self.frame(iter, route, data)));
        }
        out
    }

    /// The ring head's REDUCE frame for segment `seg` of the flat gradient
    /// `gw ++ gb`: a `view` of the lent weights where the segment lies in
    /// them, a copy of `g₀` under the identity codec, the fold's prefix
    /// under a lossy one.
    fn head_frame(
        &mut self,
        seg: usize,
        view: Option<&Bytes>,
        (gw, gb): (&[f32], &[f32]),
        scale: f32,
    ) -> Bytes {
        let (off, len) = self.segs[seg];
        let (wr, br) = split_at_bias(off..off + len, gw.len());
        match view {
            Some(view) if br.is_empty() => view.slice(4 * wr.start..4 * wr.end),
            _ if self.codec == Codec::Identity => {
                // Dirty lease: the runs cover every byte.
                let mut lease = BufPool::global().get_dirty(len * 4);
                for (at, g) in runs(off..off + len, gw, gb) {
                    let dst = lease[4 * at..4 * (at + g.len())].as_chunks_mut::<4>().0;
                    for (d, g) in dst.iter_mut().zip(g) {
                        *d = g.to_le_bytes();
                    }
                }
                lease.freeze()
            }
            _ => {
                // Staged, then compressed with the segment's error feedback.
                let v = self.fold_start(seg);
                let seed = Seed::over(self.momentum, v.as_deref());
                self.scratch.resize(len, 0.0);
                for (at, g) in runs(off..off + len, gw, gb) {
                    let seed = seed.at(4 * at..4 * (at + g.len()));
                    write_scaled(&mut self.scratch[at..at + g.len()], seed, scale, g);
                }
                Self::compress(self.codec, &mut self.seg_comp[seg], &self.scratch)
            }
        }
    }

    /// What the fold of segment `seg` starts from: the kept velocity when
    /// µ ≠ 0 and a fold has run, zeros (`None`) otherwise — the shard's
    /// `velocity.fill(0.0)`.
    fn fold_start(&self, seg: usize) -> Option<Bytes> {
        self.velocity[seg].clone().filter(|_| self.momentum != 0.0)
    }

    /// Handles a collective frame of iteration `iter` from
    /// worker `from_worker`, doing what its route says it does here
    /// ([`Route::hop`]) and returning the frames to forward. A segment's new
    /// velocity steps `p` where the segment lies the moment it is known.
    ///
    /// Under the identity codec each ring hop is one pass: it reads the
    /// partial off the wire and `scale·g` out of `p`'s gradient storage and
    /// writes the sums into the next frame; the hop that receives straight
    /// from the head seeds the fold from the head's raw gradient, and the
    /// last hop also steps `p` by the sums and keeps its frame as the
    /// velocity. Under a lossy codec each hop decompresses the incoming
    /// partial, adds its contribution and recompresses with its per-segment
    /// error-feedback state; the chain's terminal keeps the decode of its
    /// *own* encoding so every replica ends on the same bytes.
    ///
    /// # Errors
    ///
    /// Returns the [`CodecError`] of a poisoned frame — a payload that fails
    /// to decode, a route whose phase or segment this layer does not have
    /// or whose origin is not the head's, a sender other than the one the
    /// route expects ([`Route::sender`]), or a layer that is not a
    /// collective's; nothing is written and the segment stays incomplete,
    /// and the caller decides whether to count and drop or abort.
    ///
    /// # Panics
    ///
    /// Panics on a protocol violation: a duplicate segment, or a ring
    /// REDUCE handed over before this layer's `Send` fired. A faster
    /// neighbour's REDUCE does reach a worker that early — receives are
    /// drained between the layers of backward — so the worker parks every
    /// frame of a layer until that layer's own `Send` has fired and replays
    /// them, in arrival order, right after it.
    fn on_collective(
        &mut self,
        from_worker: usize,
        route: u32,
        payload: Bytes,
        p: &mut ParamBlock,
        iter: u64,
    ) -> Result<Vec<(Dest, Message)>, CodecError> {
        if self.route.payload() != Payload::Segments {
            return Err(WRONG_KIND);
        }
        let (phase, origin, seg) = wire::unpack_collective(route);
        if origin != 0 {
            // Every collective frame originates at the ring's head.
            return Err(CodecError::Malformed("a collective origin other than 0"));
        }
        let Some(hop) = self.route.hop(phase, self.me) else {
            return Err(CodecError::Malformed(
                "a collective phase this worker never receives",
            ));
        };
        let Some(&(off, len)) = self.segs.get(seg) else {
            return Err(CodecError::Malformed("collective segment out of range"));
        };
        if self.codec == Codec::Identity && payload.len() != len * 4 {
            let got = payload.len() / 4;
            return Err(CodecError::LengthMismatch { expect: len, got });
        }
        if self.route.sender(phase, self.me) != Some(from_worker) {
            return Err(CodecError::Malformed(
                "a collective frame from off its route",
            ));
        }
        let mut out = Vec::new();
        match hop {
            Hop::Add(_) | Hop::Fold(_) => {
                assert!(
                    !self.seg_done[seg],
                    "duplicate ring REDUCE for segment {seg}"
                );
                let Some(scale) = self.round_scale else {
                    panic!("ring REDUCE for segment {seg} before this layer's Send")
                };
                let terminal = matches!(hop, Hop::Fold(_));
                let data = if self.codec == Codec::Identity {
                    // The hop that receives straight from the head seeds
                    // the fold from its raw gradient; every later hop adds
                    // to the partial.
                    let v = self.fold_start(seg);
                    let seed = (from_worker == 0).then(|| Seed::over(self.momentum, v.as_deref()));
                    // Dirty lease: the runs cover every byte.
                    let mut lease = BufPool::global().get_dirty(len * 4);
                    let range = off..off + len;
                    wire::count_identity_read(len);
                    if terminal {
                        // Chain complete: the same pass steps the replica.
                        self.timed_apply(iter, |_| {
                            ring_hop(&mut lease, &payload, seed, scale, range, p, true)
                        });
                    } else {
                        ring_hop(&mut lease, &payload, seed, scale, range, p, false);
                    }
                    let data = lease.freeze();
                    if terminal {
                        self.keep(seg, data.clone());
                    }
                    data
                } else {
                    // Decompress–add–recompress: a poisoned frame surfaces
                    // before anything is written.
                    let mut summed = wire::decode_codec(self.codec, &payload, len)?;
                    let grads = (p.grad_weights.as_slice(), p.grad_bias.as_slice());
                    for (at, g) in runs(off..off + len, grads.0, grads.1) {
                        for (s, g) in summed[at..at + g.len()].iter_mut().zip(g) {
                            *s += scale * g;
                        }
                    }
                    let data = Self::compress(self.codec, &mut self.seg_comp[seg], &summed);
                    if terminal {
                        let v = self.distributed(seg, &data).expect("own encoding");
                        self.land(iter, seg, v, p);
                    }
                    data
                };
                match hop {
                    Hop::Fold(to) => self.distribute(iter, seg, to, &data, &mut out),
                    Hop::Add(next) => out.push(self.hop(iter, next, route, data)),
                    _ => unreachable!("a ring REDUCE adds or folds"),
                }
            }
            Hop::Land(next) => {
                assert!(
                    !self.seg_done[seg],
                    "duplicate DISTRIBUTE for segment {seg}"
                );
                let v = self.distributed(seg, &payload)?;
                if self.codec == Codec::Identity {
                    wire::count_identity_read(len);
                }
                self.land(iter, seg, v, p);
                // Forward the folded velocity unchanged (shared `Bytes`, no
                // copy).
                for to in next {
                    out.push(self.hop(iter, to, route, payload.clone()));
                }
            }
        }
        Ok(out)
    }

    /// Originates segment `seg`'s DISTRIBUTE pass: `data` to every worker
    /// in `to`.
    fn distribute(
        &self,
        iter: u64,
        seg: usize,
        to: Range<usize>,
        data: &Bytes,
        out: &mut Vec<(Dest, Message)>,
    ) {
        let route = wire::pack_collective(COLLECTIVE_DISTRIBUTE, 0, seg);
        out.extend(to.map(|w| self.hop(iter, w, route, data.clone())));
    }

    /// The velocity a DISTRIBUTE payload of segment `seg` carries, as
    /// identity wire bytes: the payload itself under the identity codec
    /// (whose length the caller checked), its decode under a lossy one. A
    /// payload that does not decode is refused.
    fn distributed(&mut self, seg: usize, payload: &Bytes) -> Result<Bytes, CodecError> {
        if self.codec == Codec::Identity {
            return Ok(payload.clone());
        }
        let (_, len) = self.segs[seg];
        self.scratch.resize(len, 0.0);
        wire::decode_codec_into(self.codec, payload, &mut self.scratch)?;
        Ok(wire::encode_f32s_pooled(&self.scratch))
    }

    /// Segment `seg`'s round is in, and `v` (identity wire bytes) is its new
    /// velocity: steps `p` by it where the segment lies (`θ += v`, under the
    /// apply span) and keeps it.
    fn land(&mut self, iter: u64, seg: usize, v: Bytes, p: &mut ParamBlock) {
        let (off, len) = self.segs[seg];
        self.timed_apply(iter, |_| {
            let params = (p.weights.as_mut_slice(), p.bias.as_mut_slice());
            for (at, w) in runs_mut(off..off + len, params.0, params.1) {
                wire::add_into(w, &v[4 * at..4 * (at + w.len())]);
            }
        });
        self.keep(seg, v);
    }

    /// Keeps `v` as segment `seg`'s velocity, which completes the segment.
    fn keep(&mut self, seg: usize, v: Bytes) {
        self.velocity[seg] = Some(v);
        self.seg_done[seg] = true;
    }

    /// Records our own sufficient-factor batch at `Send` time (SFB includes
    /// the local contribution when reconstructing).
    fn set_own_sf(&mut self, batch: SfBatch) {
        assert!(
            self.route.scheme() == CommScheme::Sfb,
            "own SF only meaningful for SFB"
        );
        self.sf_batches[self.me] = Some(batch);
    }

    /// Applies a parameter chunk from a PS shard to the replica right away,
    /// at the chunk's offset in `params`, as the frame's own `codec` tag says:
    /// identity carries fresh parameters and is decoded over them, a lossy
    /// codec carries the compressed aggregated update (Seide et al.'s double
    /// quantization, generalised to any [`Codec`]) and is accumulated into
    /// them. A payload that fails to decode (a poisoned frame) is refused
    /// whole: nothing is written and the chunk stays outstanding, and so is
    /// a chunk index past the layer's table or a layer that is not PS.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate.
    pub fn on_param_chunk(
        &mut self,
        chunk_idx: usize,
        codec: Codec,
        payload: &[u8],
        params: &mut ParamBlock,
    ) -> Result<(), CodecError> {
        if self.route.scheme() != CommScheme::Ps {
            return Err(WRONG_KIND);
        }
        let Some(&done) = self.chunk_done.get(chunk_idx) else {
            return Err(CodecError::Malformed("chunk index past the layer's table"));
        };
        assert!(
            !done,
            "duplicate chunk {chunk_idx} for layer {}",
            self.layer
        );
        let apply = |dst: &mut [f32]| match codec {
            Codec::Identity => wire::decode_codec_into(codec, payload, dst),
            _ => wire::accumulate_codec(codec, payload, 1.0, dst),
        };
        let (w, b) = (params.weights.as_mut_slice(), params.bias.as_mut_slice());
        let (wr, br) = self.chunks[chunk_idx].split_at_bias(w.len());
        if br.is_empty() {
            apply(&mut w[wr])?;
        } else if wr.is_empty() {
            apply(&mut b[br])?;
        } else {
            // Stage the replica's own values so one decode covers both
            // halves, then put them back.
            self.scratch.clear();
            self.scratch.extend_from_slice(&w[wr.clone()]);
            self.scratch.extend_from_slice(&b[br.clone()]);
            apply(&mut self.scratch)?;
            let (head, tail) = self.scratch.split_at(wr.len());
            w[wr].copy_from_slice(head);
            b[br].copy_from_slice(tail);
        }
        self.chunk_done[chunk_idx] = true;
        Ok(())
    }

    /// Handles a dense parameter matrix (Adam pull).
    fn on_param_matrix(&mut self, values: Vec<f32>) -> Result<(), CodecError> {
        if self.route.scheme() != CommScheme::AdamSf {
            return Err(WRONG_KIND);
        }
        assert!(self.received_matrix.is_none(), "duplicate param matrix");
        self.received_matrix = Some(values);
        Ok(())
    }

    /// Handles a peer's sufficient-factor batch.
    fn on_peer_sf(&mut self, from_worker: usize, batch: SfBatch) -> Result<(), CodecError> {
        if self.route.scheme() != CommScheme::Sfb {
            return Err(WRONG_KIND);
        }
        assert_ne!(from_worker, self.me, "received our own SF broadcast");
        assert!(
            self.sf_batches[from_worker].is_none(),
            "duplicate SF batch from worker {from_worker}"
        );
        self.sf_batches[from_worker] = Some(batch);
        Ok(())
    }

    /// `true` when everything this iteration needs has arrived — the layer's
    /// entry in the completion vector can be set to 1.
    pub fn is_complete(&self) -> bool {
        match self.route.scheme() {
            CommScheme::Ps => self.chunk_done.iter().all(|&d| d),
            CommScheme::AdamSf => self.received_matrix.is_some(),
            CommScheme::Sfb => self.sf_batches.iter().all(Option::is_some),
            CommScheme::Ring => self.seg_done.iter().all(|&d| d),
        }
    }

    /// Consumes the iteration's received state into a [`SyncOutcome`] —
    /// `None` for a PS or collective layer, whose round stepped the replica
    /// as it arrived. [`Self::apply`] moves it into the replica. Panics if
    /// the syncer is not complete.
    pub fn take_outcome(&mut self) -> Option<SyncOutcome> {
        assert!(
            self.is_complete(),
            "layer {} syncer not complete",
            self.layer
        );
        Some(match self.route.scheme() {
            CommScheme::Ps | CommScheme::Ring => return None,
            CommScheme::AdamSf => {
                SyncOutcome::FreshParams(self.received_matrix.take().expect("complete"))
            }
            CommScheme::Sfb => SyncOutcome::SfApply(
                self.sf_batches
                    .iter_mut()
                    .map(|b| b.take().expect("complete"))
                    .collect(),
            ),
        })
    }
}

/// Each stream's error-feedback residual (`None`: it never compressed).
fn residuals(comps: &[Option<Box<dyn Compressor>>]) -> Vec<Option<Vec<f32>>> {
    comps
        .iter()
        .map(|c| c.as_ref().map(|c| c.residual()))
        .collect()
}

/// The compressors `residuals` were exported from, where one existed, for
/// streams of `lens` elements.
fn restore(
    codec: Codec,
    residuals: Vec<Option<Vec<f32>>>,
    lens: impl ExactSizeIterator<Item = usize>,
) -> Vec<Option<Box<dyn Compressor>>> {
    assert_eq!(residuals.len(), lens.len(), "compressor count mismatch");
    let restore = |(res, len): (Option<Vec<f32>>, usize)| {
        let res = res?;
        let mut comp = make_compressor(codec, len);
        comp.set_residual(&res);
        Some(comp)
    };
    residuals.into_iter().zip(lens).map(restore).collect()
}

/// Flattens a parameter block to `weights (row-major) ++ bias`.
pub fn flatten_params(p: &ParamBlock) -> Vec<f32> {
    let mut flat = Vec::with_capacity(p.num_params());
    flat.extend_from_slice(p.weights.as_slice());
    flat.extend_from_slice(p.bias.as_slice());
    flat
}

/// Flattens a parameter block's gradients in the same layout.
pub fn flatten_grads(p: &ParamBlock) -> Vec<f32> {
    let mut flat = Vec::with_capacity(p.num_params());
    flat.extend_from_slice(p.grad_weights.as_slice());
    flat.extend_from_slice(p.grad_bias.as_slice());
    flat
}

/// Overwrites a parameter block from a flat `weights ++ bias` buffer.
///
/// # Panics
///
/// Panics if `flat` has the wrong length.
pub fn write_params_flat(p: &mut ParamBlock, flat: &[f32]) {
    assert_eq!(flat.len(), p.num_params(), "flat parameter length mismatch");
    let w = p.weights.len();
    p.weights.as_mut_slice().copy_from_slice(&flat[..w]);
    p.bias.as_mut_slice().copy_from_slice(&flat[w..]);
}

/// The runs of the flat range `r` of a `weights ++ bias` layer over its
/// weights `w` and bias `b`, each with where it starts in `r`. Either may
/// be empty.
fn runs<'a>(r: Range<usize>, w: &'a [f32], b: &'a [f32]) -> [(usize, &'a [f32]); 2] {
    let (wr, br) = split_at_bias(r, w.len());
    [(0, &w[wr.clone()]), (wr.len(), &b[br])]
}

/// [`runs`] of parameters to write.
fn runs_mut<'a>(
    r: Range<usize>,
    w: &'a mut [f32],
    b: &'a mut [f32],
) -> [(usize, &'a mut [f32]); 2] {
    let (wr, br) = split_at_bias(r, w.len());
    let at = wr.len();
    [(0, &mut w[wr]), (at, &mut b[br])]
}

/// One identity ring hop over the segment at `range` of `p`, in one pass
/// per run ([`wire::fold_run`]): `dst` gets the partial in `payload` (or
/// `seed` applied to the head's raw gradient it carries) plus `scale·g`
/// from `p`'s gradient storage, and with `step`, `p`'s parameters are
/// stepped by the sums in the same pass.
fn ring_hop(
    dst: &mut [u8],
    payload: &[u8],
    seed: Option<Seed<'_>>,
    scale: f32,
    range: Range<usize>,
    p: &mut ParamBlock,
    step: bool,
) {
    let ParamBlock {
        weights,
        bias,
        grad_weights,
        grad_bias,
    } = p;
    let grads = runs(range.clone(), grad_weights.as_slice(), grad_bias.as_slice());
    let params = runs_mut(range, weights.as_mut_slice(), bias.as_mut_slice());
    for ((at, g), (_, w)) in grads.into_iter().zip(params) {
        let bytes = 4 * at..4 * (at + g.len());
        let seed = seed.map(|s| s.at(bytes.clone()));
        let w = step.then_some(w);
        wire::fold_run(&mut dst[bytes.clone()], &payload[bytes], seed, scale, g, w);
    }
}

/// Writes `scale·g`, seeded as `seed` says, over `dst` in one pass.
fn write_scaled(dst: &mut [f32], seed: Seed<'_>, scale: f32, g: &[f32]) {
    match seed {
        Seed::Zero => {
            for (d, g) in dst.iter_mut().zip(g) {
                *d = 0.0 + scale * g;
            }
        }
        Seed::Momentum(mu, v) => {
            assert_eq!(v.len(), 4 * g.len(), "velocity run length");
            for ((d, v), g) in dst.iter_mut().zip(wire::le_f32s(v)).zip(g) {
                *d = mu * v + scale * g;
            }
        }
    }
}

/// Elements of the weight gradient [`Syncer::sf_step`] rebuilds per row
/// block: 512 KiB, which stays in L2 beside the packed `V`.
const SF_BLOCK: usize = 128 * 1024;

/// Reconstructs the summed dense gradient of a set of SF batches: the weight
/// gradient `Σ uvᵀ` and the bias gradient `Σ u`.
///
/// The factors are stacked worker-then-sample into `U` (one `u` per row) and
/// `V`, and the weight gradient is the single GEMM `Uᵀ·V`. Its ascending-`k`
/// fold gives every element the same sum of `u·v` products, in the same
/// order, as one [`Matrix::rank1_update`] sweep per factor — the bits do not
/// change, the matrix is written once instead of once per factor. Batches
/// must be given in worker-id order so every replica folds them identically.
///
/// # Panics
///
/// Panics if a factor's shape is not `(rows, cols)`.
pub fn reconstruct_sf_batches(batches: &[SfBatch], rows: usize, cols: usize) -> (Matrix, Vec<f32>) {
    match stack_sf_batches(batches, rows, cols) {
        (Some((u, v)), bias_grad) => (u.matmul_tn(&v), bias_grad),
        (None, bias_grad) => (Matrix::zeros(rows, cols), bias_grad),
    }
}

/// `U` and `V` of a set of SF batches, if they hold any factor.
type Stacked = Option<(Matrix, Matrix)>;

/// The factors of `batches` stacked worker-then-sample into `U`
/// (`count × rows`, one `u` per row) and `V` (`count × cols`), `None` where
/// there are none, and the bias gradient `Σ u` folded in that order.
///
/// # Panics
///
/// Panics if a factor's shape is not `(rows, cols)`.
fn stack_sf_batches(batches: &[SfBatch], rows: usize, cols: usize) -> (Stacked, Vec<f32>) {
    let count: usize = batches.iter().map(SfBatch::len).sum();
    let mut bias_grad = vec![0.0f32; rows];
    if count == 0 {
        return (None, bias_grad);
    }
    let mut u = Vec::with_capacity(count * rows);
    let mut v = Vec::with_capacity(count * cols);
    for sf in batches.iter().flat_map(SfBatch::factors) {
        assert_eq!(sf.shape(), (rows, cols), "sufficient factor shape mismatch");
        u.extend_from_slice(&sf.u);
        v.extend_from_slice(&sf.v);
        for (b, &x) in bias_grad.iter_mut().zip(&sf.u) {
            *b += x;
        }
    }
    let stacked = (
        Matrix::from_vec(count, rows, u),
        Matrix::from_vec(count, cols, v),
    );
    (Some(stacked), bias_grad)
}

/// Decodes a sufficient-factor batch for a layer whose weights are `shape`.
/// A payload that does not decode, or whose factors have another shape
/// (which [`reconstruct_sf_batches`] would panic on), is refused.
pub(crate) fn decode_sf_batch(data: &[u8], shape: (usize, usize)) -> Result<SfBatch, CodecError> {
    let batch = bytesio::decode_sf_batch(data).map_err(|_| CodecError::Malformed("SF batch"))?;
    match batch.shape() {
        Some(got) if got != shape => Err(CodecError::Malformed("SF batch of another shape")),
        _ => Ok(batch),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kvstore::ShardState;
    use poseidon_tensor::SufficientFactor;
    use std::collections::VecDeque;

    fn chunk(layer: usize, idx: usize, offset: usize, len: usize) -> Chunk {
        Chunk {
            layer,
            offset,
            len,
            shard: idx % 2,
        }
    }

    #[test]
    fn ps_syncer_applies_chunks_in_place_in_any_order() {
        // 2×2 weights ++ 2 bias, cut so the middle chunk straddles the
        // weights/bias boundary.
        let chunks = vec![chunk(0, 0, 0, 3), chunk(0, 1, 3, 2), chunk(0, 2, 5, 1)];
        let mut s = Syncer::new(0, CommScheme::Ps, chunks, 6, 4, 0);
        let mut p = ParamBlock::new(2, 2);
        let frame = |vals: &[f32]| wire::encode_f32s(vals);
        assert!(!s.is_complete());
        s.on_param_chunk(2, Codec::Identity, &frame(&[60.0]), &mut p)
            .unwrap();
        s.on_param_chunk(1, Codec::Identity, &frame(&[40.0, 50.0]), &mut p)
            .unwrap();
        assert!(!s.is_complete());
        assert_eq!(flatten_params(&p), vec![0.0, 0.0, 0.0, 40.0, 50.0, 60.0]);
        s.on_param_chunk(0, Codec::Identity, &frame(&[10.0, 20.0, 30.0]), &mut p)
            .unwrap();
        assert!(s.is_complete());
        assert!(s.take_outcome().is_none(), "nothing left to apply");
        assert_eq!(flatten_params(&p), vec![10.0, 20.0, 30.0, 40.0, 50.0, 60.0]);
    }

    #[test]
    fn lossy_param_chunk_is_a_delta_and_a_bad_one_writes_nothing() {
        let chunks = vec![chunk(0, 0, 0, 6)];
        let mut s = Syncer::new(0, CommScheme::Ps, chunks, 6, 2, 0).with_codec(Codec::OneBit);
        let mut p = ParamBlock::new(2, 2);
        write_params_flat(&mut p, &[1.0; 6]);
        let delta = [0.5f32, -0.5, 2.0, 0.0, -1.0, 4.0];
        let payload = make_compressor(Codec::OneBit, 6).compress(&delta);
        let err = s.on_param_chunk(0, Codec::OneBit, &payload[..11], &mut p);
        assert!(err.is_err() && !s.is_complete());
        assert_eq!(flatten_params(&p), vec![1.0; 6], "refused whole");
        s.on_param_chunk(0, Codec::OneBit, &payload, &mut p)
            .unwrap();
        assert!(s.is_complete());
        let decoded = poseidon_tensor::compress::decompress(Codec::OneBit, &payload, 6).unwrap();
        let want: Vec<f32> = decoded.iter().map(|d| 1.0 + d).collect();
        assert_eq!(f32_bits(&flatten_params(&p)), f32_bits(&want));
    }

    #[test]
    fn push_encodes_each_chunk_from_the_gradient_storage() {
        let chunks = vec![chunk(0, 0, 0, 3), chunk(0, 1, 3, 2), chunk(0, 2, 5, 1)];
        let mut s = Syncer::new(0, CommScheme::Ps, chunks.clone(), 6, 2, 0);
        let mut p = ParamBlock::new(2, 2);
        p.grad_weights = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        p.grad_bias = Matrix::from_vec(1, 2, vec![5.0, 6.0]);
        let flat = flatten_grads(&p);
        for (idx, c) in chunks.iter().enumerate() {
            assert_eq!(
                s.encode_push_grad(idx, &p),
                wire::encode_f32s(&flat[c.range()]),
                "chunk {idx}"
            );
        }
    }

    #[test]
    fn sfb_syncer_needs_own_and_all_peers() {
        let mut s = Syncer::new(2, CommScheme::Sfb, vec![], 6, 3, 1);
        let batch =
            |v: f32| SfBatch::from_factors(vec![SufficientFactor::new(vec![v, v], vec![1.0])]);
        s.on_peer_sf(0, batch(1.0)).unwrap();
        assert!(!s.is_complete(), "missing own batch and worker 2");
        s.set_own_sf(batch(2.0));
        assert!(!s.is_complete());
        s.on_peer_sf(2, batch(3.0)).unwrap();
        assert!(s.is_complete());
        match s.take_outcome().unwrap() {
            SyncOutcome::SfApply(batches) => {
                assert_eq!(batches.len(), 3);
                // Worker-id order: 0, me(1), 2.
                assert_eq!(batches[0].factors()[0].u[0], 1.0);
                assert_eq!(batches[1].factors()[0].u[0], 2.0);
                assert_eq!(batches[2].factors()[0].u[0], 3.0);
            }
            other => panic!("wrong outcome {other:?}"),
        }
    }

    #[test]
    fn adam_syncer_takes_one_matrix() {
        let mut s = Syncer::new(1, CommScheme::AdamSf, vec![], 4, 2, 0);
        s.on_param_matrix(vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!(s.is_complete());
        match s.take_outcome().unwrap() {
            SyncOutcome::FreshParams(flat) => assert_eq!(flat.len(), 4),
            other => panic!("wrong outcome {other:?}"),
        }
    }

    #[test]
    fn begin_iteration_resets_state() {
        let mut s = Syncer::new(0, CommScheme::Ps, vec![chunk(0, 0, 0, 2)], 2, 2, 0);
        let mut p = ParamBlock::new(1, 1);
        let frame = wire::encode_f32s(&[1.0, 2.0]);
        s.on_param_chunk(0, Codec::Identity, &frame, &mut p)
            .unwrap();
        assert!(s.is_complete());
        s.begin_iteration();
        assert!(!s.is_complete());
        // No duplicate panic after reset.
        s.on_param_chunk(0, Codec::Identity, &frame, &mut p)
            .unwrap();
        assert!(s.is_complete());
    }

    #[test]
    #[should_panic(expected = "duplicate chunk")]
    fn duplicate_chunk_panics() {
        let mut s = Syncer::new(0, CommScheme::Ps, vec![chunk(0, 0, 0, 1)], 1, 1, 0);
        let mut p = ParamBlock::new(1, 1);
        let frame = wire::encode_f32s(&[1.0]);
        let _ = s.on_param_chunk(0, Codec::Identity, &frame, &mut p);
        let _ = s.on_param_chunk(0, Codec::Identity, &frame, &mut p);
    }

    #[test]
    #[should_panic(expected = "our own SF broadcast")]
    fn own_broadcast_echo_panics() {
        let mut s = Syncer::new(0, CommScheme::Sfb, vec![], 2, 2, 1);
        let _ = s.on_peer_sf(
            1,
            SfBatch::from_factors(vec![SufficientFactor::new(vec![1.0], vec![1.0])]),
        );
    }

    #[test]
    fn flatten_roundtrip() {
        let mut p = ParamBlock::new(2, 3);
        p.weights = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        p.bias = Matrix::from_vec(1, 2, vec![7.0, 8.0]);
        let flat = flatten_params(&p);
        assert_eq!(flat, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let mut q = ParamBlock::new(2, 3);
        write_params_flat(&mut q, &flat);
        assert_eq!(q.weights, p.weights);
        assert_eq!(q.bias, p.bias);
    }

    #[test]
    fn single_worker_sfb_is_complete_with_own_batch_only() {
        let mut s = Syncer::new(0, CommScheme::Sfb, vec![], 2, 1, 0);
        s.set_own_sf(SfBatch::from_factors(vec![SufficientFactor::new(
            vec![1.0],
            vec![1.0],
        )]));
        assert!(s.is_complete());
    }

    fn f32_bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A layer that is nothing but its parameters, so a test drives a
    /// syncer through the calls the worker makes.
    struct Block(ParamBlock);

    impl Layer for Block {
        fn name(&self) -> &str {
            "block"
        }

        fn kind(&self) -> poseidon_nn::LayerKind {
            poseidon_nn::LayerKind::FullyConnected
        }

        fn output_shape(&self) -> poseidon_nn::TensorShape {
            poseidon_nn::TensorShape::flat(self.0.bias.len())
        }

        fn forward(&mut self, _: &Matrix) -> Matrix {
            unreachable!("a block only holds parameters")
        }

        fn backward(&mut self, _: &Matrix) -> Matrix {
            unreachable!("a block only holds parameters")
        }

        fn params(&self) -> Option<&ParamBlock> {
            Some(&self.0)
        }

        fn params_mut(&mut self) -> Option<&mut ParamBlock> {
            Some(&mut self.0)
        }
    }

    /// A `1 × (n − 1)` block whose flat gradient is `flat`: any chunk that
    /// covers the last element straddles the weights/bias boundary.
    fn block_with_grads(flat: &[f32]) -> Block {
        let cols = flat.len() - 1;
        let mut p = ParamBlock::new(1, cols);
        set_grads(&mut p, flat);
        Block(p)
    }

    /// Overwrites `p`'s flat gradient `grad_weights ++ grad_bias`.
    fn set_grads(p: &mut ParamBlock, flat: &[f32]) {
        let cols = flat.len() - 1;
        p.grad_weights = Matrix::from_vec(1, cols, flat[..cols].to_vec());
        p.grad_bias = Matrix::from_vec(1, 1, flat[cols..].to_vec());
    }

    fn collective(iter: u64, route: u32, data: Bytes) -> Message {
        Message::Collective {
            iter,
            layer: 0,
            route,
            codec: Codec::Identity,
            data,
        }
    }

    /// One round of `syncers` over `blocks`, whose gradients hold the
    /// round's values: every `Send`, then every frame in send order through
    /// `receive`, then `apply` — the order the runtimes follow.
    fn round(syncers: &mut [Syncer], blocks: &mut [Block], iter: u64, scale: f32) {
        let mut inflight = VecDeque::new();
        for (w, (s, b)) in syncers.iter_mut().zip(blocks.iter_mut()).enumerate() {
            s.begin_iteration();
            s.send(b, iter, scale, |to, msg| inflight.push_back((w, to, msg)));
        }
        while let Some((from, to, msg)) = inflight.pop_front() {
            let Dest::Worker(to) = to else {
                panic!("a collective frame goes to a worker")
            };
            let emit = |next, msg| inflight.push_back((to, next, msg));
            syncers[to]
                .receive(from, msg, &mut blocks[to].0, emit)
                .unwrap();
        }
        for (s, b) in syncers.iter_mut().zip(blocks.iter_mut()) {
            assert!(s.is_complete(), "collective exchange stalled");
            s.apply(&mut b.0, iter, scale);
        }
    }

    /// Drives `workers` collective syncers through three full exchanges and
    /// checks every replica stays bitwise identical to a PS shard folding
    /// the same raw gradients (the cross-scheme exactness invariant).
    fn collective_matches_shard(scheme: CommScheme, workers: usize, momentum: f32) {
        let elems = 7;
        let chunks = vec![chunk(0, 0, 0, 4), chunk(0, 1, 4, 3)];
        let scale = -0.05f32;
        let mut shard = ShardState::with_momentum(workers, scale, momentum);
        shard.init_pair((0, 0), vec![0.25; 4]);
        shard.init_pair((0, 1), vec![0.25; 3]);
        let mut syncers: Vec<Syncer> = (0..workers)
            .map(|w| {
                Syncer::new(0, scheme, chunks.clone(), elems, workers, w).with_momentum(momentum)
            })
            .collect();
        let mut blocks: Vec<Block> = (0..workers)
            .map(|_| {
                let mut b = block_with_grads(&vec![0.0; elems]);
                write_params_flat(&mut b.0, &[0.25; 7]);
                b
            })
            .collect();
        for it in 0..3usize {
            let grads: Vec<Vec<f32>> = (0..workers)
                .map(|w| {
                    (0..elems)
                        .map(|i| ((w * 31 + i * 7 + it * 13) % 17) as f32 * 0.3 - 2.0)
                        .collect()
                })
                .collect();
            for (b, g) in blocks.iter_mut().zip(&grads) {
                set_grads(&mut b.0, g);
            }
            round(&mut syncers, &mut blocks, it as u64, scale);
            for (w, g) in grads.iter().enumerate() {
                shard.receive_grad(w, (0, 0), &g[..4]);
                shard.receive_grad(w, (0, 1), &g[4..]);
            }
            let mut master = Vec::new();
            master.extend_from_slice(shard.pair((0, 0)).unwrap());
            master.extend_from_slice(shard.pair((0, 1)).unwrap());
            for (w, b) in blocks.iter().enumerate() {
                assert_eq!(
                    f32_bits(&flatten_params(&b.0)),
                    f32_bits(&master),
                    "{scheme} P={workers} µ={momentum}: worker {w} diverged from the PS fold \
                     at iteration {it}"
                );
            }
        }
    }

    #[test]
    fn ring_matches_ps_shard_bitwise() {
        for &workers in &[2, 3, 5] {
            collective_matches_shard(CommScheme::Ring, workers, 0.0);
            collective_matches_shard(CommScheme::Ring, workers, 0.9);
        }
    }

    #[test]
    fn collective_layer_without_chunks_uses_one_segment() {
        let mut a = Syncer::new(0, CommScheme::Ring, vec![], 3, 2, 0);
        let mut b = Syncer::new(0, CommScheme::Ring, vec![], 3, 2, 1);
        let (mut pa, mut pb) = (
            block_with_grads(&[1.0, 2.0, 3.0]),
            block_with_grads(&[0.5; 3]),
        );
        let mut seeds = Vec::new();
        a.send(&mut pa, 0, 1.0, |to, msg| seeds.push((to, msg)));
        b.send(&mut pb, 0, 1.0, |_, _| {
            panic!("a ring's non-head sends nothing")
        });
        assert_eq!(seeds.len(), 1, "single whole-layer segment");
        let (to, msg) = seeds.pop().unwrap();
        assert_eq!(to, Dest::Worker(1));
        let mut fwd = Vec::new();
        b.receive(0, msg, &mut pb.0, |to, msg| fwd.push((to, msg)))
            .unwrap();
        assert!(b.is_complete());
        assert_eq!(fwd.len(), 1, "DISTRIBUTE back to worker 0");
        let (to, msg) = fwd.pop().unwrap();
        assert_eq!(to, Dest::Worker(0));
        a.receive(1, msg, &mut pa.0, |_, _| {
            panic!("DISTRIBUTE stops before its originator")
        })
        .unwrap();
        assert!(a.is_complete());
        for (s, p) in [(&mut a, &mut pa), (&mut b, &mut pb)] {
            s.apply(&mut p.0, 0, 1.0);
            assert_eq!(flatten_params(&p.0), vec![1.5, 2.5, 3.5]);
        }
    }

    /// Drives `workers` lossy-codec collective syncers through several
    /// exchanges: all replicas must land on bitwise-identical parameters
    /// (they all step by the same terminal encoding), even though the step
    /// itself is an approximation of the exact fold.
    fn lossy_collective_replicas_agree(scheme: CommScheme, codec: Codec, workers: usize) {
        let elems = 9;
        let chunks = vec![chunk(0, 0, 0, 5), chunk(0, 1, 5, 4)];
        let scale = -0.05f32;
        let mut syncers: Vec<Syncer> = (0..workers)
            .map(|w| {
                Syncer::new(0, scheme, chunks.clone(), elems, workers, w)
                    .with_momentum(0.9)
                    .with_codec(codec)
            })
            .collect();
        let mut blocks: Vec<Block> = (0..workers)
            .map(|_| block_with_grads(&vec![0.0; elems]))
            .collect();
        for it in 0..4usize {
            for (w, b) in blocks.iter_mut().enumerate() {
                let grad: Vec<f32> = (0..elems)
                    .map(|i| ((w * 31 + i * 7 + it * 13) % 17) as f32 * 0.3 - 2.0)
                    .collect();
                set_grads(&mut b.0, &grad);
            }
            round(&mut syncers, &mut blocks, it as u64, scale);
            let want = f32_bits(&flatten_params(&blocks[0].0));
            assert!(want.iter().any(|&b| b != 0), "the replicas moved");
            for b in &blocks[1..] {
                assert_eq!(
                    f32_bits(&flatten_params(&b.0)),
                    want,
                    "{scheme}/{codec} P={workers} replicas diverged at iteration {it}"
                );
            }
        }
    }

    #[test]
    fn lossy_collectives_keep_replicas_bitwise_identical() {
        for &workers in &[2usize, 3, 5] {
            lossy_collective_replicas_agree(CommScheme::Ring, Codec::OneBit, workers);
        }
    }

    #[test]
    fn corrupt_collective_payload_surfaces_not_panics() {
        let mut b = Syncer::new(0, CommScheme::Ring, vec![], 4, 2, 1).with_codec(Codec::OneBit);
        let mut p = block_with_grads(&[0.1, 0.2, 0.3, 0.4]);
        b.send(&mut p, 0, 1.0, |_, _| {});
        let route = wire::pack_collective(COLLECTIVE_REDUCE, 0, 0);
        let msg = collective(0, route, Bytes::from(vec![1u8, 2, 3]));
        let err = b.receive(0, msg, &mut p.0, |_, _| panic!("nothing forwarded"));
        assert!(err.is_err(), "truncated payload must surface, got {err:?}");
        assert!(
            !b.is_complete(),
            "poisoned frame must not complete a segment"
        );
        assert_eq!(flatten_params(&p.0), vec![0.0; 4], "nothing written");
    }

    #[test]
    fn encode_push_identity_is_bitwise_pooled_path() {
        let mut s = Syncer::new(0, CommScheme::Ps, vec![chunk(0, 0, 0, 3)], 3, 2, 0);
        let vals = [1.5f32, -2.25, 0.0];
        assert_eq!(
            s.encode_push(0, &vals).as_ref(),
            wire::encode_f32s(&vals).as_ref()
        );
    }

    #[test]
    fn encode_push_error_feedback_is_deterministic_across_instances() {
        let mk = || {
            Syncer::new(0, CommScheme::Ps, vec![chunk(0, 0, 0, 6)], 6, 2, 0)
                .with_codec(Codec::OneBit)
        };
        let (mut a, mut b) = (mk(), mk());
        for it in 0..5 {
            let vals: Vec<f32> = (0..6).map(|i| (i * 3 + it) as f32 * 0.7 - 4.0).collect();
            assert_eq!(a.encode_push(0, &vals), b.encode_push(0, &vals), "it {it}");
        }
    }

    #[test]
    fn export_import_state_preserves_lossy_stream() {
        // Run a 1-bit PS syncer for a few pushes, export its state into a
        // fresh instance, and check the two produce bitwise-identical bytes
        // from then on — the checkpoint/handoff exactness invariant.
        let mk = || {
            Syncer::new(0, CommScheme::Ps, vec![chunk(0, 0, 0, 6)], 6, 2, 0)
                .with_codec(Codec::OneBit)
        };
        let mut a = mk();
        for it in 0..3 {
            let vals: Vec<f32> = (0..6).map(|i| (i * 5 + it) as f32 * 0.9 - 7.0).collect();
            let _ = a.encode_push(0, &vals);
        }
        let mut b = mk();
        b.import_state(a.export_state());
        for it in 3..8 {
            let vals: Vec<f32> = (0..6).map(|i| (i * 5 + it) as f32 * 0.9 - 7.0).collect();
            assert_eq!(a.encode_push(0, &vals), b.encode_push(0, &vals), "it {it}");
        }
    }

    #[test]
    fn export_import_state_carries_collective_velocity() {
        // Two ring rounds at µ = 0.9, so the velocity carries into the fold.
        let chunks = vec![chunk(0, 0, 0, 2), chunk(0, 1, 2, 2)];
        let mk = |w| Syncer::new(0, CommScheme::Ring, chunks.clone(), 4, 2, w).with_momentum(0.9);
        let grads = |it: usize, w: usize| -> Vec<f32> {
            (0..4)
                .map(|i| (i * 3 + w * 5 + it) as f32 * 0.5 - 2.0)
                .collect()
        };
        let mut syncers = vec![mk(0), mk(1)];
        let mut blocks: Vec<Block> = (0..2).map(|w| block_with_grads(&grads(0, w))).collect();
        for it in 0..2 {
            for (w, b) in blocks.iter_mut().enumerate() {
                set_grads(&mut b.0, &grads(it, w));
            }
            round(&mut syncers, &mut blocks, it as u64, -0.1);
        }
        let st = syncers[1].export_state();
        assert_eq!(st, syncers[0].export_state(), "every replica keeps v");
        assert!(st.velocity.iter().all(Option::is_some));
        // Untouched compressor slots stay lazily absent.
        assert!(st.seg_residuals.iter().all(Option::is_none));
        let mut restored: Vec<Syncer> = (0..2)
            .map(|w| {
                let mut s = mk(w);
                s.import_state(syncers[w].export_state());
                s
            })
            .collect();
        assert_eq!(restored[0].export_state(), st);
        assert!(restored[0].seg_comp.iter().all(Option::is_none));
        // A round after the restore folds µ·v exactly as one without it.
        let mut twins: Vec<Block> = blocks.iter().map(|b| Block(b.0.clone())).collect();
        for (w, (b, t)) in blocks.iter_mut().zip(&mut twins).enumerate() {
            set_grads(&mut b.0, &grads(2, w));
            set_grads(&mut t.0, &grads(2, w));
        }
        round(&mut syncers, &mut blocks, 2, -0.1);
        round(&mut restored, &mut twins, 2, -0.1);
        for (b, t) in blocks.iter().zip(&twins) {
            assert_eq!(
                f32_bits(&flatten_params(&b.0)),
                f32_bits(&flatten_params(&t.0))
            );
        }
        assert_eq!(restored[1].export_state(), syncers[1].export_state());
    }

    #[test]
    #[should_panic(expected = "cannot ride codec")]
    fn sfb_rejects_lossy_codec() {
        let _ = Syncer::new(0, CommScheme::Sfb, vec![], 4, 2, 0).with_codec(Codec::OneBit);
    }

    /// Hands `s` — whose layer's `Send` has fired — one identity frame of
    /// segment 0 along `route` from worker `from`, and checks it is refused
    /// as poisoned: nothing forwarded, the parameters, the velocity and the
    /// segment's completion untouched.
    fn refuses_off_route(mut s: Syncer, p: &mut Block, from: usize, route: u32) {
        let before = (flatten_params(&p.0), s.export_state());
        let msg = collective(0, route, wire::encode_f32s(&[1.0, 2.0]));
        let err = s.receive(from, msg, &mut p.0, |to, _| {
            panic!("a frame off its route was forwarded to {to:?}")
        });
        assert!(err.is_err(), "frame from worker {from} accepted");
        assert!(!s.is_complete(), "a refused frame completes nothing");
        assert_eq!((flatten_params(&p.0), s.export_state()), before);
    }

    #[test]
    fn ring_reduce_from_wrong_sender_is_poisoned() {
        let mut s = Syncer::new(0, CommScheme::Ring, vec![], 2, 3, 2).with_momentum(0.9);
        let mut p = block_with_grads(&[0.5, 0.25]);
        s.send(&mut p, 0, 1.0, |_, _| {});
        let route = wire::pack_collective(COLLECTIVE_REDUCE, 0, 0);
        refuses_off_route(s, &mut p, 0, route);
    }

    #[test]
    fn ring_distribute_from_wrong_sender_is_poisoned() {
        // Worker 0 takes DISTRIBUTE from the chain's last worker, 2; worker
        // 1 from worker 0.
        for (me, from) in [(0, 1), (1, 2)] {
            let mut s = Syncer::new(0, CommScheme::Ring, vec![], 2, 3, me).with_momentum(0.9);
            let mut p = block_with_grads(&[0.5, 0.25]);
            s.send(&mut p, 0, 1.0, |_, _| {});
            let route = wire::pack_collective(COLLECTIVE_DISTRIBUTE, 0, 0);
            refuses_off_route(s, &mut p, from, route);
        }
    }

    #[test]
    fn collective_frame_with_a_nonzero_origin_is_poisoned() {
        // Worker 1 of 3 takes REDUCE and DISTRIBUTE from worker 0: only the
        // origin bits are off, and origin 0 is the control.
        for phase in [COLLECTIVE_REDUCE, COLLECTIVE_DISTRIBUTE] {
            for origin in [0, 1, 2, (1 << 14) - 1] {
                let mut s = Syncer::new(0, CommScheme::Ring, vec![], 2, 3, 1).with_momentum(0.9);
                let mut p = block_with_grads(&[0.5, 0.25]);
                s.send(&mut p, 0, 1.0, |_, _| {});
                let route = wire::pack_collective(phase, origin, 0);
                if origin == 0 {
                    let msg = collective(0, route, wire::encode_f32s(&[1.0, 2.0]));
                    s.receive(0, msg, &mut p.0, |_, _| {}).unwrap();
                } else {
                    refuses_off_route(s, &mut p, 0, route);
                }
            }
        }
    }

    #[test]
    fn sf_step_in_row_blocks_is_reconstruct_then_momentum_step_bit_for_bit() {
        let ramp = |n: usize, seed: u32| -> Vec<f32> {
            (0..n as u32)
                .map(|i| ((i.wrapping_mul(2654435761) ^ seed) % 2003) as f32 / 977.0 - 1.0)
                .collect()
        };
        // 43 rows per block: two whole blocks and a ragged one of 14.
        let (rows, cols) = (100, 3000);
        assert_eq!(SF_BLOCK / cols, 43);
        let factor = |worker: u32, k: u32| {
            let mut u = ramp(rows, 10 * worker + k);
            let mut v = ramp(cols, 100 + 10 * worker + k);
            if (worker, k) == (1, 0) {
                u[3] = f32::NAN;
                u[50] = -0.0;
                v[7] = f32::INFINITY;
                v[2999] = f32::NEG_INFINITY;
            }
            SufficientFactor::new(u, v)
        };
        let batches: Vec<SfBatch> = (0..2)
            .map(|worker| SfBatch::from_factors((0..3).map(|k| factor(worker, k)).collect()))
            .collect();
        let bits = |x: &[f32]| x.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (momentum, scale) in [(0.9f32, -0.05f32), (0.0, -0.05), (0.9, 0.0), (0.0, 0.0)] {
            let mut s = Syncer::new(0, CommScheme::Sfb, vec![], rows * cols + rows, 2, 0)
                .with_momentum(momentum);
            let mut p = ParamBlock::new(rows, cols);
            p.weights = Matrix::from_vec(rows, cols, ramp(rows * cols, 1));
            p.bias = Matrix::from_vec(1, rows, ramp(rows, 2));
            let (mut w, mut b) = (p.weights.clone(), p.bias.clone());
            let (mut vw, mut vb) = (vec![0.0; rows * cols], vec![0.0; rows]);
            // Two steps, so the second starts from a velocity holding NaN/Inf.
            for _ in 0..2 {
                s.sf_step(&mut p, &batches, scale);
                let (gw, gb) = reconstruct_sf_batches(&batches, rows, cols);
                momentum_step(w.as_mut_slice(), &mut vw, gw.as_slice(), momentum, scale);
                momentum_step(b.as_mut_slice(), &mut vb, &gb, momentum, scale);
            }
            let what = format!("m={momentum} s={scale}");
            let (svw, svb) = s.sf_velocity.as_ref().expect("velocity");
            assert_eq!(
                bits(p.weights.as_slice()),
                bits(w.as_slice()),
                "weights, {what}"
            );
            assert_eq!(bits(p.bias.as_slice()), bits(b.as_slice()), "bias, {what}");
            assert_eq!(bits(svw.as_slice()), bits(&vw), "weight velocity, {what}");
            assert_eq!(bits(svb), bits(&vb), "bias velocity, {what}");
        }
    }

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
