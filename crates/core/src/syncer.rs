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
//! Who owns the gradient: an identity PS push on a little-endian host does
//! not copy it. [`Syncer::send`] moves the layer's weight gradient into a
//! shared buffer, each chunk frame that lies in the weights is a view of
//! its range, and [`Syncer::apply`] gives the buffer back to the layer when
//! the round completes. A frame still held then — a retransmit copy, say —
//! keeps the buffer, and the layer gets a fresh one, which its next
//! backward writes over. Chunks that touch the bias, every lossy codec and
//! the collectives encode into pool leases as before.
//!
//! This module does no I/O — it builds frames and the runtime moves them — so
//! it is exhaustively unit tested; the [`crate::runtime`] threads drive it
//! with real messages.

use crate::chunk::{split_at_bias, Chunk};
use crate::config::{Codec, CommScheme};
use crate::coordinator::Coordinator;
use crate::metrics::Histogram;
use crate::pool::BufPool;
use crate::telemetry;
use crate::transport::Message;
use crate::wire::{self, CodecError, COLLECTIVE_DISTRIBUTE, COLLECTIVE_REDUCE};
use bytes::Bytes;
use poseidon_nn::{Layer, ParamBlock};
use poseidon_tensor::bytesio;
use poseidon_tensor::compress::{decode_into, decompress, make_compressor, validate, Compressor};
use poseidon_tensor::{Matrix, SfBatch};
use std::sync::Arc;
use std::time::Instant;

/// What a completed syncer's round amounts to, before [`Syncer::apply`]
/// moves it into the replica. PS layers have none: every `ParamChunk` was
/// applied to the replica the moment it arrived ([`Syncer::on_param_chunk`]).
#[derive(Debug)]
pub enum SyncOutcome<'a> {
    /// Fresh parameters from the Adam matrix pull (flattened weights ++
    /// bias); overwrite the replica's parameters.
    FreshParams(Vec<f32>),
    /// A pre-scaled parameter *delta* from a collective, as `(offset,
    /// values)` segments of the flattened weights ++ bias lent from the
    /// syncer's velocity; add it to the replica's parameters
    /// ([`apply_delta`]).
    ApplyDelta(Vec<(usize, &'a [f32])>),
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

/// One collective frame for the runtime to transmit: `data` travels to worker
/// `to_worker` as a [`crate::transport::Message::Collective`] with the packed
/// `route` (phase ⊕ origin ⊕ segment, [`crate::wire::pack_collective`]).
#[derive(Debug, Clone)]
pub struct CollectiveSend {
    /// Destination worker id (== its transport endpoint under the runtimes'
    /// worker-first endpoint numbering).
    pub to_worker: usize,
    /// Packed collective route.
    pub route: u32,
    /// Wire payload: the segment's little-endian f32 values.
    pub data: Bytes,
}

/// A frame of a kind the layer's scheme never receives.
const WRONG_KIND: CodecError =
    CodecError::Malformed("a frame kind the layer's scheme never receives");

/// Where a frame a syncer hands out goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dest {
    /// A worker, by id (its transport endpoint).
    Worker(usize),
    /// A home shard, by id: whichever endpoint owns its pairs at the
    /// current membership epoch.
    Shard(usize),
}

/// Per-layer synchronisation state for one worker.
#[derive(Debug)]
pub struct Syncer {
    layer: usize,
    scheme: CommScheme,
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
    /// directly. Kept between iterations.
    scratch: Vec<f32>,
    received_matrix: Option<Vec<f32>>,
    /// SFB: every worker's factor batch this iteration, ours included.
    sf_batches: Vec<Option<SfBatch>>,
    // --- collective (ring/tree) state ---
    /// Momentum coefficient µ replicated client-side; must match the PS
    /// shards' for bitwise parity across schemes.
    momentum: f32,
    /// Offset-ordered `(offset, len)` segments for the collective schemes:
    /// the layer's KV chunks, or one whole-layer segment when it has none.
    segs: Vec<(usize, usize)>,
    /// Per-segment scaled velocity `v` — the client-side replica of the PS
    /// shard's velocity buffer. Persistent across iterations.
    velocity: Vec<Option<Vec<f32>>>,
    /// Per-segment own scaled contribution `c_me = scale·g_me`; the buffers
    /// are kept between iterations, `own_ready` says which hold this
    /// iteration's values and have not been folded yet.
    own_contrib: Vec<Vec<f32>>,
    own_ready: Vec<bool>,
    /// Per-segment completion flag this iteration.
    seg_done: Vec<bool>,
    /// Tree root only: decoded origin-tagged contributions, `[seg][origin]`.
    gathered: Vec<Vec<Option<Vec<f32>>>>,
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
    /// Adam: the shard this layer's factors go to ([`Self::for_layer`]).
    adam_shard: Option<usize>,
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
        let n_chunks = chunks.len();
        let collective = matches!(scheme, CommScheme::Ring | CommScheme::Tree);
        let segs: Vec<(usize, usize)> = if collective {
            if chunks.is_empty() {
                vec![(0, param_elems)]
            } else {
                let mut expect = 0usize;
                let segs = chunks
                    .iter()
                    .map(|c| {
                        assert_eq!(c.offset, expect, "collective segments must tile the layer");
                        expect += c.len;
                        (c.offset, c.len)
                    })
                    .collect();
                assert_eq!(
                    expect, param_elems,
                    "collective segments must cover the layer"
                );
                segs
            }
        } else {
            Vec::new()
        };
        let n_segs = segs.len();
        Self {
            layer,
            scheme,
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
            own_contrib: vec![Vec::new(); n_segs],
            own_ready: vec![false; n_segs],
            seg_done: vec![false; n_segs],
            gathered: if matches!(scheme, CommScheme::Tree) && me == 0 {
                vec![vec![None; workers]; n_segs]
            } else {
                Vec::new()
            },
            codec: Codec::Identity,
            push_comp: (0..n_chunks).map(|_| None).collect(),
            seg_comp: (0..n_segs).map(|_| None).collect(),
            segs,
            sf_velocity: None,
            adam_shard: None,
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
        s.adam_shard = Some(coordinator.adam_shard(layer));
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
            codec == Codec::Identity
                || !matches!(self.scheme, CommScheme::Sfb | CommScheme::AdamSf),
            "layer {}: {} cannot ride codec {codec}",
            self.layer,
            self.scheme
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
        wire::compress_pooled(comp.as_mut(), vals)
    }

    /// Exports the persistent cross-iteration state (velocity replicas and
    /// compressor residuals) at an iteration boundary.
    pub fn export_state(&self) -> SyncerState {
        SyncerState {
            sf_velocity: self.sf_velocity.as_ref().map(|(vw, vb)| {
                let (rows, cols) = vw.shape();
                (rows as u32, cols as u32, vw.as_slice().to_vec(), vb.clone())
            }),
            velocity: self.velocity.clone(),
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
        (self.sf_velocity, self.velocity) = (sf, st.velocity);
        let chunks = self.chunks.iter().map(|c| c.len);
        self.push_comp = restore(self.codec, st.push_residuals, chunks);
        self.seg_comp = restore(self.codec, st.seg_residuals, segs);
    }

    /// `f32` elements of buffer this syncer holds on to between iterations:
    /// the collective velocity, this worker's kept contribution and the
    /// staging scratch. Constant once every buffer has been used.
    pub fn retained_elems(&self) -> usize {
        let velocity = self.velocity.iter().flatten().map(Vec::capacity);
        let own = self.own_contrib.iter().map(Vec::capacity);
        velocity.chain(own).sum::<usize>() + self.scratch.capacity()
    }

    /// Whether the layer's backward must produce the dense weight gradient:
    /// not when its update travels as sufficient factors.
    pub fn needs_weight_grad(&self) -> bool {
        !matches!(self.scheme, CommScheme::Sfb | CommScheme::AdamSf)
    }

    /// `Send`, once the layer's backward is done: hands `emit` the layer's
    /// frames for iteration `iter` one at a time, so each is on its way
    /// while the next encodes. Collectives scale the gradient by `scale`.
    ///
    /// An identity PS push on a little-endian host lends the layer's weight
    /// gradient to its frames instead of encoding it: the storage moves
    /// into a shared buffer, a chunk that lies in the weights is a view of
    /// its range (`wire::identity_view`), and [`Self::apply`] gives the
    /// storage back once the round is in. A chunk that touches the bias is
    /// encoded as before.
    pub fn send(
        &mut self,
        layer: &mut dyn Layer,
        iter: u64,
        scale: f32,
        mut emit: impl FnMut(Dest, Message),
    ) {
        let id = self.layer as u32;
        match self.scheme {
            CommScheme::Ps => {
                let params = layer.params_mut().expect("a trainable layer");
                let lent = self.lend_grad_weights(params);
                let view = lent.as_ref().map(wire::identity_view);
                let w = lent
                    .as_deref()
                    .map_or(params.grad_weights.as_slice(), Vec::as_slice);
                for idx in 0..self.chunks.len() {
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
                    emit(Dest::Shard(self.chunks[idx].shard), msg);
                }
            }
            CommScheme::Sfb | CommScheme::AdamSf => {
                let batch = layer.sufficient_factors().expect("an FC layer");
                let data = bytesio::encode_sf_batch(&batch);
                let msg = Message::SfPush {
                    iter,
                    layer: id,
                    data,
                };
                let to: Vec<Dest> = if self.scheme == CommScheme::AdamSf {
                    vec![Dest::Shard(self.adam_shard.expect("built by for_layer"))]
                } else {
                    (0..self.workers)
                        .filter(|&w| w != self.me)
                        .map(Dest::Worker)
                        .collect()
                };
                for to in to {
                    emit(to, msg.clone());
                }
                if self.scheme == CommScheme::Sfb {
                    self.set_own_sf(batch);
                }
            }
            CommScheme::Ring | CommScheme::Tree => {
                let params = layer.params().expect("a trainable layer");
                for send in self.send_collective(params, scale) {
                    let (to, msg) = self.collective_frame(iter, send);
                    emit(to, msg);
                }
            }
        }
    }

    /// `Receive`: validates and decodes one frame of this layer, then stages
    /// it or — a PS chunk — writes it into `params` where it lies. A
    /// collective frame's onward hops go to `emit`.
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
                let fresh = decompress(Codec::Identity, &data, self.param_elems)?;
                self.on_param_matrix(fresh)
            }
            Message::SfPush { data, .. } => {
                let batch = decode_sf_batch(&data, params.weights.shape())?;
                self.on_peer_sf(from, batch)
            }
            Message::Collective { route, data, .. } => {
                for send in self.on_collective(from, route, data)? {
                    let (to, msg) = self.collective_frame(iter, send);
                    emit(to, msg);
                }
                Ok(())
            }
            _ => Err(WRONG_KIND),
        }
    }

    /// `Move(CPU→GPU)`: applies iteration `iter`'s completed round to
    /// `params` — Adam's fresh parameters, the collective's delta, or SFB's
    /// reconstruction through the momentum step at update scale `scale`. A
    /// PS layer's chunks already landed as they arrived.
    ///
    /// # Panics
    ///
    /// Panics if a non-PS round is not complete.
    pub fn apply(&mut self, params: &mut ParamBlock, iter: u64, scale: f32) {
        if self.scheme == CommScheme::Ps {
            self.give_back_grad_weights(params);
            return;
        }
        self.timed_apply(iter, |s| match s.take_outcome().expect("not a PS round") {
            SyncOutcome::FreshParams(flat) => write_params_flat(params, &flat),
            SyncOutcome::ApplyDelta(segments) => apply_delta(params, &segments),
            SyncOutcome::SfApply(batches) => s.sf_step(params, &batches, scale),
        });
    }

    /// Moves `p`'s weight gradient into the shared buffer this round's
    /// identity push frames view, leaving a 1 × 1 placeholder in its place;
    /// `None`, and `p` untouched, where the push encodes instead: a lossy
    /// codec, a big-endian host, or no chunk that lies in the weights.
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

    /// Gives `p` back the weight gradient this round's push frames viewed.
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
    /// `p` through the replicated momentum velocity.
    fn sf_step(&mut self, p: &mut ParamBlock, batches: &[SfBatch], scale: f32) {
        let ((rows, cols), mu) = (p.weights.shape(), self.momentum);
        let (grad_w, grad_b) = reconstruct_sf_batches(batches, rows, cols);
        let (vw, vb) = self
            .sf_velocity
            .get_or_insert_with(|| (Matrix::zeros(rows, cols), vec![0.0; rows]));
        let (w, b) = (p.weights.as_mut_slice(), p.bias.as_mut_slice());
        momentum_step(w, vw.as_mut_slice(), grad_w.as_slice(), mu, scale);
        momentum_step(b, vb, &grad_b, mu, scale);
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

    /// The frame that carries a collective hop, and where it goes.
    fn collective_frame(&self, iter: u64, send: CollectiveSend) -> (Dest, Message) {
        let msg = Message::Collective {
            iter,
            layer: self.layer as u32,
            route: send.route,
            codec: self.codec,
            data: send.data,
        };
        (Dest::Worker(send.to_worker), msg)
    }

    /// Resets the per-iteration state (the completion-vector entry goes back
    /// to 0).
    pub fn begin_iteration(&mut self) {
        self.chunk_done.fill(false);
        self.received_matrix = None;
        self.sf_batches.fill(None);
        // Collective per-iteration state only — the velocity is the optimiser
        // state and lives across iterations (next round's µ·v).
        self.own_ready.fill(false);
        self.seg_done.fill(false);
        for seg in &mut self.gathered {
            seg.fill(None);
        }
    }

    /// Children of `w` in the binary worker tree rooted at worker 0.
    fn tree_children(&self, w: usize) -> impl Iterator<Item = usize> {
        let p = self.workers;
        [2 * w + 1, 2 * w + 2].into_iter().filter(move |&c| c < p)
    }

    /// The collective `Send`: forms this worker's contribution `c = scale·g`
    /// (the same f32 product the PS shard forms) straight from the layer's
    /// gradient storage and returns the collective frames to transmit. Ring
    /// worker 0 seeds each segment's chain with `µ·v + c₀` (the exact PS fold
    /// prefix) and tree non-roots push their origin-tagged `c` towards the
    /// root, both written in one pass into the wire buffer; every other
    /// worker keeps `c` for the hop or fold that adds it in.
    pub fn send_collective(&mut self, p: &ParamBlock, scale: f32) -> Vec<CollectiveSend> {
        assert!(
            matches!(self.scheme, CommScheme::Ring | CommScheme::Tree),
            "layer {}: send_collective under {}",
            self.layer,
            self.scheme
        );
        assert!(
            self.workers > 1,
            "collective schemes need at least two workers"
        );
        assert_eq!(p.num_params(), self.param_elems, "gradient length mismatch");
        // Who this worker's `c` travels to right away, if anybody.
        let first_hop = match (self.scheme, self.me) {
            (CommScheme::Ring, 0) => Some(1),
            (CommScheme::Tree, me) if me > 0 => Some((me - 1) / 2),
            _ => None,
        };
        let (gw, gb) = (p.grad_weights.as_slice(), p.grad_bias.as_slice());
        let mut out = Vec::new();
        for seg in 0..self.segs.len() {
            let (off, len) = self.segs[seg];
            // The segment's gradient where it lies: a run of the weight
            // gradient, then a run of the bias gradient (either may be empty).
            let (wr, br) = split_at_bias(off..off + len, gw.len());
            let runs = [(0, &gw[wr.clone()]), (wr.len(), &gb[br])];
            let Some(to_worker) = first_hop else {
                let own = &mut self.own_contrib[seg];
                own.resize(len, 0.0);
                for (at, g) in runs {
                    write_scaled(&mut own[at..at + g.len()], Seed::Plain, scale, g);
                }
                self.own_ready[seg] = true;
                continue;
            };
            // Zeros when µ = 0 or before the first fold — the shard's
            // `velocity.fill(0.0)`.
            let velocity = self.velocity[seg]
                .as_deref()
                .filter(|_| self.momentum != 0.0);
            // Only the ring's worker 0 is first into a fold.
            let seed = |at: usize, n: usize| match velocity {
                _ if self.me != 0 => Seed::Plain,
                Some(v) => Seed::Momentum(self.momentum, &v[at..at + n]),
                None => Seed::Zero,
            };
            let data = if self.codec == Codec::Identity {
                // Dirty lease: the runs cover every byte.
                let mut lease = BufPool::global().get_dirty(len * 4);
                for (at, g) in runs {
                    let dst = &mut lease[at * 4..(at + g.len()) * 4];
                    write_scaled(dst, seed(at, g.len()), scale, g);
                }
                lease.freeze()
            } else {
                self.scratch.resize(len, 0.0);
                for (at, g) in runs {
                    let dst = &mut self.scratch[at..at + g.len()];
                    write_scaled(dst, seed(at, g.len()), scale, g);
                }
                Self::compress(self.codec, &mut self.seg_comp[seg], &self.scratch)
            };
            out.push(CollectiveSend {
                to_worker,
                route: wire::pack_collective(COLLECTIVE_REDUCE, self.me, seg),
                data,
            });
        }
        if matches!(self.scheme, CommScheme::Tree) && self.me == 0 {
            for seg in 0..self.segs.len() {
                self.try_fold_root(seg, &mut out);
            }
        }
        out
    }

    /// Handles a collective (ring/tree) frame, returning frames to forward.
    ///
    /// Under a lossy codec each ring hop decompresses the incoming partial,
    /// adds its own contribution and recompresses with its per-segment
    /// error-feedback state; the chain's terminal stores the decode of its
    /// *own* encoding so every replica ends on the same bytes. Identity keeps
    /// the fused pooled-add fast path, bitwise identical to the pre-codec
    /// wire.
    ///
    /// # Errors
    ///
    /// Returns the [`CodecError`] of a poisoned frame — a payload that fails
    /// to decode, a route whose phase or segment this layer does not have,
    /// or a layer that is not a collective's; the segment stays incomplete
    /// and the caller decides whether to count and drop or abort.
    ///
    /// # Panics
    ///
    /// Panics on a protocol violation: wrong sender for the route, duplicate
    /// segment, or a ring REDUCE handed over before
    /// [`Self::send_collective`] produced this worker's contribution. A
    /// faster neighbour's REDUCE does reach a worker that early — receives
    /// are drained between the layers of backward — so the worker parks
    /// every frame of a layer until that layer's own `Send` has fired and
    /// replays them, in arrival order, right after it.
    pub fn on_collective(
        &mut self,
        from_worker: usize,
        route: u32,
        payload: Bytes,
    ) -> Result<Vec<CollectiveSend>, CodecError> {
        if !matches!(self.scheme, CommScheme::Ring | CommScheme::Tree) {
            return Err(WRONG_KIND);
        }
        let (phase, origin, seg) = wire::unpack_collective(route);
        let Some(&(_, len)) = self.segs.get(seg) else {
            return Err(CodecError::Malformed("collective segment out of range"));
        };
        if self.codec == Codec::Identity && payload.len() != len * 4 {
            let got = payload.len() / 4;
            return Err(CodecError::LengthMismatch { expect: len, got });
        }
        let mut out = Vec::new();
        match (self.scheme, phase) {
            (CommScheme::Ring, COLLECTIVE_REDUCE) => {
                assert_ne!(self.me, 0, "worker 0 never receives ring REDUCE");
                assert_eq!(
                    from_worker,
                    self.me - 1,
                    "ring REDUCE from wrong predecessor"
                );
                assert_eq!(origin, 0, "ring frames originate at worker 0");
                assert!(
                    !self.seg_done[seg],
                    "duplicate ring REDUCE for segment {seg}"
                );
                assert!(
                    self.own_ready[seg],
                    "ring REDUCE for segment {seg} before this layer's Send"
                );
                let own = &self.own_contrib[seg];
                if self.codec == Codec::Identity {
                    // Fused `partial += c_me` straight on the wire payload
                    // into a pooled buffer — no decode/encode round-trip per
                    // hop.
                    if self.me == self.workers - 1 {
                        // Chain complete: the sums are the new velocity. The
                        // same pass keeps them and writes the DISTRIBUTE
                        // frame that travels the other way.
                        let v = self.velocity[seg].get_or_insert_with(|| vec![0.0; len]);
                        let summed = wire::add_f32s_pooled_keep(&payload, own, v)
                            .expect("length checked above");
                        self.seg_done[seg] = true;
                        out.push(CollectiveSend {
                            to_worker: (self.me + 1) % self.workers,
                            route: wire::pack_collective(COLLECTIVE_DISTRIBUTE, 0, seg),
                            data: summed,
                        });
                    } else {
                        out.push(CollectiveSend {
                            to_worker: self.me + 1,
                            route,
                            data: wire::add_f32s_pooled(&payload, own)
                                .expect("length checked above"),
                        });
                    }
                    self.own_ready[seg] = false;
                } else {
                    // Decompress–add–recompress: validate *before* consuming
                    // the contribution so a poisoned frame leaves the round
                    // resumable.
                    let mut summed = decompress(self.codec, &payload, len)?;
                    for (s, c) in summed.iter_mut().zip(own) {
                        *s += c;
                    }
                    self.own_ready[seg] = false;
                    let data = Self::compress(self.codec, &mut self.seg_comp[seg], &summed);
                    if self.me == self.workers - 1 {
                        // The terminal's velocity is the decode of its own
                        // encoding — the exact values every other replica
                        // will decode from the DISTRIBUTE pass.
                        let v = self.velocity[seg].get_or_insert_with(|| vec![0.0; len]);
                        decode_into(self.codec, &data, v).expect("own encoding");
                        self.seg_done[seg] = true;
                        out.push(CollectiveSend {
                            to_worker: (self.me + 1) % self.workers,
                            route: wire::pack_collective(COLLECTIVE_DISTRIBUTE, 0, seg),
                            data,
                        });
                    } else {
                        out.push(CollectiveSend {
                            to_worker: self.me + 1,
                            route,
                            data,
                        });
                    }
                }
            }
            (CommScheme::Ring, COLLECTIVE_DISTRIBUTE) => {
                let last = self.workers - 1;
                assert_ne!(self.me, last, "the last worker originates DISTRIBUTE");
                let expect_from = if self.me == 0 { last } else { self.me - 1 };
                assert_eq!(
                    from_worker, expect_from,
                    "ring DISTRIBUTE from wrong predecessor"
                );
                assert!(
                    !self.seg_done[seg],
                    "duplicate ring DISTRIBUTE for segment {seg}"
                );
                self.receive_velocity(seg, &payload)?;
                let next = self.me + 1;
                if next != last {
                    // Forward the folded velocity unchanged (shared `Bytes`,
                    // no copy); the chain stops just before its originator.
                    out.push(CollectiveSend {
                        to_worker: next,
                        route,
                        data: payload,
                    });
                }
            }
            (CommScheme::Tree, COLLECTIVE_REDUCE) => {
                assert!(
                    origin > 0 && origin < self.workers,
                    "bad tree origin {origin}"
                );
                if self.me == 0 {
                    assert!(
                        self.gathered[seg][origin].is_none(),
                        "duplicate tree contribution from origin {origin}"
                    );
                    // Decode on arrival so a poisoned frame surfaces here,
                    // before the fold consumes any sibling state.
                    self.gathered[seg][origin] = Some(decompress(self.codec, &payload, len)?);
                    self.try_fold_root(seg, &mut out);
                } else {
                    // Interior node: relay the origin-tagged frame unchanged
                    // towards the root (shared `Bytes`, no copy).
                    out.push(CollectiveSend {
                        to_worker: (self.me - 1) / 2,
                        route,
                        data: payload,
                    });
                }
            }
            (CommScheme::Tree, COLLECTIVE_DISTRIBUTE) => {
                assert_ne!(self.me, 0, "the root originates tree DISTRIBUTE");
                assert_eq!(
                    from_worker,
                    (self.me - 1) / 2,
                    "tree DISTRIBUTE from non-parent"
                );
                assert!(
                    !self.seg_done[seg],
                    "duplicate tree DISTRIBUTE for segment {seg}"
                );
                self.receive_velocity(seg, &payload)?;
                for child in self.tree_children(self.me) {
                    out.push(CollectiveSend {
                        to_worker: child,
                        route,
                        data: payload.clone(),
                    });
                }
            }
            _ => return Err(CodecError::Malformed("unknown collective phase")),
        }
        Ok(out)
    }

    /// A DISTRIBUTE payload is segment `seg`'s new velocity: decodes it over
    /// the kept buffer, which a rejected payload leaves as it was.
    fn receive_velocity(&mut self, seg: usize, payload: &[u8]) -> Result<(), CodecError> {
        let (_, len) = self.segs[seg];
        validate(self.codec, payload, len)?;
        let v = self.velocity[seg].get_or_insert_with(|| vec![0.0; len]);
        decode_into(self.codec, payload, v).expect("validated above");
        self.seg_done[seg] = true;
        Ok(())
    }

    /// Root-side tree fold: once every origin's contribution and our own are
    /// in for `seg`, replay the shard's exact fold (`v ← µ·v` or zeros, then
    /// `v += c_w` in worker-id order) in place on the kept velocity and
    /// broadcast it down.
    fn try_fold_root(&mut self, seg: usize, out: &mut Vec<CollectiveSend>) {
        debug_assert_eq!(self.me, 0, "only the root folds");
        if self.seg_done[seg]
            || !self.own_ready[seg]
            || (1..self.workers).any(|o| self.gathered[seg][o].is_none())
        {
            return;
        }
        let (_, len) = self.segs[seg];
        let own = &self.own_contrib[seg];
        let seeded = self.momentum != 0.0 && self.velocity[seg].is_some();
        let v = self.velocity[seg].get_or_insert_with(|| vec![0.0; len]);
        if seeded {
            for (v, c) in v.iter_mut().zip(own) {
                *v = self.momentum * *v + c;
            }
        } else {
            // `0.0 + c`, not `c`: see [`Seed::Zero`].
            for (v, c) in v.iter_mut().zip(own) {
                *v = 0.0 + c;
            }
        }
        self.own_ready[seg] = false;
        for origin in 1..self.workers {
            let b = self.gathered[seg][origin].take().expect("checked above");
            for (v, src) in v.iter_mut().zip(&b) {
                *v += src;
            }
        }
        let data = Self::compress(self.codec, &mut self.seg_comp[seg], v);
        // Under a lossy codec the root, like every other replica, applies
        // what the wire carries — the decode of its own encoding — so all
        // replicas stay bitwise identical.
        if self.codec != Codec::Identity {
            decode_into(self.codec, &data, v).expect("own encoding");
        }
        self.seg_done[seg] = true;
        for child in self.tree_children(0) {
            out.push(CollectiveSend {
                to_worker: child,
                route: wire::pack_collective(COLLECTIVE_DISTRIBUTE, 0, seg),
                data: data.clone(),
            });
        }
    }

    /// Records our own sufficient-factor batch at `Send` time (SFB includes
    /// the local contribution when reconstructing).
    fn set_own_sf(&mut self, batch: SfBatch) {
        assert!(
            matches!(self.scheme, CommScheme::Sfb),
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
        if self.scheme != CommScheme::Ps {
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
        if self.scheme != CommScheme::AdamSf {
            return Err(WRONG_KIND);
        }
        assert!(self.received_matrix.is_none(), "duplicate param matrix");
        self.received_matrix = Some(values);
        Ok(())
    }

    /// Handles a peer's sufficient-factor batch.
    fn on_peer_sf(&mut self, from_worker: usize, batch: SfBatch) -> Result<(), CodecError> {
        if self.scheme != CommScheme::Sfb {
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
        match self.scheme {
            CommScheme::Ps => self.chunk_done.iter().all(|&d| d),
            CommScheme::AdamSf => self.received_matrix.is_some(),
            CommScheme::Sfb => self.sf_batches.iter().all(Option::is_some),
            CommScheme::Ring | CommScheme::Tree => self.seg_done.iter().all(|&d| d),
        }
    }

    /// Consumes the iteration's received state into a [`SyncOutcome`] —
    /// `None` for a PS layer, whose chunks were applied as they arrived.
    /// [`Self::apply`] moves it into the replica. Panics if the syncer is
    /// not complete.
    pub fn take_outcome(&mut self) -> Option<SyncOutcome<'_>> {
        assert!(
            self.is_complete(),
            "layer {} syncer not complete",
            self.layer
        );
        Some(match self.scheme {
            CommScheme::Ps => return None,
            CommScheme::AdamSf => {
                SyncOutcome::FreshParams(self.received_matrix.take().expect("complete"))
            }
            CommScheme::Sfb => SyncOutcome::SfApply(
                self.sf_batches
                    .iter_mut()
                    .map(|b| b.take().expect("complete"))
                    .collect(),
            ),
            // The velocity is persistent optimiser state (next round's
            // µ·v): lent, not taken.
            CommScheme::Ring | CommScheme::Tree => SyncOutcome::ApplyDelta(
                self.segs
                    .iter()
                    .zip(&self.velocity)
                    .map(|(&(off, _), v)| (off, v.as_deref().expect("complete")))
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

/// Adds a pre-scaled delta, given as `(offset, values)` segments of the flat
/// `weights ++ bias` layout, to a parameter block where it lies.
///
/// # Panics
///
/// Panics if a segment reaches past the block.
pub fn apply_delta(p: &mut ParamBlock, segments: &[(usize, &[f32])]) {
    let (w, b) = (p.weights.as_mut_slice(), p.bias.as_mut_slice());
    for &(off, delta) in segments {
        let (wr, br) = split_at_bias(off..off + delta.len(), w.len());
        let (dw, db) = delta.split_at(wr.len());
        for (v, d) in w[wr].iter_mut().zip(dw) {
            *v += d;
        }
        for (v, d) in b[br].iter_mut().zip(db) {
            *v += d;
        }
    }
}

/// How a contribution `c = scale·g` enters a wire buffer or a kept one.
#[derive(Clone, Copy)]
enum Seed<'a> {
    /// As it is: somebody else's fold adds it in.
    Plain,
    /// First into a fold over a zero velocity: `0.0 + c`, the f32 op the
    /// shard runs on its zero-filled velocity. Never `c` itself —
    /// `0.0 + (-0.0)` is `+0.0`, assignment isn't.
    Zero,
    /// First into a fold over `µ·v`: `µ·v + c`, every product and the sum
    /// rounded on its own like the shard's `v ← µ·v; v += c`.
    Momentum(f32, &'a [f32]),
}

/// Somewhere a run of `f32`s goes: a value buffer, or wire bytes
/// (little-endian, the identity codec's layout).
trait F32Sink {
    fn put(&mut self, vals: impl Iterator<Item = f32>);
}

impl F32Sink for [f32] {
    fn put(&mut self, vals: impl Iterator<Item = f32>) {
        for (d, v) in self.iter_mut().zip(vals) {
            *d = v;
        }
    }
}

impl F32Sink for [u8] {
    fn put(&mut self, vals: impl Iterator<Item = f32>) {
        for (d, v) in self.chunks_exact_mut(4).zip(vals) {
            d.copy_from_slice(&v.to_le_bytes());
        }
    }
}

/// Writes `scale·g`, seeded as `seed` says, over `dst` in one pass.
fn write_scaled<S: F32Sink + ?Sized>(dst: &mut S, seed: Seed<'_>, scale: f32, g: &[f32]) {
    match seed {
        Seed::Plain => dst.put(g.iter().map(|g| scale * g)),
        Seed::Zero => dst.put(g.iter().map(|g| 0.0 + scale * g)),
        Seed::Momentum(mu, v) => {
            assert_eq!(v.len(), g.len(), "velocity run length");
            dst.put(v.iter().zip(g).map(|(v, g)| mu * v + scale * g))
        }
    }
}

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
    let count: usize = batches.iter().map(SfBatch::len).sum();
    let mut bias_grad = vec![0.0f32; rows];
    if count == 0 {
        return (Matrix::zeros(rows, cols), bias_grad);
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
    let grad = Matrix::from_vec(count, rows, u).matmul_tn(&Matrix::from_vec(count, cols, v));
    (grad, bias_grad)
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
        let mut s = Syncer::new(0, CommScheme::Ps, chunks, 6, 2, 0).with_codec(Codec::Bf16);
        let mut p = ParamBlock::new(2, 2);
        write_params_flat(&mut p, &[1.0; 6]);
        let delta = [0.5f32, -0.5, 2.0, 0.0, -1.0, 4.0];
        let payload = make_compressor(Codec::Bf16, 6).compress(&delta);
        let err = s.on_param_chunk(0, Codec::Bf16, &payload[..11], &mut p);
        assert!(err.is_err() && !s.is_complete());
        assert_eq!(flatten_params(&p), vec![1.0; 6], "refused whole");
        s.on_param_chunk(0, Codec::Bf16, &payload, &mut p).unwrap();
        assert!(s.is_complete());
        assert_eq!(flatten_params(&p), vec![1.5, 0.5, 3.0, 1.0, 0.0, 5.0]);
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

    /// A `1 × (n − 1)` block whose flat gradient is `flat`: any chunk that
    /// covers the last element straddles the weights/bias boundary.
    fn block_with_grads(flat: &[f32]) -> ParamBlock {
        let cols = flat.len() - 1;
        let mut p = ParamBlock::new(1, cols);
        p.grad_weights = Matrix::from_vec(1, cols, flat[..cols].to_vec());
        p.grad_bias = Matrix::from_vec(1, 1, flat[cols..].to_vec());
        p
    }

    /// The flat delta a completed collective syncer hands back.
    fn take_delta(s: &mut Syncer, elems: usize) -> Vec<f32> {
        let mut flat = vec![f32::NAN; elems];
        match s.take_outcome().unwrap() {
            SyncOutcome::ApplyDelta(segs) => {
                for (off, v) in segs {
                    flat[off..off + v.len()].copy_from_slice(v);
                }
            }
            other => panic!("wrong outcome {other:?}"),
        }
        flat
    }

    /// Drives `workers` collective syncers through three full exchanges and
    /// checks the applied parameters stay bitwise identical to a PS shard
    /// folding the same raw gradients (the cross-scheme exactness invariant).
    fn collective_matches_shard(scheme: CommScheme, workers: usize, momentum: f32) {
        let elems = 7;
        let chunks = vec![chunk(0, 0, 0, 4), chunk(0, 1, 4, 3)];
        let scale = -0.05f32;
        let mut shard = ShardState::with_momentum(workers, scale, momentum);
        shard.init_pair((0, 0), vec![0.25; 4]);
        shard.init_pair((0, 1), vec![0.25; 3]);
        let mut params = vec![0.25f32; elems];
        let mut syncers: Vec<Syncer> = (0..workers)
            .map(|w| {
                Syncer::new(0, scheme, chunks.clone(), elems, workers, w).with_momentum(momentum)
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
            // Backward for every worker, then drain the in-flight frames —
            // the same send-before-receive order the runtimes follow.
            let mut inflight: VecDeque<(usize, usize, u32, Bytes)> = VecDeque::new();
            for (w, s) in syncers.iter_mut().enumerate() {
                s.begin_iteration();
                for send in s.send_collective(&block_with_grads(&grads[w]), scale) {
                    inflight.push_back((send.to_worker, w, send.route, send.data));
                }
            }
            while let Some((to, from, route, data)) = inflight.pop_front() {
                for send in syncers[to].on_collective(from, route, data).unwrap() {
                    inflight.push_back((send.to_worker, to, send.route, send.data));
                }
            }
            let mut deltas = Vec::new();
            for s in &mut syncers {
                assert!(s.is_complete(), "collective exchange stalled");
                deltas.push(take_delta(s, elems));
            }
            for d in &deltas[1..] {
                assert_eq!(f32_bits(d), f32_bits(&deltas[0]), "replicas diverged");
            }
            // Applied where it lies, the delta lands exactly like the flat add.
            let mut block = block_with_grads(&vec![0.0; elems]);
            write_params_flat(&mut block, &params);
            match syncers[0].take_outcome().unwrap() {
                SyncOutcome::ApplyDelta(segs) => apply_delta(&mut block, &segs),
                other => panic!("wrong outcome {other:?}"),
            }
            for (p, d) in params.iter_mut().zip(&deltas[0]) {
                *p += d;
            }
            assert_eq!(f32_bits(&flatten_params(&block)), f32_bits(&params));
            for (w, g) in grads.iter().enumerate() {
                shard.receive_grad(w, (0, 0), &g[..4]);
                shard.receive_grad(w, (0, 1), &g[4..]);
            }
            let mut master = Vec::new();
            master.extend_from_slice(shard.pair((0, 0)).unwrap());
            master.extend_from_slice(shard.pair((0, 1)).unwrap());
            assert_eq!(
                f32_bits(&params),
                f32_bits(&master),
                "{scheme} P={workers} µ={momentum} diverged from the PS fold at iteration {it}"
            );
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
    fn tree_matches_ps_shard_bitwise() {
        for &workers in &[2, 3, 4, 7] {
            collective_matches_shard(CommScheme::Tree, workers, 0.0);
            collective_matches_shard(CommScheme::Tree, workers, 0.9);
        }
    }

    #[test]
    fn collective_layer_without_chunks_uses_one_segment() {
        let mut a = Syncer::new(0, CommScheme::Ring, vec![], 3, 2, 0);
        let mut b = Syncer::new(0, CommScheme::Ring, vec![], 3, 2, 1);
        let seeds = a.send_collective(&block_with_grads(&[1.0, 2.0, 3.0]), 1.0);
        assert!(b
            .send_collective(&block_with_grads(&[0.5, 0.5, 0.5]), 1.0)
            .is_empty());
        assert_eq!(seeds.len(), 1, "single whole-layer segment");
        let fwd = b
            .on_collective(0, seeds[0].route, seeds[0].data.clone())
            .unwrap();
        assert!(b.is_complete());
        assert_eq!(fwd.len(), 1, "DISTRIBUTE back to worker 0");
        let done = a
            .on_collective(1, fwd[0].route, fwd[0].data.clone())
            .unwrap();
        assert!(done.is_empty(), "DISTRIBUTE stops before its originator");
        assert!(a.is_complete());
        assert_eq!(take_delta(&mut a, 3), vec![1.5, 2.5, 3.5]);
    }

    /// Drives `workers` lossy-codec collective syncers through several
    /// exchanges: all replicas must land on bitwise-identical deltas (they
    /// all decode the same terminal encoding), even though the delta itself
    /// is an approximation of the exact fold.
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
        for it in 0..4usize {
            let mut inflight: VecDeque<(usize, usize, u32, Bytes)> = VecDeque::new();
            for (w, s) in syncers.iter_mut().enumerate() {
                s.begin_iteration();
                let grad: Vec<f32> = (0..elems)
                    .map(|i| ((w * 31 + i * 7 + it * 13) % 17) as f32 * 0.3 - 2.0)
                    .collect();
                for send in s.send_collective(&block_with_grads(&grad), scale) {
                    inflight.push_back((send.to_worker, w, send.route, send.data));
                }
            }
            while let Some((to, from, route, data)) = inflight.pop_front() {
                for send in syncers[to].on_collective(from, route, data).unwrap() {
                    inflight.push_back((send.to_worker, to, send.route, send.data));
                }
            }
            let mut deltas = Vec::new();
            for s in &mut syncers {
                assert!(s.is_complete(), "lossy collective exchange stalled");
                deltas.push(take_delta(s, elems));
            }
            for d in &deltas[1..] {
                assert_eq!(
                    f32_bits(d),
                    f32_bits(&deltas[0]),
                    "{scheme}/{codec} P={workers} replicas diverged at iteration {it}"
                );
            }
        }
    }

    #[test]
    fn lossy_collectives_keep_replicas_bitwise_identical() {
        use poseidon_tensor::compress::TOPK_DEFAULT_PERMILLE;
        for codec in [
            Codec::OneBit,
            Codec::F16,
            Codec::Bf16,
            Codec::TopK {
                permille: TOPK_DEFAULT_PERMILLE,
            },
        ] {
            for &workers in &[2usize, 3, 5] {
                lossy_collective_replicas_agree(CommScheme::Ring, codec, workers);
                lossy_collective_replicas_agree(CommScheme::Tree, codec, workers);
            }
        }
    }

    #[test]
    fn corrupt_collective_payload_surfaces_not_panics() {
        let mut b = Syncer::new(0, CommScheme::Ring, vec![], 4, 2, 1).with_codec(Codec::OneBit);
        let _ = b.send_collective(&block_with_grads(&[0.1, 0.2, 0.3, 0.4]), 1.0);
        let route = wire::pack_collective(COLLECTIVE_REDUCE, 0, 0);
        let err = b.on_collective(0, route, Bytes::from(vec![1u8, 2, 3]));
        assert!(err.is_err(), "truncated payload must surface, got {err:?}");
        assert!(
            !b.is_complete(),
            "poisoned frame must not complete a segment"
        );
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
        let mut a = Syncer::new(0, CommScheme::Ring, vec![], 3, 2, 1).with_momentum(0.9);
        a.velocity[0] = Some(vec![1.5, -2.0, 0.25]);
        let st = a.export_state();
        assert_eq!(st.velocity[0].as_deref(), Some(&[1.5, -2.0, 0.25][..]));
        let mut b = Syncer::new(0, CommScheme::Ring, vec![], 3, 2, 1).with_momentum(0.9);
        b.import_state(st);
        assert_eq!(b.velocity, a.velocity);
        // Untouched compressor slots stay lazily absent.
        assert!(b.seg_comp[0].is_none());
    }

    #[test]
    #[should_panic(expected = "cannot ride codec")]
    fn sfb_rejects_lossy_codec() {
        let _ = Syncer::new(0, CommScheme::Sfb, vec![], 4, 2, 0).with_codec(Codec::F16);
    }

    #[test]
    #[should_panic(expected = "wrong predecessor")]
    fn ring_reduce_from_wrong_sender_panics() {
        let mut s = Syncer::new(0, CommScheme::Ring, vec![], 2, 3, 2);
        s.send_collective(&block_with_grads(&[0.0, 0.0]), 1.0);
        let route = wire::pack_collective(COLLECTIVE_REDUCE, 0, 0);
        let _ = s.on_collective(0, route, wire::encode_f32s(&[1.0, 2.0]));
    }

    #[test]
    #[should_panic(expected = "duplicate tree contribution")]
    fn duplicate_tree_contribution_panics() {
        let mut s = Syncer::new(0, CommScheme::Tree, vec![], 1, 3, 0);
        let route = wire::pack_collective(COLLECTIVE_REDUCE, 1, 0);
        let _ = s.on_collective(1, route, wire::encode_f32s(&[1.0]));
        let _ = s.on_collective(1, route, wire::encode_f32s(&[1.0]));
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
