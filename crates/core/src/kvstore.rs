//! The bulk-synchronous KV-store shard state machine.
//!
//! Each shard holds the master copy of the KV pairs assigned to it and
//! implements the consistency protocol of Section 4.1: "the KV store
//! maintains a zero-initialized count value for each KV pair at the start of
//! each iteration. Every time an update is applied on a KV pair, its count
//! value is increased by 1. The KV pair will be broadcast via its Send API
//! when its count equals the number of workers."
//!
//! Aggregation is deterministic: per-worker gradients are staged and folded
//! in worker-id order once complete, so two runs with identical inputs
//! produce bitwise-identical parameters (the distributed-equals-serial tests
//! rely on this).
//!
//! A gradient is staged *as it arrived*: a wire frame stays its refcounted
//! [`Bytes`] (validated at receipt, never decoded to a vector) and is folded
//! straight from those bytes into the pair's velocity.
//!
//! Who owns each buffer of a round: a staged frame's bytes belong to
//! whoever made them — the pool lease a remote frame was read into, or a
//! co-resident worker's own gradient storage, lent for the round
//! ([`crate::syncer::Syncer::send`]) — and the fold drops them. A pair's
//! master is a copy-on-write `Arc`: the identity reply is a view of it
//! (`ShardState::identity_reply`) that all `P` workers' `ParamChunk`s
//! share, and the master's next write copies it first only if such a view
//! is still held. A round completes only after every worker has applied
//! the last one, so none is, except a retransmit copy under a fault plan,
//! which costs that one copy.
//!
//! [`ShardServer`] is the one place a scheme's shard side lives: the table
//! of pairs a shard may hold, and what serving each takes — the PS fold and
//! reply (identity, or lossy with its error-feedback residual), Adam's
//! reconstruction — behind calls the shard loop makes alike for every
//! scheme.

use crate::checkpoint::{self, PairState};
use crate::coordinator::Coordinator;
use crate::membership::MembershipSchedule;
use crate::route::{self, Dest, Payload, Route};
use crate::syncer;
use crate::transport::Message;
use crate::wire::{self, Codec, CodecError, LAYER_GRANULAR_CHUNK};
use bytes::Bytes;
use poseidon_tensor::compress::{make_compressor, Compressor, FrameCursor};
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::sync::Arc;

/// Key of one KV pair: `(layer index, chunk index within the layer)`.
pub type KvKey = (u32, u32);

/// One worker's gradient for a KV pair, held until the round folds.
#[derive(Debug)]
pub enum Staged {
    /// A gradient frame's payload exactly as it came off the wire. Pins its
    /// backing buffer — a pool lease, or a co-resident worker's gradient
    /// storage — until the fold drops it.
    Frame { codec: Codec, payload: Bytes },
    /// An already-dense gradient (the Adam SF reconstruction, tests).
    Dense(Vec<f32>),
}

impl Staged {
    /// A cursor at the front of this gradient. A frame that is not `elems`
    /// well-formed values is refused whole; a dense gradient of the wrong
    /// length is a caller bug.
    fn cursor(&self, elems: usize) -> Result<GradCursor<'_>, CodecError> {
        match self {
            Staged::Frame { codec, payload } => {
                wire::codec_cursor(*codec, payload, elems).map(GradCursor::Frame)
            }
            Staged::Dense(g) => {
                assert_eq!(g.len(), elems, "gradient length mismatch");
                Ok(GradCursor::Dense(g))
            }
        }
    }
}

/// One staged gradient being folded front to back, a window at a time: a
/// frame straight from its wire bytes, a dense gradient by slice.
enum GradCursor<'a> {
    Frame(FrameCursor<'a>),
    Dense(&'a [f32]),
}

impl GradCursor<'_> {
    /// `acc[i] += scale · g[at + i]` over the next `acc.len()` elements.
    fn axpy_next(&mut self, scale: f32, acc: &mut [f32]) {
        match self {
            GradCursor::Frame(frame) => frame.accumulate_next(scale, acc),
            GradCursor::Dense(g) => {
                let (head, rest) = g.split_at(acc.len());
                *g = rest;
                for (a, g) in acc.iter_mut().zip(head) {
                    *a += scale * g;
                }
            }
        }
    }
}

/// Velocity elements folded per block: 16 KiB of velocity stays in L1 while
/// the round's `P` gradients stream through it. A multiple of 8, as
/// [`FrameCursor`] windows must be.
pub const FOLD_BLOCK: usize = 4096;

/// One shard of the globally-shared parameters.
#[derive(Debug)]
pub struct ShardState {
    workers: usize,
    /// `-lr / P` — the coefficient applied to the summed gradient. Negative
    /// because workers send raw loss gradients.
    update_scale: f32,
    /// Classical momentum coefficient µ (0 = plain SGD). The shard keeps one
    /// velocity buffer per KV pair in *scaled* form — `v ← µ·v + scale·Σg`,
    /// `θ += v` — which is exactly serial momentum SGD on the averaged
    /// gradient, and stays exact when the learning rate is rescheduled
    /// mid-run.
    momentum: f32,
    /// Masters, copy-on-write: an identity reply is a view of its master
    /// (`identity_reply`), and the next write copies the master
    /// first only if such a view is still held.
    params: HashMap<KvKey, Arc<Vec<f32>>>,
    velocity: HashMap<KvKey, Vec<f32>>,
    pending: HashMap<KvKey, Vec<Option<Staged>>>,
}

impl ShardState {
    /// Creates a shard expecting updates from `workers` workers per KV pair
    /// per iteration, applying `update_scale · Σ gradients` each round.
    pub fn new(workers: usize, update_scale: f32) -> Self {
        Self::with_momentum(workers, update_scale, 0.0)
    }

    /// Like [`Self::new`] but with server-side classical momentum.
    pub fn with_momentum(workers: usize, update_scale: f32, momentum: f32) -> Self {
        assert!(workers > 0, "shard needs at least one worker");
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0,1)");
        Self {
            workers,
            update_scale,
            momentum,
            params: HashMap::new(),
            velocity: HashMap::new(),
            pending: HashMap::new(),
        }
    }

    /// Installs the initial master copy of a KV pair.
    pub fn init_pair(&mut self, key: KvKey, values: Vec<f32>) {
        self.params.insert(key, Arc::new(values));
    }

    /// Number of KV pairs hosted.
    pub fn num_pairs(&self) -> usize {
        self.params.len()
    }

    /// Read-only view of a KV pair's master copy.
    pub fn pair(&self, key: KvKey) -> Option<&[f32]> {
        self.params.get(&key).map(|m| m.as_slice())
    }

    /// The pair's master as an identity reply payload: a view of the master
    /// itself (`wire::identity_view`), shared by every worker it goes to.
    ///
    /// # Panics
    ///
    /// Panics if the pair was never initialised.
    fn identity_reply(&self, key: KvKey) -> Bytes {
        wire::identity_view(self.master(key))
    }

    fn master(&self, key: KvKey) -> &Arc<Vec<f32>> {
        self.params
            .get(&key)
            .unwrap_or_else(|| panic!("KV pair {key:?} not initialised on this shard"))
    }

    /// The master to write: copied first if a reply still views it.
    fn master_mut(&mut self, key: KvKey) -> &mut Vec<f32> {
        let master = self.params.get_mut(&key);
        Arc::make_mut(
            master.unwrap_or_else(|| panic!("KV pair {key:?} not initialised on this shard")),
        )
    }

    /// Receives one worker's dense gradient for a KV pair: [`Self::stage`],
    /// and once the count reaches `P`, [`Self::fold`] and
    /// [`Self::apply_velocity`] in one call. Returns `Some(updated
    /// parameters)` — the fresh master copy to broadcast — for the last
    /// missing worker, `None` otherwise.
    ///
    /// # Panics
    ///
    /// Panics if the pair was never initialised, the gradient length doesn't
    /// match, the worker id is out of range, or the same worker reports twice
    /// in one round (a BSP protocol violation).
    pub fn receive_grad(&mut self, worker: usize, key: KvKey, grad: &[f32]) -> Option<Vec<f32>> {
        let complete = self
            .stage(worker, key, Staged::Dense(grad.to_vec()))
            .expect("a dense gradient is never refused");
        complete.then(|| {
            self.fold(key);
            self.apply_velocity(key).to_vec()
        })
    }

    /// Stages one worker's gradient for the current round; `Ok(true)` when
    /// the count reached `P` and the round is ready to [`Self::fold`]. A
    /// frame that is not a well-formed payload of the pair's length is
    /// refused here, at receipt: nothing is staged from it, and the round
    /// still completes when the good frame arrives.
    ///
    /// # Panics
    ///
    /// As [`Self::receive_grad`].
    pub fn stage(&mut self, worker: usize, key: KvKey, grad: Staged) -> Result<bool, CodecError> {
        assert!(worker < self.workers, "worker {worker} out of range");
        let elems = self.master(key).len();
        match &grad {
            Staged::Frame { codec, payload } => {
                poseidon_tensor::compress::validate(*codec, payload, elems)?
            }
            Staged::Dense(g) => assert_eq!(g.len(), elems, "gradient length mismatch for {key:?}"),
        }
        let workers = self.workers;
        let slots = self
            .pending
            .entry(key)
            .or_insert_with(|| (0..workers).map(|_| None).collect());
        assert!(
            slots[worker].is_none(),
            "worker {worker} sent two updates for {key:?} in one BSP round"
        );
        slots[worker] = Some(grad);
        Ok(slots.iter().all(Option::is_some))
    }

    /// Folds the completed round in worker-id order (deterministic) into the
    /// scaled velocity — per element `v ← µ·v` (or `0.0`), then
    /// `v += scale·g_w` for `w = 0..P`, each straight from its staged form —
    /// resets the round, and returns the velocity: the exact `θ`-delta of
    /// this round, not yet applied. The velocity is walked once, in
    /// [`FOLD_BLOCK`]-element blocks that see the decay and then all `P`
    /// gradients before the walk moves on: the same operations per element
    /// in the same order as `P + 1` whole passes. Panics if the round is not
    /// complete.
    pub fn fold(&mut self, key: KvKey) -> &[f32] {
        self.fold_blocks(key, |_, _| {});
        &self.velocity[&key]
    }

    /// The identity reply of a completed round: one blocked walk in which
    /// each [`FOLD_BLOCK`] is folded as [`Self::fold`] folds it and then
    /// gets `θ += v` before the walk moves on, and the fresh master's
    /// `identity_reply`. Bit for bit [`Self::fold`],
    /// [`Self::apply_velocity`] and [`wire::encode_f32s_pooled`] of the
    /// master, in one pass over `v` and `θ` and no copy of `θ`.
    pub fn fold_apply_encode(&mut self, key: KvKey) -> Bytes {
        self.fold_blocks(key, |v, theta| {
            for (t, v) in theta.iter_mut().zip(v) {
                *t += v;
            }
        });
        self.identity_reply(key)
    }

    /// Folds the completed round block by block, handing each folded
    /// velocity block and the master block beside it to `then` before the
    /// walk moves on; the master is copied first if a reply still views it.
    /// Panics if the round is not complete.
    fn fold_blocks(&mut self, key: KvKey, mut then: impl FnMut(&[f32], &mut [f32])) {
        let slots = self.pending.remove(&key).expect("round not complete");
        let (momentum, scale) = (self.momentum, self.update_scale);
        let master = Arc::make_mut(self.params.get_mut(&key).expect("a staged pair is hosted"));
        let len = master.len();
        let velocity = self.velocity.entry(key).or_insert_with(|| vec![0.0; len]);
        let mut grads: Vec<GradCursor<'_>> = slots
            .iter()
            .map(|grad| {
                let grad = grad.as_ref().expect("round not complete");
                grad.cursor(len).expect("validated when staged")
            })
            .collect();
        let blocks = velocity.chunks_mut(FOLD_BLOCK);
        for (block, theta) in blocks.zip(master.chunks_mut(FOLD_BLOCK)) {
            if momentum != 0.0 {
                for v in block.iter_mut() {
                    *v *= momentum;
                }
            } else {
                block.fill(0.0);
            }
            for grad in &mut grads {
                grad.axpy_next(scale, block);
            }
            then(block, theta);
        }
    }

    /// `θ += v` with the pair's folded velocity; returns the fresh master.
    pub fn apply_velocity(&mut self, key: KvKey) -> &[f32] {
        let velocity = self.velocity.get(&key).expect("pair never folded");
        let master = self.params.get_mut(&key);
        let master = Arc::make_mut(master.expect("a folded pair is hosted"));
        for (p, v) in master.iter_mut().zip(velocity) {
            *p += v;
        }
        master
    }

    /// `θ += decode(payload)`, in place: the compression plane folds,
    /// compresses the velocity, then advances the master by exactly what
    /// every replica will decode from that reply, keeping master and replicas
    /// bitwise in lockstep. Panics if the payload is not the pair's length.
    pub fn apply_delta(&mut self, key: KvKey, codec: Codec, payload: &[u8]) {
        wire::accumulate_codec(codec, payload, 1.0, self.master_mut(key))
            .unwrap_or_else(|e| panic!("delta for {key:?} does not decode: {e}"));
    }

    /// Changes the update scale (`-lr / P`), e.g. when a learning-rate
    /// schedule steps between BSP rounds. The scaled velocity is untouched —
    /// exactly how a serial optimiser decays its learning rate.
    pub fn set_update_scale(&mut self, scale: f32) {
        self.update_scale = scale;
    }

    /// Number of workers that have reported for `key` in the current round.
    pub fn pending_count(&self, key: KvKey) -> usize {
        self.pending
            .get(&key)
            .map_or(0, |slots| slots.iter().filter(|s| s.is_some()).count())
    }

    /// Every hosted pair's key in sorted order — the deterministic iteration
    /// order for handoffs and checkpoints.
    pub fn sorted_keys(&self) -> Vec<KvKey> {
        let mut keys: Vec<KvKey> = self.params.keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    /// Exports one pair's full optimiser state `(params, velocity)` for an
    /// elastic handoff or checkpoint. The velocity is empty when no round has
    /// folded yet (the new owner starts it at zeros, exactly like this shard
    /// would have).
    pub fn export_pair(&self, key: KvKey) -> Option<(Vec<f32>, Vec<f32>)> {
        let params = self.params.get(&key)?.to_vec();
        let velocity = self.velocity.get(&key).cloned().unwrap_or_default();
        Some((params, velocity))
    }

    /// Installs a pair exported by [`Self::export_pair`] — master copy plus
    /// optimiser velocity (empty = never folded).
    ///
    /// # Panics
    ///
    /// Panics if the pair already exists here, or on a velocity length
    /// mismatch.
    pub fn install_pair(&mut self, key: KvKey, params: Vec<f32>, velocity: Vec<f32>) {
        assert!(
            !self.params.contains_key(&key),
            "KV pair {key:?} already hosted on this shard"
        );
        if !velocity.is_empty() {
            assert_eq!(
                velocity.len(),
                params.len(),
                "velocity length mismatch for {key:?}"
            );
            self.velocity.insert(key, velocity);
        }
        self.params.insert(key, Arc::new(params));
    }

    /// Drops a pair whose ownership moved to another shard.
    ///
    /// # Panics
    ///
    /// Panics if the pair is not hosted here or a BSP round is in flight for
    /// it (handoffs happen only at quiesced iteration boundaries).
    pub fn remove_pair(&mut self, key: KvKey) {
        assert!(
            self.pending.remove(&key).is_none(),
            "KV pair {key:?} handed off mid-round"
        );
        assert!(
            self.params.remove(&key).is_some(),
            "KV pair {key:?} not hosted on this shard"
        );
        self.velocity.remove(&key);
    }
}

/// How a pair's round is answered.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Reply {
    /// A PS chunk's `ParamChunk` under this codec: the fresh master
    /// (identity) or the compressed velocity (lossy).
    Chunk(Codec),
    /// The fresh master of a layer Adam syncs whole, FC weights `rows ×
    /// cols`, as a `ParamMatrix`.
    Matrix(usize, usize),
}

/// The KV store's side of every scheme: the pairs one shard may hold, their
/// masters, and what serving each of them takes. The shard loop calls it
/// alike for every scheme: [`Self::serve`] per frame, [`Self::hand_off`] and
/// [`Self::take_over`] at a membership boundary, [`Self::export`] and
/// [`Self::install`] for a checkpoint.
pub struct ShardServer {
    state: ShardState,
    me: usize,
    schedule: Arc<MembershipSchedule>,
    /// The ownership universe — this shard's home pairs under a trivial
    /// schedule, every PS pair of the mesh under an elastic one — by key:
    /// its home shard, its range of the layer's flat `weights ++ bias`, its
    /// reply. Which pairs it holds is the schedule's call, epoch by epoch.
    table: BTreeMap<KvKey, (usize, Range<usize>, Reply)>,
    /// Lossy pairs' reply compressors (error feedback), made by the first reply.
    reply_comp: HashMap<KvKey, Box<dyn Compressor>>,
}

impl ShardServer {
    /// Shard `me` of the coordinator's plan under `schedule`, folding with
    /// momentum `µ`; it holds no pair yet.
    ///
    /// # Panics
    ///
    /// Panics if an elastic schedule meets a layer synced whole (Adam).
    pub fn new(
        coordinator: &Coordinator,
        me: usize,
        schedule: &Arc<MembershipSchedule>,
        momentum: f32,
    ) -> Self {
        let elastic = !schedule.is_trivial();
        let mut table = BTreeMap::new();
        for (l, _) in coordinator.scheme_assignment() {
            // A shard holds the pairs its layer's frames reach: the route's
            // sends to a `Dest::Shard`, which are every worker's alike.
            let route = Route::for_layer(coordinator, l);
            let chunks = coordinator.chunk_table().layer_chunks(l);
            for (dest, seg) in route.sends(0, chunks.len(), |seg| chunks[seg].shard) {
                let Dest::Shard(home) = dest else { continue };
                let codec = coordinator.best_codec(l);
                let info = &coordinator.layers()[l];
                let (chunk, range, reply) = match route.payload() {
                    Payload::Chunks => (seg as u32, chunks[seg].range(), Reply::Chunk(codec)),
                    // Adam's factors, the only other payload a shard is sent.
                    Payload::Factors | Payload::Segments => {
                        assert!(
                            !elastic,
                            "elastic membership does not support layer-granular (AdamSf) shards"
                        );
                        let (rows, cols) = info.fc_shape.expect("Adam layers have an FC shape");
                        let reply = Reply::Matrix(rows, cols);
                        (LAYER_GRANULAR_CHUNK, 0..info.param_elems, reply)
                    }
                };
                table.insert((l as u32, chunk), (home, range, reply));
            }
        }
        if !elastic {
            table.retain(|_, (home, ..)| *home == me);
        }
        let workers = coordinator.cluster().workers;
        Self {
            state: ShardState::with_momentum(workers, 0.0, momentum),
            me,
            schedule: Arc::clone(schedule),
            table,
            reply_comp: HashMap::new(),
        }
    }

    /// The pairs this shard holds at `epoch`, ascending.
    pub fn owned(&self, epoch: u32) -> Vec<KvKey> {
        self.keys(|home| self.schedule.owner(home, epoch) == self.me)
    }

    /// The pairs of home shard `home`, ascending: what a change of its owner
    /// moves.
    pub fn home_keys(&self, home: usize) -> Vec<KvKey> {
        self.keys(|h| h == home)
    }

    fn keys(&self, home: impl Fn(usize) -> bool) -> Vec<KvKey> {
        let keys = self.table.iter().filter(|(_, pair)| home(pair.0));
        keys.map(|(&key, _)| key).collect()
    }

    /// Installs the initial master of every pair held at `epoch`, cut from
    /// `layer_params(l)`: layer `l`'s flat `weights ++ bias`.
    pub fn init(&mut self, epoch: u32, layer_params: impl Fn(usize) -> Vec<f32>) {
        for key in self.owned(epoch) {
            let range = self.table[&key].1.clone();
            self.state
                .init_pair(key, layer_params(key.0 as usize)[range].to_vec());
        }
    }

    /// Serves one non-control frame from worker `from` at update scale
    /// `scale`: stages it and answers a round it completes through `emit`.
    /// A PS identity reply is the fresh master, encoded in the fold's walk
    /// into one buffer all `P` workers share; a lossy one is the velocity
    /// compressed with error feedback, on its way before the master advances
    /// by its *decoded* bytes. An Adam round folds the workers' factors,
    /// reconstructed dense.
    ///
    /// # Errors
    ///
    /// The [`CodecError`] of a poisoned frame — a payload that fails
    /// validation, a pair this shard does not hold, a kind a shard never
    /// serves: nothing is staged from it.
    pub fn serve(
        &mut self,
        from: usize,
        msg: Message,
        scale: f32,
        mut emit: impl FnMut(Dest, Message),
    ) -> Result<(), CodecError> {
        self.state.set_update_scale(scale);
        match msg {
            Message::GradChunk {
                iter,
                layer,
                chunk,
                codec,
                data: payload,
            } => {
                let key = (layer, chunk);
                let (elems, Reply::Chunk(reply)) = self.held(key)? else {
                    return Err(CodecError::Malformed("gradient of a layer synced whole"));
                };
                let reply_with = move |data| Message::ParamChunk {
                    iter,
                    layer,
                    chunk,
                    codec: reply,
                    data,
                };
                let grad = Staged::Frame { codec, payload };
                if !self.state.stage(from, key, grad)? {
                    return Ok(());
                }
                let data = if reply == Codec::Identity {
                    self.state.fold_apply_encode(key)
                } else {
                    let comp = self.reply_comp.entry(key);
                    let comp = comp.or_insert_with(|| make_compressor(reply, elems));
                    wire::encode_codec(comp.as_mut(), self.state.fold(key))
                };
                for w in route::replies(self.state.workers) {
                    emit(Dest::Worker(w), reply_with(data.clone()));
                }
                if reply != Codec::Identity {
                    self.state.apply_delta(key, reply, &data);
                }
            }
            Message::SfPush { iter, layer, data } => {
                let key = (layer, LAYER_GRANULAR_CHUNK);
                let (_, Reply::Matrix(rows, cols)) = self.held(key)? else {
                    return Err(CodecError::Malformed("factors of a PS layer"));
                };
                let batch = syncer::decode_sf_batch(&data, (rows, cols))?;
                let (w, b) = syncer::reconstruct_sf_batches(&[batch], rows, cols);
                let dense = Staged::Dense([w.as_slice(), &b].concat());
                if self.state.stage(from, key, dense)? {
                    let data = self.state.fold_apply_encode(key);
                    for w in route::replies(self.state.workers) {
                        let data = data.clone();
                        emit(Dest::Worker(w), Message::ParamMatrix { iter, layer, data });
                    }
                }
            }
            _ => return Err(CodecError::Malformed("a frame kind a shard never serves")),
        }
        Ok(())
    }

    /// The element count and reply of pair `key`, if this shard holds it.
    fn held(&self, key: KvKey) -> Result<(usize, Reply), CodecError> {
        match self.table.get(&key) {
            Some((_, range, reply)) if self.state.pair(key).is_some() => Ok((range.len(), *reply)),
            _ => Err(CodecError::Malformed("frame for a pair not held here")),
        }
    }

    /// One held pair's full state — master, optimizer velocity and reply
    /// residual — for a handoff or a checkpoint.
    pub fn export(&self, key: KvKey) -> PairState {
        let (params, velocity) = self.state.export_pair(key).expect("a held pair");
        let residual = self
            .reply_comp
            .get(&key)
            .map_or_else(Vec::new, |c| c.residual());
        PairState {
            key,
            params,
            velocity,
            residual,
        }
    }

    /// Installs an exported pair; a lossy reply stream continues exactly
    /// where the exporter left it.
    ///
    /// # Errors
    ///
    /// A pair outside this shard's table, or of another length.
    pub fn install(&mut self, pair: PairState) -> Result<(), CodecError> {
        let Some((_, range, reply)) = self.table.get(&pair.key) else {
            return Err(CodecError::Malformed("pair outside this shard's table"));
        };
        let (len, reply) = (range.len(), *reply);
        let fits = |v: &[f32]| v.is_empty() || v.len() == len;
        if pair.params.len() != len || !fits(&pair.velocity) || !fits(&pair.residual) {
            return Err(CodecError::Malformed("pair state of another length"));
        }
        if let (false, Reply::Chunk(codec)) = (pair.residual.is_empty(), reply) {
            let mut comp = make_compressor(codec, len);
            comp.set_residual(&pair.residual);
            self.reply_comp.insert(pair.key, comp);
        }
        self.state
            .install_pair(pair.key, pair.params, pair.velocity);
        Ok(())
    }

    /// Hands every pair of home shard `home` to its new owner — one
    /// `Handoff` frame each, stamped with boundary `iter`, to
    /// [`Dest::Shard`]`(home)` — and drops it here.
    pub fn hand_off(&mut self, home: usize, iter: u64, mut emit: impl FnMut(Dest, Message)) {
        for (layer, chunk) in self.home_keys(home) {
            let pair = self.export((layer, chunk));
            self.state.remove_pair(pair.key);
            self.reply_comp.remove(&pair.key);
            let data = checkpoint::encode_pair_state(&pair.params, &pair.velocity, &pair.residual);
            emit(
                Dest::Shard(home),
                Message::Handoff {
                    iter,
                    layer,
                    chunk,
                    data,
                },
            );
        }
    }

    /// Installs the pair a `Handoff` frame carries.
    ///
    /// # Errors
    ///
    /// A frame of another kind, a payload that does not decode, or a pair
    /// [`Self::install`] refuses.
    pub fn take_over(&mut self, msg: Message) -> Result<(), CodecError> {
        let bad = CodecError::Malformed("handoff pair state");
        let Message::Handoff {
            layer, chunk, data, ..
        } = msg
        else {
            return Err(bad);
        };
        let (params, velocity, residual) = checkpoint::decode_pair_state(&data).ok_or(bad)?;
        let key = (layer, chunk);
        self.install(PairState {
            key,
            params,
            velocity,
            residual,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ClusterConfig, CodecPolicy, Partition, SchemePolicy};
    use crate::coordinator::LayerInfo;
    use poseidon_tensor::bytesio::encode_sf_batch;
    use poseidon_tensor::{SfBatch, SufficientFactor};

    #[test]
    fn broadcast_fires_only_when_all_workers_reported() {
        let mut shard = ShardState::new(3, -1.0);
        shard.init_pair((0, 0), vec![10.0, 20.0]);
        assert!(shard.receive_grad(0, (0, 0), &[1.0, 1.0]).is_none());
        assert_eq!(shard.pending_count((0, 0)), 1);
        assert!(shard.receive_grad(2, (0, 0), &[2.0, 2.0]).is_none());
        let updated = shard.receive_grad(1, (0, 0), &[3.0, 3.0]).unwrap();
        assert_eq!(updated, vec![10.0 - 6.0, 20.0 - 6.0]);
        assert_eq!(
            shard.pending_count((0, 0)),
            0,
            "round resets after broadcast"
        );
    }

    #[test]
    fn pair_handoff_moves_optimizer_state_exactly() {
        // Fold one momentum round on shard A, move the pair to shard B, and
        // check the next round folds bitwise-identically to never moving.
        let mut stay = ShardState::with_momentum(2, -0.5, 0.9);
        stay.init_pair((0, 0), vec![1.0, 2.0]);
        let mut a = ShardState::with_momentum(2, -0.5, 0.9);
        a.init_pair((0, 0), vec![1.0, 2.0]);
        for shard in [&mut stay, &mut a] {
            shard.receive_grad(0, (0, 0), &[1.0, -1.0]);
            shard.receive_grad(1, (0, 0), &[3.0, 0.5]);
        }
        let (params, velocity) = a.export_pair((0, 0)).unwrap();
        a.remove_pair((0, 0));
        assert_eq!(a.num_pairs(), 0);
        assert!(a.export_pair((0, 0)).is_none());
        let mut b = ShardState::with_momentum(2, -0.5, 0.9);
        b.install_pair((0, 0), params, velocity);
        for shard in [&mut stay, &mut b] {
            shard.receive_grad(0, (0, 0), &[0.25, 4.0]);
            shard.receive_grad(1, (0, 0), &[-2.0, 1.0]);
        }
        let bits = |s: &ShardState| -> Vec<u32> {
            s.pair((0, 0))
                .unwrap()
                .iter()
                .map(|v| v.to_bits())
                .collect()
        };
        assert_eq!(bits(&stay), bits(&b), "handoff changed the trajectory");
    }

    #[test]
    fn sorted_keys_is_deterministic() {
        let mut shard = ShardState::new(1, -1.0);
        shard.init_pair((2, 0), vec![0.0]);
        shard.init_pair((0, 1), vec![0.0]);
        shard.init_pair((0, 0), vec![0.0]);
        assert_eq!(shard.sorted_keys(), vec![(0, 0), (0, 1), (2, 0)]);
    }

    #[test]
    #[should_panic(expected = "handed off mid-round")]
    fn mid_round_handoff_panics() {
        let mut shard = ShardState::new(2, -1.0);
        shard.init_pair((0, 0), vec![0.0]);
        shard.receive_grad(0, (0, 0), &[1.0]);
        shard.remove_pair((0, 0));
    }

    #[test]
    fn update_scale_is_applied() {
        let mut shard = ShardState::new(2, -0.5);
        shard.init_pair((1, 0), vec![0.0]);
        shard.receive_grad(0, (1, 0), &[4.0]);
        let updated = shard.receive_grad(1, (1, 0), &[6.0]).unwrap();
        assert_eq!(updated, vec![-5.0]);
    }

    #[test]
    fn aggregation_order_is_worker_id_not_arrival() {
        // With f32 the fold order matters; arrival order must not.
        let run = |order: &[usize]| {
            let mut shard = ShardState::new(3, 1.0);
            shard.init_pair((0, 0), vec![0.0]);
            let grads = [1.0e-8f32, 1.0f32, -1.0f32];
            let mut out = None;
            for &w in order {
                out = shard.receive_grad(w, (0, 0), &[grads[w]]);
            }
            out.unwrap()[0]
        };
        assert_eq!(run(&[0, 1, 2]).to_bits(), run(&[2, 1, 0]).to_bits());
        assert_eq!(run(&[1, 0, 2]).to_bits(), run(&[2, 0, 1]).to_bits());
    }

    #[test]
    fn independent_pairs_progress_independently() {
        let mut shard = ShardState::new(2, -1.0);
        shard.init_pair((0, 0), vec![1.0]);
        shard.init_pair((5, 3), vec![2.0]);
        assert!(shard.receive_grad(0, (0, 0), &[1.0]).is_none());
        assert!(shard.receive_grad(0, (5, 3), &[1.0]).is_none());
        assert!(shard.receive_grad(1, (5, 3), &[1.0]).is_some());
        assert!(shard.receive_grad(1, (0, 0), &[1.0]).is_some());
        assert_eq!(shard.num_pairs(), 2);
    }

    #[test]
    fn multiple_rounds_accumulate() {
        let mut shard = ShardState::new(1, -1.0);
        shard.init_pair((0, 0), vec![10.0]);
        shard.receive_grad(0, (0, 0), &[1.0]);
        shard.receive_grad(0, (0, 0), &[1.0]);
        assert_eq!(shard.pair((0, 0)).unwrap(), &[8.0]);
    }

    fn frame(vals: &[f32]) -> Staged {
        Staged::Frame {
            codec: Codec::Identity,
            payload: wire::encode_f32s(vals),
        }
    }

    #[test]
    fn wire_staged_round_matches_dense_round_bitwise() {
        let mut dense = ShardState::with_momentum(2, -0.5, 0.9);
        let mut wired = ShardState::with_momentum(2, -0.5, 0.9);
        for s in [&mut dense, &mut wired] {
            s.init_pair((0, 0), vec![1.0, -2.0, 3.0]);
        }
        for round in 0..3 {
            let g0 = [1.0 + round as f32, 0.5, -1.0];
            let g1 = [0.25, -0.125, 2.0];
            dense.receive_grad(0, (0, 0), &g0);
            let a = dense.receive_grad(1, (0, 0), &g1).unwrap();
            // Worker 1 arrives first: the fold order is still worker-id.
            assert!(!wired.stage(1, (0, 0), frame(&g1)).unwrap());
            assert!(wired.stage(0, (0, 0), frame(&g0)).unwrap());
            wired.fold((0, 0));
            let b = wired.apply_velocity((0, 0));
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a), bits(b), "round {round}");
        }
    }

    #[test]
    fn fold_returns_the_scaled_velocity_and_leaves_the_master() {
        let mut shard = ShardState::new(1, -1.0);
        shard.init_pair((0, 0), vec![10.0]);
        assert!(shard.stage(0, (0, 0), Staged::Dense(vec![4.0])).unwrap());
        assert_eq!(shard.fold((0, 0)), &[-4.0], "delta is -lr·Σg");
        assert_eq!(shard.pair((0, 0)).unwrap(), &[10.0], "master untouched");
        // The lossy reply path applies what the wire will carry instead.
        shard.apply_delta((0, 0), Codec::Identity, &wire::encode_f32s(&[-3.5]));
        assert_eq!(shard.pair((0, 0)).unwrap(), &[6.5]);
    }

    #[test]
    fn bad_frame_is_refused_at_receipt_and_stages_nothing() {
        let mut shard = ShardState::new(2, -1.0);
        shard.init_pair((0, 0), vec![0.0, 0.0]);
        assert!(shard.stage(0, (0, 0), frame(&[1.0])).is_err(), "one short");
        assert_eq!(shard.pending_count((0, 0)), 0);
        assert!(!shard.stage(0, (0, 0), frame(&[1.0, 2.0])).unwrap());
        assert!(shard.stage(1, (0, 0), frame(&[1.0, 2.0])).unwrap());
        shard.fold((0, 0));
        assert_eq!(shard.apply_velocity((0, 0)), &[-2.0, -4.0]);
    }

    #[test]
    fn momentum_accumulates_velocity_across_rounds() {
        // v1 = g = 4; theta = -4*0.25... scale -1: theta1 = 10 - 4 = 6.
        // v2 = 0.5*4 + 4 = 6; theta2 = 6 - 6 = 0.
        let mut shard = ShardState::with_momentum(1, -1.0, 0.5);
        shard.init_pair((0, 0), vec![10.0]);
        let t1 = shard.receive_grad(0, (0, 0), &[4.0]).unwrap();
        assert_eq!(t1, vec![6.0]);
        let t2 = shard.receive_grad(0, (0, 0), &[4.0]).unwrap();
        assert_eq!(t2, vec![0.0]);
    }

    #[test]
    fn zero_momentum_matches_plain_shard() {
        let mut plain = ShardState::new(2, -0.5);
        let mut with = ShardState::with_momentum(2, -0.5, 0.0);
        for s in [&mut plain, &mut with] {
            s.init_pair((0, 0), vec![1.0, 2.0]);
            s.receive_grad(0, (0, 0), &[1.0, -1.0]);
            s.receive_grad(1, (0, 0), &[3.0, 1.0]);
        }
        assert_eq!(plain.pair((0, 0)), with.pair((0, 0)));
    }

    /// `shard` through the shard checkpoint codec: every pair exported in
    /// key order and encoded as one shard's checkpoint.
    fn checkpoint_of(shard: &ShardState) -> Vec<u8> {
        use crate::checkpoint::{encode_shard, PairState, ShardCheckpoint};
        let pairs = shard
            .sorted_keys()
            .into_iter()
            .map(|key| {
                let (params, velocity) = shard.export_pair(key).unwrap();
                PairState {
                    key,
                    params,
                    velocity,
                    residual: Vec::new(),
                }
            })
            .collect();
        encode_shard(&ShardCheckpoint {
            shard: 0,
            next_iter: 0,
            epoch: 0,
            pairs,
        })
    }

    /// Installs every pair of a [`checkpoint_of`] buffer into `shard`;
    /// `None`, and `shard` untouched, when the buffer does not decode.
    fn restore_into(shard: &mut ShardState, blob: &[u8]) -> Option<usize> {
        let ck = crate::checkpoint::decode_shard(blob)?;
        let count = ck.pairs.len();
        for pair in ck.pairs {
            shard.install_pair(pair.key, pair.params, pair.velocity);
        }
        Some(count)
    }

    #[test]
    fn checkpoint_roundtrips_master_state() {
        let mut shard = ShardState::new(2, -1.0);
        shard.init_pair((0, 0), vec![1.0, 2.0]);
        shard.init_pair((3, 1), vec![-4.5]);
        let ckpt = checkpoint_of(&shard);

        let mut restored = ShardState::new(2, -1.0);
        assert_eq!(restore_into(&mut restored, &ckpt), Some(2));
        assert_eq!(restored.pair((0, 0)).unwrap(), &[1.0, 2.0]);
        assert_eq!(restored.pair((3, 1)).unwrap(), &[-4.5]);
    }

    #[test]
    fn corrupt_checkpoint_is_rejected_without_damage() {
        let mut shard = ShardState::new(1, -1.0);
        shard.init_pair((0, 0), vec![7.0]);
        let mut ckpt = checkpoint_of(&shard);
        ckpt.truncate(ckpt.len() - 1);
        assert_eq!(restore_into(&mut shard, &ckpt), None);
        assert_eq!(
            shard.pair((0, 0)).unwrap(),
            &[7.0],
            "failed restore must not corrupt"
        );
        // Trailing garbage is also rejected.
        let mut long = checkpoint_of(&shard);
        long.push(0);
        assert_eq!(restore_into(&mut shard, &long), None);
    }

    #[test]
    fn checkpoint_is_deterministic() {
        let mut a = ShardState::new(1, -1.0);
        a.init_pair((2, 0), vec![1.0]);
        a.init_pair((1, 0), vec![2.0]);
        let mut b = ShardState::new(1, -1.0);
        b.init_pair((1, 0), vec![2.0]);
        b.init_pair((2, 0), vec![1.0]);
        assert_eq!(
            checkpoint_of(&a),
            checkpoint_of(&b),
            "key order must not leak"
        );
    }

    #[test]
    #[should_panic(expected = "two updates")]
    fn double_report_is_a_protocol_violation() {
        let mut shard = ShardState::new(2, -1.0);
        shard.init_pair((0, 0), vec![0.0]);
        shard.receive_grad(0, (0, 0), &[1.0]);
        shard.receive_grad(0, (0, 0), &[1.0]);
    }

    #[test]
    #[should_panic(expected = "not initialised")]
    fn unknown_pair_panics() {
        let mut shard = ShardState::new(1, -1.0);
        shard.receive_grad(0, (9, 9), &[1.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_length_panics() {
        let mut shard = ShardState::new(1, -1.0);
        shard.init_pair((0, 0), vec![0.0, 0.0]);
        shard.receive_grad(0, (0, 0), &[1.0]);
    }

    /// Shard 0's server for one `3 × 4` FC layer (15 parameters, one pair)
    /// over two colocated nodes, holding nothing yet.
    fn fc_server(policy: SchemePolicy, codec: Codec) -> ShardServer {
        let layers = vec![LayerInfo {
            name: "fc".into(),
            param_elems: 15,
            fc_shape: Some((3, 4)),
        }];
        let (cluster, partition) = (
            ClusterConfig::colocated(2, 1),
            Partition::KvPairs { pair_elems: 64 },
        );
        let coordinator = Coordinator::from_layers(layers, cluster, policy, partition)
            .with_codec_policy(CodecPolicy::Always(codec));
        ShardServer::new(&coordinator, 0, &MembershipSchedule::trivial(2), 0.9)
    }

    /// The layer's initial parameters.
    fn ramp() -> Vec<f32> {
        (0..15).map(|i| i as f32 * 0.25 - 1.0).collect()
    }

    fn init(mut server: ShardServer) -> ShardServer {
        server.init(0, |_| ramp());
        server
    }

    /// Worker `w`'s gradient for the layer's one pair at `iter`.
    fn grad(iter: u64, w: usize) -> Message {
        let vals: Vec<f32> = (0..15)
            .map(|i| ((i * 7 + w * 5 + iter as usize * 3) % 11) as f32 - 5.0)
            .collect();
        let data = wire::encode_f32s(&vals);
        let (layer, chunk, codec) = (0, 0, Codec::Identity);
        Message::GradChunk {
            iter,
            layer,
            chunk,
            codec,
            data,
        }
    }

    /// Everything `server` emits serving `msg` from worker `from`.
    fn serve(server: &mut ShardServer, from: usize, msg: Message) -> Vec<(Dest, Message)> {
        let mut out = Vec::new();
        server
            .serve(from, msg, -0.125, |to, msg| out.push((to, msg)))
            .unwrap();
        out
    }

    #[test]
    fn a_lossy_pair_handed_off_between_rounds_replies_as_if_it_never_moved() {
        let lossy = || fc_server(SchemePolicy::AlwaysPs, Codec::OneBit);
        let (mut stay, mut moved) = (init(lossy()), init(lossy()));
        for iter in 0..5 {
            if iter == 2 {
                assert!(
                    !moved.export((0, 0)).residual.is_empty(),
                    "nothing to carry"
                );
                let mut fresh = lossy();
                moved.hand_off(0, iter, |to, msg| {
                    assert_eq!(to, Dest::Shard(0));
                    fresh.take_over(msg).unwrap();
                });
                moved = fresh;
            }
            let round =
                |s: &mut ShardServer| [serve(s, 1, grad(iter, 1)), serve(s, 0, grad(iter, 0))];
            let (a, b) = (round(&mut stay), round(&mut moved));
            assert_eq!(a[1].len(), 2, "one reply per worker, once the round is in");
            assert_eq!(a, b, "iteration {iter}");
        }
        assert_eq!(stay.export((0, 0)), moved.export((0, 0)));
    }

    /// The payload of a served `ParamChunk`.
    fn payload(reply: &(Dest, Message)) -> &Bytes {
        match &reply.1 {
            Message::ParamChunk { data, .. } => data,
            other => panic!("a parameter chunk, got {other:?}"),
        }
    }

    #[test]
    fn an_identity_reply_views_the_master_and_one_held_across_a_round_keeps_its_bytes() {
        let identity = || fc_server(SchemePolicy::AlwaysPs, Codec::Identity);
        let (mut plain, mut holding) = (init(identity()), init(identity()));
        let round = |s: &mut ShardServer, iter| {
            assert!(serve(s, 1, grad(iter, 1)).is_empty());
            serve(s, 0, grad(iter, 0))
        };
        let master = |s: &ShardServer| s.state.pair((0, 0)).unwrap().as_ptr() as usize;
        let at_start = master(&holding);
        let mut held = None;
        for iter in 0..4 {
            let replies = round(&mut holding, iter);
            assert_eq!(replies, round(&mut plain, iter), "iteration {iter}");
            let want = wire::encode_f32s(holding.state.pair((0, 0)).unwrap());
            for reply in &replies {
                assert_eq!(payload(reply), &want, "iteration {iter}");
                assert_eq!(payload(reply).as_ptr() as usize, master(&holding));
            }
            // Unheld replies cost no copy: the master stays where it was
            // until iteration 2's reply is kept past the next fold.
            assert_eq!(master(&holding) == at_start, iter < 3, "iteration {iter}");
            if iter == 2 {
                held = Some((payload(&replies[0]).clone(), want.to_vec()));
            }
        }
        let (reply, bytes) = held.expect("a reply was held");
        assert_eq!(
            reply.to_vec(),
            bytes,
            "the held reply kept its round's bytes"
        );
        assert_eq!(reply.as_ptr() as usize, at_start);
    }

    #[test]
    fn an_adam_round_fans_out_the_fold_of_the_reconstructed_gradients() {
        let adam = fc_server(SchemePolicy::AdamSf, Codec::Identity);
        let (mut server, key) = (init(adam), (0, LAYER_GRANULAR_CHUNK));
        let mut reference = ShardState::with_momentum(2, -0.125, 0.9);
        reference.init_pair(key, ramp());
        let mut replies = Vec::new();
        for w in 0..2 {
            let (u, v) = (vec![w as f32 + 0.5, -1.0, 2.0], vec![0.25, -0.5, 1.0, 3.0]);
            let batch = SfBatch::from_factors(vec![SufficientFactor::new(u, v)]);
            let (gw, gb) = syncer::reconstruct_sf_batches(std::slice::from_ref(&batch), 3, 4);
            let dense = Staged::Dense([gw.as_slice(), &gb].concat());
            assert_eq!(reference.stage(w, key, dense), Ok(w == 1));
            let data = encode_sf_batch(&batch);
            replies = serve(
                &mut server,
                w,
                Message::SfPush {
                    iter: 0,
                    layer: 0,
                    data,
                },
            );
            assert_eq!(
                replies.is_empty(),
                w == 0,
                "the round completes with worker 1"
            );
        }
        let data = reference.fold_apply_encode(key);
        let matrix = |w| {
            (
                Dest::Worker(w),
                Message::ParamMatrix {
                    iter: 0,
                    layer: 0,
                    data: data.clone(),
                },
            )
        };
        assert_eq!(replies, vec![matrix(0), matrix(1)]);
    }

    #[test]
    #[should_panic(expected = "elastic membership does not support layer-granular")]
    fn an_elastic_schedule_refuses_adam() {
        let layers = vec![LayerInfo {
            name: "fc".into(),
            param_elems: 15,
            fc_shape: Some((3, 4)),
        }];
        let (cluster, partition) = (
            ClusterConfig::colocated(2, 1),
            Partition::KvPairs { pair_elems: 64 },
        );
        let coordinator =
            Coordinator::from_layers(layers, cluster, SchemePolicy::AdamSf, partition);
        let plan = crate::membership::MembershipPlan::parse("leave:1@5").unwrap();
        let schedule = MembershipSchedule::resolve(&plan, 2).unwrap();
        ShardServer::new(&coordinator, 0, &schedule, 0.9);
    }
}
