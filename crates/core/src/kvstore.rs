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

use crate::wire::{self, Codec, CodecError};
use bytes::Bytes;
use poseidon_tensor::compress::FrameCursor;
use std::collections::HashMap;

/// Key of one KV pair: `(layer index, chunk index within the layer)`.
pub type KvKey = (u32, u32);

/// One worker's gradient for a KV pair, held until the round folds.
#[derive(Debug)]
pub enum Staged {
    /// A gradient frame's payload exactly as it came off the wire. Pins one
    /// pool buffer per (pair, worker) until the fold drops it.
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
    params: HashMap<KvKey, Vec<f32>>,
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
        self.params.insert(key, values);
    }

    /// Number of KV pairs hosted.
    pub fn num_pairs(&self) -> usize {
        self.params.len()
    }

    /// Read-only view of a KV pair's master copy.
    pub fn pair(&self, key: KvKey) -> Option<&[f32]> {
        self.params.get(&key).map(Vec::as_slice)
    }

    fn master_mut(&mut self, key: KvKey) -> &mut Vec<f32> {
        self.params
            .get_mut(&key)
            .unwrap_or_else(|| panic!("KV pair {key:?} not initialised on this shard"))
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
        let elems = self.master_mut(key).len();
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
        let slots = self.pending.remove(&key).expect("round not complete");
        let len = self.params[&key].len();
        let velocity = self.velocity.entry(key).or_insert_with(|| vec![0.0; len]);
        let mut grads: Vec<GradCursor<'_>> = slots
            .iter()
            .map(|grad| {
                let grad = grad.as_ref().expect("round not complete");
                grad.cursor(len).expect("validated when staged")
            })
            .collect();
        for block in velocity.chunks_mut(FOLD_BLOCK) {
            if self.momentum != 0.0 {
                for v in block.iter_mut() {
                    *v *= self.momentum;
                }
            } else {
                block.fill(0.0);
            }
            for grad in &mut grads {
                grad.axpy_next(self.update_scale, block);
            }
        }
        velocity
    }

    /// `θ += v` with the pair's folded velocity; returns the fresh master.
    pub fn apply_velocity(&mut self, key: KvKey) -> &[f32] {
        let velocity = self.velocity.get(&key).expect("pair never folded");
        let master = self
            .params
            .get_mut(&key)
            .unwrap_or_else(|| panic!("KV pair {key:?} not initialised on this shard"));
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
        let params = self.params.get(&key)?.clone();
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
        self.params.insert(key, params);
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

    /// Applies one worker's gradient immediately (no update counting) and
    /// returns the fresh master copy — the bounded-asynchronous path
    /// (Section 3 notes Poseidon's design "can easily be applied to
    /// asynchronous or bounded-asynchronous consistency models"; staleness
    /// enforcement lives with the workers' clock, not the shard). A malformed
    /// frame is refused and leaves the master untouched.
    pub fn receive_grad_async(&mut self, key: KvKey, grad: &Staged) -> Result<&[f32], CodecError> {
        let scale = self.update_scale;
        let master = self.master_mut(key);
        grad.cursor(master.len())?.axpy_next(scale, master);
        Ok(master)
    }

    /// Serialises the master copies of every KV pair — the shard's
    /// fault-tolerance checkpoint ("it will regularly checkpoint current
    /// parameter states", Section 4.1). In-flight (pending) gradients are
    /// deliberately *not* checkpointed: under BSP a restore rolls back to the
    /// last completed round and workers resend.
    pub fn checkpoint(&self) -> Vec<u8> {
        use bytes::BufMut;
        let mut keys: Vec<KvKey> = self.params.keys().copied().collect();
        keys.sort_unstable();
        let mut buf = bytes::BytesMut::new();
        buf.put_u32_le(keys.len() as u32);
        for key in keys {
            let values = &self.params[&key];
            buf.put_u32_le(key.0);
            buf.put_u32_le(key.1);
            buf.put_u32_le(values.len() as u32);
            for &v in values {
                buf.put_f32_le(v);
            }
        }
        buf.to_vec()
    }

    /// Restores the master copies from a [`Self::checkpoint`] buffer,
    /// replacing all current pairs and clearing any pending round.
    ///
    /// Returns the number of pairs restored, or `None` if the buffer is
    /// corrupt (in which case the shard is left unchanged).
    pub fn restore(&mut self, checkpoint: &[u8]) -> Option<usize> {
        use bytes::Buf;
        let mut buf = checkpoint;
        if buf.remaining() < 4 {
            return None;
        }
        let count = buf.get_u32_le() as usize;
        let mut params = HashMap::with_capacity(count);
        for _ in 0..count {
            if buf.remaining() < 12 {
                return None;
            }
            let layer = buf.get_u32_le();
            let chunk = buf.get_u32_le();
            let len = buf.get_u32_le() as usize;
            if buf.remaining() < len * 4 {
                return None;
            }
            let mut values = Vec::with_capacity(len);
            for _ in 0..len {
                values.push(buf.get_f32_le());
            }
            params.insert((layer, chunk), values);
        }
        if buf.has_remaining() {
            return None;
        }
        self.params = params;
        self.pending.clear();
        self.velocity.clear();
        Some(count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn async_apply_folds_one_gradient_immediately() {
        let mut shard = ShardState::new(3, -0.5);
        shard.init_pair((0, 0), vec![1.0, 1.0]);
        let fresh = shard.receive_grad_async((0, 0), &frame(&[2.0, -2.0]));
        assert_eq!(fresh.unwrap(), &[0.0, 2.0]);
        assert!(shard.receive_grad_async((0, 0), &frame(&[2.0])).is_err());
        assert_eq!(shard.pair((0, 0)).unwrap(), &[0.0, 2.0], "refused whole");
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

    #[test]
    fn restore_resets_velocity() {
        let mut shard = ShardState::with_momentum(1, -1.0, 0.9);
        shard.init_pair((0, 0), vec![0.0]);
        let ckpt = shard.checkpoint();
        shard.receive_grad(0, (0, 0), &[1.0]);
        shard.restore(&ckpt).unwrap();
        // After restore, velocity must start from zero again.
        let t = shard.receive_grad(0, (0, 0), &[1.0]).unwrap();
        assert_eq!(t, vec![-1.0], "no stale velocity after rollback");
    }

    #[test]
    fn checkpoint_roundtrips_master_state() {
        let mut shard = ShardState::new(2, -1.0);
        shard.init_pair((0, 0), vec![1.0, 2.0]);
        shard.init_pair((3, 1), vec![-4.5]);
        let ckpt = shard.checkpoint();

        let mut restored = ShardState::new(2, -1.0);
        assert_eq!(restored.restore(&ckpt), Some(2));
        assert_eq!(restored.pair((0, 0)).unwrap(), &[1.0, 2.0]);
        assert_eq!(restored.pair((3, 1)).unwrap(), &[-4.5]);
    }

    #[test]
    fn restore_discards_pending_round() {
        let mut shard = ShardState::new(2, -1.0);
        shard.init_pair((0, 0), vec![0.0]);
        let ckpt = shard.checkpoint();
        shard.receive_grad(0, (0, 0), &[5.0]);
        assert_eq!(shard.pending_count((0, 0)), 1);
        shard.restore(&ckpt).unwrap();
        assert_eq!(
            shard.pending_count((0, 0)),
            0,
            "in-flight gradients roll back"
        );
        // The same worker may now resend without a protocol violation.
        shard.receive_grad(0, (0, 0), &[5.0]);
    }

    #[test]
    fn corrupt_checkpoint_is_rejected_without_damage() {
        let mut shard = ShardState::new(1, -1.0);
        shard.init_pair((0, 0), vec![7.0]);
        let mut ckpt = shard.checkpoint();
        ckpt.truncate(ckpt.len() - 1);
        assert_eq!(shard.restore(&ckpt), None);
        assert_eq!(
            shard.pair((0, 0)).unwrap(),
            &[7.0],
            "failed restore must not corrupt"
        );
        // Trailing garbage is also rejected.
        let mut long = shard.checkpoint();
        long.push(0);
        assert_eq!(shard.restore(&long), None);
    }

    #[test]
    fn checkpoint_is_deterministic() {
        let mut a = ShardState::new(1, -1.0);
        a.init_pair((2, 0), vec![1.0]);
        a.init_pair((1, 0), vec![2.0]);
        let mut b = ShardState::new(1, -1.0);
        b.init_pair((1, 0), vec![2.0]);
        b.init_pair((2, 0), vec![1.0]);
        assert_eq!(a.checkpoint(), b.checkpoint(), "key order must not leak");
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
}
