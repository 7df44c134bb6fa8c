//! Bitwise checkpoint/restore of distributed training state.
//!
//! A [`TrainingCheckpoint`] captures everything a bulk-synchronous run needs
//! to resume *bitwise-identically* at an iteration boundary: every worker
//! replica's parameters, the SFB velocity replicas, every error-feedback
//! compressor residual (push, collective-segment, and shard-reply streams),
//! and every shard's master pairs with their optimizer velocity. Restoring a
//! checkpoint and training the remaining iterations produces exactly the
//! parameters of the uninterrupted run — the invariant the restart tests
//! prove on all four schemes.
//!
//! The encoding is a strict versioned binary: magic `PCKP`, version byte,
//! little-endian fields, no padding, trailing bytes rejected. Corruption is
//! surfaced as `None`, never a panic or a half-restored state.
//!
//! The per-pair state blob ([`encode_pair_state`]) doubles as the payload of
//! [`Message::Handoff`] frames during elastic reconfiguration: the departing
//! shard serialises `(params, velocity, reply-codec residual)` per KV pair
//! and the absorbing shard installs it, so ownership moves without breaking
//! the bitwise trajectory.
//!
//! [`Message::Handoff`]: crate::transport::Message::Handoff

use crate::kvstore::KvKey;
use crate::syncer::SyncerState;
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Magic prefix of every checkpoint buffer.
pub const CKPT_MAGIC: [u8; 4] = *b"PCKP";
/// Current checkpoint format version.
pub const CKPT_VERSION: u8 = 1;

/// One trainable layer's worker-side state.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerCheckpoint {
    /// Layer slot index.
    pub layer: u32,
    /// Flattened parameters (weights then bias, the canonical flat order).
    pub params: Vec<f32>,
    /// The layer syncer's persistent state (SFB velocity, collective
    /// velocity segments and compressor residuals).
    pub syncer: SyncerState,
}

/// One worker endpoint's full state at an iteration boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerCheckpoint {
    /// Worker id.
    pub worker: u32,
    /// The next iteration this worker would run.
    pub next_iter: u64,
    /// Membership epoch at the boundary.
    pub epoch: u32,
    /// Per-layer state, ascending by layer.
    pub layers: Vec<LayerCheckpoint>,
}

/// One KV pair's master-side state.
#[derive(Debug, Clone, PartialEq)]
pub struct PairState {
    /// The pair's key.
    pub key: KvKey,
    /// Master parameter copy.
    pub params: Vec<f32>,
    /// Scaled optimizer velocity (empty = none accumulated).
    pub velocity: Vec<f32>,
    /// Reply-codec error-feedback residual (empty = none).
    pub residual: Vec<f32>,
}

/// One shard endpoint's full state at an iteration boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardCheckpoint {
    /// Shard id (`0..P`, endpoint `P + shard`).
    pub shard: u32,
    /// The next iteration this shard would serve.
    pub next_iter: u64,
    /// Membership epoch at the boundary.
    pub epoch: u32,
    /// Every owned pair's state, ascending by key.
    pub pairs: Vec<PairState>,
}

/// The whole mesh's state at one iteration boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingCheckpoint {
    /// The next iteration the mesh would run.
    pub next_iter: u64,
    /// Worker states, ascending by worker id.
    pub workers: Vec<WorkerCheckpoint>,
    /// Shard states, ascending by shard id.
    pub shards: Vec<ShardCheckpoint>,
}

fn put_f32s(buf: &mut BytesMut, vals: &[f32]) {
    buf.put_u32_le(vals.len() as u32);
    for &v in vals {
        buf.put_f32_le(v);
    }
}

fn get_f32s(buf: &mut &[u8]) -> Option<Vec<f32>> {
    if buf.remaining() < 4 {
        return None;
    }
    let n = buf.get_u32_le() as usize;
    if buf.remaining() < n * 4 {
        return None;
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(buf.get_f32_le());
    }
    Some(out)
}

fn put_opt_f32s(buf: &mut BytesMut, vals: &Option<Vec<f32>>) {
    match vals {
        None => buf.put_u8(0),
        Some(v) => {
            buf.put_u8(1);
            put_f32s(buf, v);
        }
    }
}

fn get_opt_f32s(buf: &mut &[u8]) -> Option<Option<Vec<f32>>> {
    if buf.remaining() < 1 {
        return None;
    }
    match buf.get_u8() {
        0 => Some(None),
        1 => get_f32s(buf).map(Some),
        _ => None,
    }
}

/// Serialises one KV pair's `(params, velocity, residual)` — the payload of
/// a [`Message::Handoff`](crate::transport::Message::Handoff) frame.
pub fn encode_pair_state(params: &[f32], velocity: &[f32], residual: &[f32]) -> Bytes {
    let mut buf =
        BytesMut::with_capacity(12 + 4 * (params.len() + velocity.len() + residual.len()));
    put_f32s(&mut buf, params);
    put_f32s(&mut buf, velocity);
    put_f32s(&mut buf, residual);
    buf.freeze()
}

/// Decodes a [`encode_pair_state`] blob. Strict: trailing bytes reject.
pub fn decode_pair_state(mut buf: &[u8]) -> Option<(Vec<f32>, Vec<f32>, Vec<f32>)> {
    let params = get_f32s(&mut buf)?;
    let velocity = get_f32s(&mut buf)?;
    let residual = get_f32s(&mut buf)?;
    if buf.has_remaining() {
        return None;
    }
    Some((params, velocity, residual))
}

fn put_syncer(buf: &mut BytesMut, st: &SyncerState) {
    match &st.sf_velocity {
        None => buf.put_u8(0),
        Some((rows, cols, vw, vb)) => {
            buf.put_u8(1);
            buf.put_u32_le(*rows);
            buf.put_u32_le(*cols);
            put_f32s(buf, vw);
            put_f32s(buf, vb);
        }
    }
    buf.put_u32_le(st.velocity.len() as u32);
    for v in &st.velocity {
        put_opt_f32s(buf, v);
    }
    buf.put_u32_le(st.push_residuals.len() as u32);
    for r in &st.push_residuals {
        put_opt_f32s(buf, r);
    }
    buf.put_u32_le(st.seg_residuals.len() as u32);
    for r in &st.seg_residuals {
        put_opt_f32s(buf, r);
    }
}

fn get_syncer(buf: &mut &[u8]) -> Option<SyncerState> {
    if buf.remaining() < 1 {
        return None;
    }
    let sf_velocity = match buf.get_u8() {
        0 => None,
        1 => {
            if buf.remaining() < 8 {
                return None;
            }
            let rows = buf.get_u32_le();
            let cols = buf.get_u32_le();
            let vw = get_f32s(buf)?;
            let vb = get_f32s(buf)?;
            Some((rows, cols, vw, vb))
        }
        _ => return None,
    };
    let mut lists: Vec<Vec<Option<Vec<f32>>>> = Vec::with_capacity(3);
    for _ in 0..3 {
        if buf.remaining() < 4 {
            return None;
        }
        let n = buf.get_u32_le() as usize;
        let mut list = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            list.push(get_opt_f32s(buf)?);
        }
        lists.push(list);
    }
    let seg_residuals = lists.pop()?;
    let push_residuals = lists.pop()?;
    let velocity = lists.pop()?;
    Some(SyncerState {
        sf_velocity,
        velocity,
        push_residuals,
        seg_residuals,
    })
}

fn put_worker(buf: &mut BytesMut, w: &WorkerCheckpoint) {
    buf.put_u32_le(w.worker);
    buf.put_u64_le(w.next_iter);
    buf.put_u32_le(w.epoch);
    buf.put_u32_le(w.layers.len() as u32);
    for l in &w.layers {
        buf.put_u32_le(l.layer);
        put_f32s(buf, &l.params);
        put_syncer(buf, &l.syncer);
    }
}

fn get_worker(buf: &mut &[u8]) -> Option<WorkerCheckpoint> {
    if buf.remaining() < 20 {
        return None;
    }
    let worker = buf.get_u32_le();
    let next_iter = buf.get_u64_le();
    let epoch = buf.get_u32_le();
    let n = buf.get_u32_le() as usize;
    let mut layers = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        if buf.remaining() < 4 {
            return None;
        }
        let layer = buf.get_u32_le();
        let params = get_f32s(buf)?;
        let syncer = get_syncer(buf)?;
        layers.push(LayerCheckpoint {
            layer,
            params,
            syncer,
        });
    }
    Some(WorkerCheckpoint {
        worker,
        next_iter,
        epoch,
        layers,
    })
}

fn put_shard(buf: &mut BytesMut, s: &ShardCheckpoint) {
    buf.put_u32_le(s.shard);
    buf.put_u64_le(s.next_iter);
    buf.put_u32_le(s.epoch);
    buf.put_u32_le(s.pairs.len() as u32);
    for p in &s.pairs {
        buf.put_u32_le(p.key.0);
        buf.put_u32_le(p.key.1);
        put_f32s(buf, &p.params);
        put_f32s(buf, &p.velocity);
        put_f32s(buf, &p.residual);
    }
}

fn get_shard(buf: &mut &[u8]) -> Option<ShardCheckpoint> {
    if buf.remaining() < 20 {
        return None;
    }
    let shard = buf.get_u32_le();
    let next_iter = buf.get_u64_le();
    let epoch = buf.get_u32_le();
    let n = buf.get_u32_le() as usize;
    let mut pairs = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        if buf.remaining() < 8 {
            return None;
        }
        let key = (buf.get_u32_le(), buf.get_u32_le());
        let params = get_f32s(buf)?;
        let velocity = get_f32s(buf)?;
        let residual = get_f32s(buf)?;
        pairs.push(PairState {
            key,
            params,
            velocity,
            residual,
        });
    }
    Some(ShardCheckpoint {
        shard,
        next_iter,
        epoch,
        pairs,
    })
}

/// Serialises one worker's checkpoint, self-framed with magic + version.
pub fn encode_worker(w: &WorkerCheckpoint) -> Vec<u8> {
    let mut buf = BytesMut::new();
    buf.put_slice(&CKPT_MAGIC);
    buf.put_u8(CKPT_VERSION);
    buf.put_u8(b'W');
    put_worker(&mut buf, w);
    buf.to_vec()
}

/// Serialises one shard's checkpoint, self-framed with magic + version.
pub fn encode_shard(s: &ShardCheckpoint) -> Vec<u8> {
    let mut buf = BytesMut::new();
    buf.put_slice(&CKPT_MAGIC);
    buf.put_u8(CKPT_VERSION);
    buf.put_u8(b'S');
    put_shard(&mut buf, s);
    buf.to_vec()
}

fn check_header(buf: &mut &[u8], role: u8) -> Option<()> {
    if buf.remaining() < 6 || buf[..4] != CKPT_MAGIC {
        return None;
    }
    buf.advance(4);
    if buf.get_u8() != CKPT_VERSION || buf.get_u8() != role {
        return None;
    }
    Some(())
}

/// Decodes an [`encode_worker`] buffer. Strict: bad magic, wrong version,
/// wrong role tag, truncation, and trailing bytes all reject.
pub fn decode_worker(mut buf: &[u8]) -> Option<WorkerCheckpoint> {
    check_header(&mut buf, b'W')?;
    let w = get_worker(&mut buf)?;
    (!buf.has_remaining()).then_some(w)
}

/// Decodes an [`encode_shard`] buffer, strict like [`decode_worker`].
pub fn decode_shard(mut buf: &[u8]) -> Option<ShardCheckpoint> {
    check_header(&mut buf, b'S')?;
    let s = get_shard(&mut buf)?;
    (!buf.has_remaining()).then_some(s)
}

/// Serialises a whole-mesh checkpoint.
pub fn encode_training(t: &TrainingCheckpoint) -> Vec<u8> {
    let mut buf = BytesMut::new();
    buf.put_slice(&CKPT_MAGIC);
    buf.put_u8(CKPT_VERSION);
    buf.put_u8(b'T');
    buf.put_u64_le(t.next_iter);
    buf.put_u32_le(t.workers.len() as u32);
    for w in &t.workers {
        put_worker(&mut buf, w);
    }
    buf.put_u32_le(t.shards.len() as u32);
    for s in &t.shards {
        put_shard(&mut buf, s);
    }
    buf.to_vec()
}

/// Decodes an [`encode_training`] buffer, strict like [`decode_worker`].
pub fn decode_training(mut buf: &[u8]) -> Option<TrainingCheckpoint> {
    check_header(&mut buf, b'T')?;
    if buf.remaining() < 12 {
        return None;
    }
    let next_iter = buf.get_u64_le();
    let nw = buf.get_u32_le() as usize;
    let mut workers = Vec::with_capacity(nw.min(1 << 16));
    for _ in 0..nw {
        workers.push(get_worker(&mut buf)?);
    }
    if buf.remaining() < 4 {
        return None;
    }
    let ns = buf.get_u32_le() as usize;
    let mut shards = Vec::with_capacity(ns.min(1 << 16));
    for _ in 0..ns {
        shards.push(get_shard(&mut buf)?);
    }
    if buf.has_remaining() {
        return None;
    }
    Some(TrainingCheckpoint {
        next_iter,
        workers,
        shards,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TrainingCheckpoint {
        TrainingCheckpoint {
            next_iter: 7,
            workers: vec![WorkerCheckpoint {
                worker: 0,
                next_iter: 7,
                epoch: 2,
                layers: vec![
                    LayerCheckpoint {
                        layer: 0,
                        params: vec![1.0, -2.5, 3.25],
                        syncer: SyncerState {
                            sf_velocity: Some((2, 1, vec![0.5, -0.5], vec![0.125, 0.0])),
                            velocity: vec![Some(vec![1.0]), None],
                            push_residuals: vec![None],
                            seg_residuals: vec![Some(vec![-0.25, 0.75])],
                        },
                    },
                    LayerCheckpoint {
                        layer: 2,
                        params: vec![],
                        syncer: SyncerState::default(),
                    },
                ],
            }],
            shards: vec![ShardCheckpoint {
                shard: 1,
                next_iter: 7,
                epoch: 2,
                pairs: vec![PairState {
                    key: (3, 1),
                    params: vec![9.0],
                    velocity: vec![-1.0],
                    residual: vec![],
                }],
            }],
        }
    }

    #[test]
    fn training_checkpoint_roundtrips_bitwise() {
        let t = sample();
        let buf = encode_training(&t);
        assert_eq!(decode_training(&buf), Some(t));
    }

    #[test]
    fn worker_and_shard_roundtrip_standalone() {
        let t = sample();
        let wb = encode_worker(&t.workers[0]);
        assert_eq!(decode_worker(&wb), Some(t.workers[0].clone()));
        let sb = encode_shard(&t.shards[0]);
        assert_eq!(decode_shard(&sb), Some(t.shards[0].clone()));
        // Role tags cross-reject.
        assert_eq!(decode_shard(&wb), None);
        assert_eq!(decode_worker(&sb), None);
    }

    #[test]
    fn corruption_is_rejected_not_panicked() {
        let buf = encode_training(&sample());
        // Any strict prefix is rejected.
        for cut in 0..buf.len() {
            assert_eq!(decode_training(&buf[..cut]), None, "prefix {cut} accepted");
        }
        // Trailing garbage is rejected.
        let mut long = buf.clone();
        long.push(0xAA);
        assert_eq!(decode_training(&long), None);
        // Bad magic / version are rejected.
        let mut bad = buf.clone();
        bad[0] ^= 0xFF;
        assert_eq!(decode_training(&bad), None);
        let mut bad = buf;
        bad[4] = CKPT_VERSION + 1;
        assert_eq!(decode_training(&bad), None);
    }

    #[test]
    fn pair_state_blob_roundtrips() {
        let blob = encode_pair_state(&[1.0, 2.0], &[-0.5], &[]);
        assert_eq!(
            decode_pair_state(&blob),
            Some((vec![1.0, 2.0], vec![-0.5], vec![]))
        );
        for cut in 0..blob.len() {
            assert_eq!(decode_pair_state(&blob[..cut]), None);
        }
        let mut long = blob.to_vec();
        long.push(1);
        assert_eq!(decode_pair_state(&long), None);
    }
}
