//! Poisoned peer frames are counted and dropped, never a panic.
//!
//! Each case runs the `2P` endpoints of a mesh as `run_endpoint` threads over
//! the in-process fabric. One endpoint's transport hands it a corrupted copy
//! of the first frame of one kind, just before the genuine frame: a payload
//! that fails validation, or a header that fits nothing the receiver holds.
//! The endpoint must count the copy in `poseidon_poisoned_frames_total`, drop
//! it, stage nothing from it and carry on with the genuine frame, so every
//! replica ends bitwise equal to the clean run's.

use poseidon::config::{Partition, SchemePolicy};
use poseidon::membership::MembershipPlan;
use poseidon::runtime::{
    flatten_model_params, poisoned_frames, run_endpoint, NodeOutcome, RuntimeConfig,
};
use poseidon::transport::{
    fabric_with_nodes, Envelope, Message, TrafficCounters, Transport, TransportError,
};
use poseidon::wire::{pack_collective, unpack_collective};
use poseidon_nn::data::Dataset;
use poseidon_nn::layer::TensorShape;
use poseidon_nn::presets;
use poseidon_nn::Network;
use poseidon_tensor::bytesio::{decode_sf_batch, encode_sf_batch};
use poseidon_tensor::{SfBatch, SufficientFactor};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

const WORKERS: usize = 2;

/// The poisoned-frame count is process-wide and read as a delta: every test
/// here takes this lock so the harness's threads cannot interleave.
fn exclusive() -> MutexGuard<'static, ()> {
    static GLOBALS: Mutex<()> = Mutex::new(());
    GLOBALS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn dataset() -> Dataset {
    Dataset::gaussian_clusters(TensorShape::flat(12), 4, 96, 0.4, 21)
}

fn factory() -> Network {
    presets::mlp(&[12, 16, 8, 4], 5)
}

fn config(policy: SchemePolicy) -> RuntimeConfig {
    RuntimeConfig {
        policy,
        partition: Partition::KvPairs { pair_elems: 37 },
        comm_timeout: Duration::from_secs(10),
        ..RuntimeConfig::new(WORKERS, 8, 0.2, 4)
    }
}

/// Makes the corrupted copy of a frame, or `None` for a frame of another
/// kind.
type Corrupt = fn(&Message) -> Option<Message>;

/// A transport that hands its endpoint a corrupted copy of the first frame
/// `corrupt` accepts, just before the genuine frame.
struct Corrupting<T> {
    inner: T,
    /// Taken when the copy is made: there is one per run.
    corrupt: Mutex<Option<Corrupt>>,
    /// The genuine frame the copy went ahead of, until it is received.
    held: Mutex<Option<Envelope>>,
}

impl<T: Transport> Corrupting<T> {
    fn new(inner: T, corrupt: Option<Corrupt>) -> Self {
        Self {
            inner,
            corrupt: Mutex::new(corrupt),
            held: Mutex::new(None),
        }
    }

    /// The genuine frame behind a copy handed out last.
    fn held(&self) -> Option<Envelope> {
        self.held.lock().unwrap().take()
    }

    fn intercept(&self, env: Envelope) -> Envelope {
        let mut corrupt = self.corrupt.lock().unwrap();
        let Some(bad) = corrupt.and_then(|corrupt| corrupt(&env.msg)) else {
            return env;
        };
        *corrupt = None;
        let copy = Envelope {
            msg: bad,
            ..env.clone()
        };
        *self.held.lock().unwrap() = Some(env);
        copy
    }
}

impl<T: Transport> Transport for Corrupting<T> {
    fn node(&self) -> usize {
        self.inner.node()
    }

    fn endpoint_id(&self) -> usize {
        self.inner.endpoint_id()
    }

    fn endpoints(&self) -> usize {
        self.inner.endpoints()
    }

    fn traffic(&self) -> &Arc<TrafficCounters> {
        self.inner.traffic()
    }

    fn send_seq(&self, to: usize, msg: Message, seq: u32) -> Result<(), TransportError> {
        self.inner.send_seq(to, msg, seq)
    }

    fn send(&self, to: usize, msg: Message) -> Result<(), TransportError> {
        self.inner.send(to, msg)
    }

    fn recv(&self) -> Result<Envelope, TransportError> {
        if let Some(env) = self.held() {
            return Ok(env);
        }
        self.inner.recv().map(|env| self.intercept(env))
    }

    fn try_recv(&self) -> Result<Option<Envelope>, TransportError> {
        if let Some(env) = self.held() {
            return Ok(Some(env));
        }
        Ok(self.inner.try_recv()?.map(|env| self.intercept(env)))
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Envelope, TransportError> {
        if let Some(env) = self.held() {
            return Ok(env);
        }
        self.inner
            .recv_timeout(timeout)
            .map(|env| self.intercept(env))
    }

    fn set_epoch(&self, epoch: u32) {
        self.inner.set_epoch(epoch);
    }

    fn current_epoch(&self) -> u32 {
        self.inner.current_epoch()
    }

    fn shutdown(&mut self) -> Result<(), TransportError> {
        self.inner.shutdown()
    }
}

/// Every worker's parameter bits after running the mesh of `cfg` as
/// `run_endpoint` threads, endpoint `target` (if any) handed a corrupted
/// copy of the first frame `corrupt` accepts.
fn mesh(cfg: &RuntimeConfig, target: Option<(usize, Corrupt)>) -> Vec<Vec<u32>> {
    let nodes: Vec<usize> = (0..WORKERS).chain(0..WORKERS).collect();
    let (endpoints, _traffic) = fabric_with_nodes(&nodes);
    let data = &dataset();
    let outcomes: Vec<NodeOutcome<Network>> = std::thread::scope(|s| {
        let handles: Vec<_> = endpoints
            .into_iter()
            .map(|ep| {
                let corrupt = target
                    .filter(|&(at, _)| at == ep.endpoint_id())
                    .map(|(_, corrupt)| corrupt);
                let ep = Corrupting::new(ep, corrupt);
                s.spawn(move || run_endpoint(&factory, data, None, cfg, ep))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("endpoint thread panicked"))
            .collect()
    });
    outcomes
        .into_iter()
        .filter_map(|outcome| match outcome {
            NodeOutcome::Worker { net, .. } => Some(
                flatten_model_params(&net)
                    .iter()
                    .map(|x| x.to_bits())
                    .collect(),
            ),
            NodeOutcome::Server { .. } => None,
        })
        .collect()
}

/// Runs `cfg` clean, then with endpoint `target` handed one corrupted frame:
/// the replicas must match bit for bit and exactly one poisoned frame be
/// counted.
fn poisoned_frame_is_dropped(cfg: &RuntimeConfig, target: usize, corrupt: Corrupt) {
    let _globals = exclusive();
    let clean = mesh(cfg, None);
    let before = poisoned_frames();
    let poisoned = mesh(cfg, Some((target, corrupt)));
    assert_eq!(
        poisoned_frames() - before,
        1,
        "the corrupted copy is counted once"
    );
    assert_eq!(clean.len(), WORKERS);
    assert!(
        poisoned == clean,
        "the replicas must be bitwise equal to the clean run"
    );
}

/// The frame with its payload cut by `bytes`, if `keep` accepts it.
fn truncated(msg: &Message, keep: fn(&Message) -> bool, bytes: usize) -> Option<Message> {
    if !keep(msg) {
        return None;
    }
    let mut bad = msg.clone();
    let (Message::SfPush { data, .. }
    | Message::ParamMatrix { data, .. }
    | Message::Handoff { data, .. }) = &mut bad
    else {
        unreachable!("only factor, matrix and handoff payloads are cut here")
    };
    *data = data.slice(..data.len() - bytes);
    Some(bad)
}

fn is_sf_push(msg: &Message) -> bool {
    matches!(msg, Message::SfPush { .. })
}

#[test]
fn sfb_worker_drops_a_truncated_sf_push() {
    poisoned_frame_is_dropped(&config(SchemePolicy::AlwaysSfbForFc), 1, |msg| {
        truncated(msg, is_sf_push, 1)
    });
}

#[test]
fn sfb_worker_drops_an_sf_push_of_the_wrong_shape() {
    // Cleanly decodable factors, one column short of the layer's shape.
    poisoned_frame_is_dropped(&config(SchemePolicy::AlwaysSfbForFc), 0, |msg| {
        let Message::SfPush { iter, layer, data } = msg else {
            return None;
        };
        let batch = decode_sf_batch(data).expect("a genuine batch decodes");
        let narrow = batch
            .factors()
            .iter()
            .map(|f| SufficientFactor::new(f.u.clone(), f.v[1..].to_vec()))
            .collect();
        Some(Message::SfPush {
            iter: *iter,
            layer: *layer,
            data: encode_sf_batch(&SfBatch::from_factors(narrow)),
        })
    });
}

#[test]
fn adam_worker_drops_a_short_param_matrix() {
    poisoned_frame_is_dropped(&config(SchemePolicy::AdamSf), 1, |msg| {
        truncated(msg, |m| matches!(m, Message::ParamMatrix { .. }), 4)
    });
}

#[test]
fn adam_shard_drops_a_truncated_sf_push() {
    // Every FC layer of the MLP sits at an even slot, so shard 0 (endpoint
    // `WORKERS`) syncs them all.
    poisoned_frame_is_dropped(&config(SchemePolicy::AdamSf), WORKERS, |msg| {
        truncated(msg, is_sf_push, 1)
    });
}

#[test]
fn elastic_shard_drops_a_truncated_handoff() {
    // Shard 1 leaves at iteration 2 and hands its pairs to shard 0 (endpoint
    // `WORKERS`), then rejoins at 4.
    let cfg = RuntimeConfig {
        membership: MembershipPlan::parse("leave:1@2;join:1@4").expect("plan"),
        iterations: 6,
        ..config(SchemePolicy::AlwaysPs)
    };
    poisoned_frame_is_dropped(&cfg, WORKERS, |msg| {
        truncated(msg, |m| matches!(m, Message::Handoff { .. }), 1)
    });
}

#[test]
fn ps_worker_drops_a_param_chunk_for_a_layer_past_the_model() {
    poisoned_frame_is_dropped(&config(SchemePolicy::AlwaysPs), 1, |msg| {
        let mut bad = msg.clone();
        let Message::ParamChunk { layer, .. } = &mut bad else {
            return None;
        };
        *layer = 1000;
        Some(bad)
    });
}

#[test]
fn shard_drops_a_grad_chunk_past_its_table() {
    poisoned_frame_is_dropped(&config(SchemePolicy::AlwaysPs), WORKERS, |msg| {
        let mut bad = msg.clone();
        let Message::GradChunk { chunk, .. } = &mut bad else {
            return None;
        };
        *chunk = 10_000;
        Some(bad)
    });
}

#[test]
fn worker_drops_a_grad_chunk() {
    // A shard's reply turned back into the push a worker never receives.
    poisoned_frame_is_dropped(&config(SchemePolicy::AlwaysPs), 0, |msg| {
        let Message::ParamChunk {
            iter,
            layer,
            chunk,
            codec,
            data,
        } = msg.clone()
        else {
            return None;
        };
        Some(Message::GradChunk {
            iter,
            layer,
            chunk,
            codec,
            data,
        })
    });
}

#[test]
fn ring_worker_drops_a_collective_for_a_segment_out_of_range() {
    poisoned_frame_is_dropped(&config(SchemePolicy::AlwaysRing), 1, |msg| {
        let mut bad = msg.clone();
        let Message::Collective { route, .. } = &mut bad else {
            return None;
        };
        let (phase, origin, _) = unpack_collective(*route);
        *route = pack_collective(phase, origin, 0xFFFF);
        Some(bad)
    });
}
