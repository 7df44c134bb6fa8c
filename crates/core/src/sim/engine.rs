//! The discrete-event iteration simulator.
//!
//! One BSP training iteration unfolds as events over shared resources:
//! per-node GPU (compute), PCIe memcpy engine, a CPU/transform stream
//! (server applies, SF reconstruction, quantization), and the NIC pair
//! modelled by [`poseidon_netsim::Network`]. Backward completion of layer `l`
//! triggers its `SyncReady` event (immediately under WFBP, after the whole
//! backward under the sequential scheduler); gradients then flow through the
//! scheme chosen by the coordinator, and the iteration ends when compute and
//! every layer's synchronisation have finished on every node (the completion
//! vector of Section 4.1).
//!
//! The engine decides no route. Where each frame goes, and what a
//! collective frame does where it lands, comes from [`crate::route`] — the
//! table the live syncers and shards follow too; the handlers below price
//! and schedule what it returns. They own time, the NICs, staging, the
//! overlap rules, the stash of a frame that outran the local backward, and
//! the straggler drop, and they price a frame by what it carries
//! ([`Payload`]), never by its scheme.
//!
//! Every reported statistic and traced event is a function of the order in
//! which the queue pops — `(time, insertion order)`, see
//! [`poseidon_netsim::EventQueue`] — and of what each popped event does.
//! Most arrivals do nothing but count: a push at its shard, a pulled chunk
//! at its worker, a peer's SF batch; only the one that completes the count
//! (§4.1's KV-store rule: the `P`-th update applies) moves anything. So the
//! FIFO NICs queue only an arrival that can complete its count, the last of
//! its remote or loopback stream ([`SimState::load_streams`]), and *settle*
//! every other one as it is sent: its transfer still reserves both NICs, is
//! recorded in the ledger and traces its `tx.frame` then, and it is counted
//! at once. The events that remain are a subsequence of the ones an engine
//! that queued every arrival would pop, in the same order, with the same
//! handlers; the invariant is that every handler keeps issuing the rest of
//! its `schedule_at` calls in the same order. An arrival whose landing
//! reserves a resource (an unoverlapped engine's memcpy stream, a lossy
//! decode) stays queued, and so does every arrival under the fair-share
//! model, where flows finish out of order. `tests/sim_fingerprint.rs` pins
//! the statistics bit for bit and the traced timelines event for event; the
//! `tests` below pin how many events a call pops.
//! Progress is kept in flat tables over the coordinator's own index space
//! (a chunk's position in the chunk table, and trainable layer × worker):
//! see [`SimState`].

use crate::config::ClusterConfig;
use crate::config::Codec;
use crate::config::CommScheme;
use crate::config::Scheduler;
use crate::coordinator::Coordinator;
use crate::route::{self, Dest, Hop, Payload, Route};
use crate::sim::profile::{LayerTimes, SimConfig};
use crate::telemetry::{Event, EventKind, Trace, Track};
use crate::wire::{COLLECTIVE_DISTRIBUTE, COLLECTIVE_REDUCE};
use poseidon_netsim::{EventQueue, FlowNetwork, LinkConfig, Network, NodeId, Resource};
use poseidon_nn::zoo::ModelSpec;

/// Wire overhead per message (framing + header), bytes.
const MSG_OVERHEAD: u64 = 16;

/// What the simulator reports for one steady-state iteration.
#[derive(Clone, Debug)]
pub struct IterationReport {
    /// Wall-clock of the measured iteration.
    pub iter_time_s: f64,
    /// GPU compute time per node (forward + backward).
    pub compute_s: f64,
    /// Cluster throughput, images/sec.
    pub throughput_ips: f64,
    /// Calibrated single-node native throughput (the speedup baseline).
    pub single_node_ips: f64,
    /// `throughput / single_node_ips`.
    pub speedup: f64,
    /// Fraction of the iteration the GPU spends stalled.
    pub stall_fraction: f64,
    /// Per-node network traffic of the iteration, in gigabits.
    pub per_node_gbit: Vec<f64>,
    /// Scheme chosen per trainable layer: `(layer name, scheme)`.
    pub schemes: Vec<(String, CommScheme)>,
}

/// Collects telemetry events on the *virtual* clock while the simulator
/// runs, so simulated timelines use the exact schema (and exporters) of the
/// live runtime. Track `w` (`w < p`) is node `w`'s GPU/NIC; track `p + s` is
/// node `s`'s CPU/transform stream (server applies). Only the measured
/// (last) iteration records.
struct SimTracer {
    recording: bool,
    iter: u64,
    tracks: Vec<Vec<Event>>,
}

/// Virtual seconds → recorder nanoseconds.
fn secs_to_ns(t: f64) -> u64 {
    (t.max(0.0) * 1e9).round() as u64
}

impl SimTracer {
    fn new(p: usize) -> Self {
        Self {
            recording: false,
            iter: 0,
            tracks: vec![Vec::new(); 2 * p],
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn push(
        &mut self,
        track: usize,
        kind: EventKind,
        name: &'static str,
        lane: u32,
        a: u64,
        b: u64,
        t: f64,
    ) {
        if !self.recording {
            return;
        }
        self.tracks[track].push(Event {
            ts_ns: secs_to_ns(t),
            kind,
            name,
            lane,
            a,
            b,
        });
    }

    fn span(&mut self, track: usize, name: &'static str, lane: u32, a: u64, start: f64, end: f64) {
        let b = self.iter;
        self.push(track, EventKind::Begin, name, lane, a, b, start);
        self.push(track, EventKind::End, name, lane, a, b, end);
    }

    /// Assembles the recorded tracks into a [`Trace`] (events time-sorted;
    /// ties keep insertion order, which was chosen Begin-first/End-last).
    fn into_trace(self, p: usize, model: &str) -> Trace {
        let mut trace = Trace::new(0, format!("sim {model}"));
        for (i, mut events) in self.tracks.into_iter().enumerate() {
            if events.is_empty() {
                continue;
            }
            events.sort_by_key(|e| e.ts_ns);
            let name = if i < p {
                format!("node {i}")
            } else {
                format!("node {} cpu", i - p)
            };
            trace.tracks.push(Track {
                tid: i as u64 + 1,
                name,
                events,
                dropped: 0,
            });
        }
        trace
    }
}

/// What an [`Ev`] announces. `layer` is always the dense (trainable-layer)
/// index; the comments say what `chunk` and `node` mean for each kind.
#[derive(Clone, Copy, Debug)]
enum Kind {
    /// The layer's gradients are complete on worker `node`; begin its part of
    /// the synchronisation.
    SyncReady,
    /// One worker's gradient `chunk`, or an Adam layer's factors, arrived
    /// at shard `node`.
    GradArrive,
    /// Shard `node` finished applying `chunk`'s aggregated update.
    ApplyDone,
    /// Fresh parameters of `chunk` arrived back at worker `node`.
    PullArrive,
    /// A peer's SF batch arrived at worker `node` (SFB).
    SfArrive,
    /// Worker `node` finished reconstructing the layer from factors (SFB).
    ReconDone,
    /// A collective frame of this wire phase for segment `chunk` arrived at
    /// worker `node`; [`Route::hop`] says what it does there.
    Hop(u8),
}

/// One scheduled event: 16 bytes, so a queue node is 32.
#[derive(Clone, Copy, Debug)]
struct Ev {
    kind: Kind,
    layer: u32,
    chunk: u32,
    node: u32,
}

const _: () = assert!(std::mem::size_of::<Ev>() == 16);

impl Ev {
    /// The casts are lossless: `simulate_inner` checks `slots · P` fits.
    fn new(kind: Kind, layer: usize, chunk: usize, node: usize) -> Self {
        Self {
            kind,
            layer: layer as u32,
            chunk: chunk as u32,
            node: node as u32,
        }
    }
}

/// Per-layer synchronisation plan derived from the coordinator.
#[derive(Debug)]
struct LayerPlan {
    /// Index into the model's layers (trace labels).
    layer: usize,
    /// Where the layer's frames go: what the engine prices and schedules.
    route: Route,
    /// Position of the layer's first chunk in the coordinator's chunk table:
    /// `base + chunk` is that chunk's slot in the per-chunk progress tables
    /// (an SFB or Adam layer uses `base` alone).
    base: usize,
    /// The gradient codec this layer's frames ride (identity unless the
    /// codec policy compresses it); wire bytes below are priced through it.
    codec: Codec,
    /// `(shard, wire bytes incl. overhead, dense payload bytes)` per chunk
    /// for PS-style and collective paths.
    chunks: Vec<(usize, u64, u64)>,
    /// Dense flattened parameter bytes.
    dense_bytes: u64,
    /// Dense bytes one chunk's GPU↔CPU move carries: an even share of the
    /// layer (all of it for an SFB or Adam layer).
    stage_bytes: u64,
    /// SF one-way message bytes (FC layers).
    sf_bytes: u64,
    /// FC shape, if any.
    fc_shape: Option<(usize, usize)>,
}

/// "No entry" in a counter table, the dense stand-in for a key absent from
/// a map (`NAN` plays that role in the two time tables).
const UNSET: u32 = u32::MAX;

struct SimState<'a> {
    cfg: &'a SimConfig,
    /// One plan per trainable layer, bottom-up: the dense layer index.
    plans: &'a [LayerPlan],
    p: usize,
    batch: usize,
    gpus: usize,
    net: Network,
    fair: Option<FlowNetwork<Ev>>,
    gpu_compute_end: f64,
    memcpy: Vec<Resource>,
    cpu: Vec<Resource>,
    pcie: Vec<Resource>,
    // Progress of one iteration, reset by `begin_iteration`. Three index
    // spaces, all sized from the plan: a chunk's slot `plan.base + chunk`,
    // `dense layer · P + worker` (`lw`), and `slot · P + worker`.
    /// Pushes gathered per slot at its shard — exactly the required ones
    /// arrive, as a dropped straggler never sends on a non-collective
    /// layer.
    gathered: Vec<u32>,
    /// Chunks a (layer, worker) still waits for; `UNSET` until the first
    /// lands there.
    chunks_remaining: Vec<u32>,
    /// Peer SF batches received per (layer, worker).
    sf_counts: Vec<u32>,
    /// Pushes per slot not sent yet, as `[remote, loopback]` streams (see
    /// [`Self::load_streams`]).
    pushes_unsent: Vec<[u32; 2]>,
    /// Pull landings and peer SF batches per (layer, worker) not sent yet,
    /// as `[remote, loopback]` streams.
    lands_unsent: Vec<[u32; 2]>,
    /// Local gradient ready time per (layer, worker) — collective schemes;
    /// `NAN` until the worker's `SyncReady`. Empty unless some layer rides
    /// a collective.
    coll_ready: Vec<f64>,
    /// Ring REDUCE hops, which need the local gradient, that arrived before
    /// it was ready: arrival time per (slot, worker), `NAN` when nothing is
    /// stashed. Empty unless some layer rides a collective.
    coll_pending: Vec<f64>,
    layer_done: f64,
    done_count: usize,
    expected_done: usize,
    tracer: Option<SimTracer>,
}

impl SimState<'_> {
    fn lw(&self, layer: usize, worker: usize) -> usize {
        layer * self.p + worker
    }

    /// Forgets the previous iteration's progress.
    fn begin_iteration(&mut self, iter_start: f64) {
        self.layer_done = iter_start;
        self.done_count = 0;
        let active_nodes = (0..self.p).filter(|&w| !self.is_dropped(w)).count();
        self.expected_done = self.plans.len() * active_nodes;
        self.gathered.fill(0);
        self.load_streams();
        self.chunks_remaining.fill(UNSET);
        self.sf_counts.fill(0);
        self.coll_ready.fill(f64::NAN);
        self.coll_pending.fill(f64::NAN);
    }

    /// Loads the arrivals one iteration sends each progress index, split
    /// into a remote and a loopback stream: every active worker's push of
    /// each chunk to its home shard (of an Adam layer's factors to its
    /// shard), every reply a shard sends each worker, and an SFB layer's
    /// batch from every active peer.
    ///
    /// A remote stream's arrivals all cross the rx queue of the node they
    /// reach, which is FIFO: each finishes no earlier than the one reserved
    /// before it, and equal times pop in insertion order, so the last one
    /// sent pops last. A loopback stream is a worker's push to its own
    /// node's shard, or the replies that shard sends its worker as its
    /// `ApplyDone`s pop, at the finish times of its FIFO CPU stream. Only
    /// the last arrival of a stream can complete a count, and
    /// [`Self::queues`] queues only those.
    fn load_streams(&mut self) {
        let p = self.p;
        let pushes = self.required_pushes() as u32;
        for (d, plan) in self.plans.iter().enumerate() {
            let lands = d * p..(d + 1) * p;
            match plan.route.payload() {
                Payload::Chunks => {
                    self.lands_unsent[lands.clone()].fill([plan.chunks.len() as u32, 0]);
                    for (c, &(shard, ..)) in plan.chunks.iter().enumerate() {
                        let own = u32::from(!self.is_dropped(shard));
                        self.pushes_unsent[plan.base + c] = [pushes - own, own];
                        let [remote, local] = &mut self.lands_unsent[lands.start + shard];
                        *remote -= 1;
                        *local += 1;
                    }
                }
                Payload::Factors if plan.route.to_peers() => {
                    for w in 0..p {
                        self.lands_unsent[lands.start + w] = [self.required_sf(w) as u32, 0];
                    }
                }
                Payload::Factors => {
                    // Adam: every worker sends its factors to one shard.
                    let to = plan.route.sends(0, 0, |_| 0).last();
                    let shard = node_of(to.expect("an Adam layer's shard").0);
                    let own = u32::from(!self.is_dropped(shard));
                    self.pushes_unsent[plan.base] = [pushes - own, own];
                    for w in 0..p {
                        let local = u32::from(w == shard);
                        self.lands_unsent[lands.start + w] = [1 - local, local];
                    }
                }
                Payload::Segments => {}
            }
        }
    }

    /// Worker `w`'s payload of `bytes`, ready at `ready`, leaving for the
    /// wire: aggregated onto the leader GPU, moved to the host and, under a
    /// lossy `codec`, compressed over its `dense` bytes (error feedback +
    /// encode) on the transform stream.
    fn stage_out(&mut self, w: usize, ready: f64, bytes: u64, dense: u64, codec: Codec) -> f64 {
        let ready = self.local_aggregate(w, ready, bytes);
        let ready = self.staged(w, ready, bytes);
        if codec == Codec::Identity {
            return ready;
        }
        let qdur = 2.0 * dense as f64 / self.cfg.transform_flops;
        self.cpu[w].reserve(ready, qdur).1
    }

    /// An unoverlapped engine's synchronous GPU↔CPU copy of `bytes` on
    /// `node`'s memcpy stream; free when moves overlap with compute.
    fn staged(&mut self, node: usize, ready: f64, bytes: u64) -> f64 {
        if !self.cfg.unoverlapped_memcpy {
            return ready;
        }
        let dur = bytes as f64 / self.cfg.memcpy_bytes_per_s + self.cfg.per_move_overhead_s;
        self.memcpy[node].reserve(ready, dur).1
    }

    /// `true` iff `worker` is a straggler whose participation is dropped:
    /// the rest of the cluster neither waits for its updates nor for its
    /// iteration completion (it still receives parameters).
    fn is_dropped(&self, worker: usize) -> bool {
        matches!(self.cfg.straggler, Some((node, _)) if self.cfg.drop_stragglers && node == worker)
    }

    /// Gradient contributions required before a PS-style aggregate applies.
    fn required_pushes(&self) -> usize {
        if self.cfg.drop_stragglers && self.cfg.straggler.is_some() && self.p > 1 {
            self.p - 1
        } else {
            self.p
        }
    }

    /// Peer SF batches required at `at` before reconstruction starts.
    fn required_sf(&self, at: usize) -> usize {
        let base = self.p - 1;
        match self.cfg.straggler {
            Some((node, _)) if self.cfg.drop_stragglers && node != at && base > 0 => base - 1,
            _ => base,
        }
    }

    /// Local multi-GPU aggregation of `bytes` onto the node's leader GPU
    /// (G−1 device-to-device copies over PCIe); identity when G = 1. The
    /// re-distribution of fresh parameters to the other GPUs costs the same.
    fn local_aggregate(&mut self, node: usize, ready: f64, bytes: u64) -> f64 {
        if self.gpus <= 1 {
            return ready;
        }
        let dur = (self.gpus - 1) as f64 * bytes as f64 / self.cfg.pcie_bytes_per_s;
        self.pcie[node].reserve(ready, dur).1
    }

    /// `worker` holds the layer's fresh parameters at `t`: re-distribute
    /// them to its other GPUs and, unless it is a dropped straggler, count
    /// the layer towards the iteration's completion vector.
    fn layer_synced(&mut self, plan: &LayerPlan, worker: usize, t: f64) {
        let done = self.local_aggregate(worker, t, plan.dense_bytes);
        if self.is_dropped(worker) {
            return;
        }
        if let Some(tr) = self.tracer.as_mut() {
            let (lane, a, iter) = (plan.layer as u32 + 1, plan.layer as u64, tr.iter);
            tr.push(worker, EventKind::End, "wfbp.sync", lane, a, iter, done);
        }
        self.layer_done = self.layer_done.max(done);
        self.done_count += 1;
    }

    /// Counts one of the chunks `worker` waits for on dense layer `layer`
    /// (all of the layer's, or the single reply of an Adam layer); `true`
    /// iff it was the last.
    fn chunk_counted(&mut self, layer: usize, worker: usize) -> bool {
        let i = self.lw(layer, worker);
        let left = &mut self.chunks_remaining[i];
        if *left == UNSET {
            *left = self.plans[layer].chunks.len().max(1) as u32;
        }
        *left -= 1;
        if *left > 0 {
            return false;
        }
        *left = UNSET;
        true
    }

    /// One of the chunks `worker` waits for on dense layer `layer` landed at
    /// `t`; the last one synchronises the layer there.
    fn chunk_landed(&mut self, layer: usize, worker: usize, t: f64) {
        if self.chunk_counted(layer, worker) {
            self.layer_synced(&self.plans[layer], worker, t);
        }
    }

    /// Counts arrival `ev` — a push at its shard, a peer's SF batch, a
    /// pulled chunk at its worker — towards its progress index; `true` iff
    /// it completes the count.
    fn count_arrival(&mut self, ev: Ev) -> bool {
        let (d, chunk, node) = (ev.layer as usize, ev.chunk as usize, ev.node as usize);
        match ev.kind {
            Kind::GradArrive => {
                let required = self.required_pushes() as u32;
                let count = &mut self.gathered[self.plans[d].base + chunk];
                *count += 1;
                *count >= required
            }
            Kind::SfArrive => {
                let required = self.required_sf(node) as u32;
                let i = self.lw(d, node);
                let count = &mut self.sf_counts[i];
                *count += 1;
                *count >= required
            }
            Kind::PullArrive => self.chunk_counted(d, node),
            _ => unreachable!("{:?} is no counted arrival", ev.kind),
        }
    }

    /// Whether the arrival `ev`, just reserved on the FIFO NICs, goes into
    /// the queue: every event does, except a counted arrival that is not the
    /// last of its stream ([`Self::load_streams`]) and whose landing
    /// reserves nothing.
    fn queues(&mut self, ev: Ev, loopback: bool) -> bool {
        let plan = &self.plans[ev.layer as usize];
        let lw = self.lw(ev.layer as usize, ev.node as usize);
        let streams = match ev.kind {
            Kind::GradArrive => &mut self.pushes_unsent[plan.base + ev.chunk as usize],
            Kind::SfArrive => &mut self.lands_unsent[lw],
            // A landing that stages or decodes reserves the memcpy or CPU
            // stream, in pop order: it keeps its event.
            Kind::PullArrive if !self.cfg.unoverlapped_memcpy && plan.codec == Codec::Identity => {
                &mut self.lands_unsent[lw]
            }
            _ => return true,
        };
        let left = &mut streams[usize::from(loopback)];
        *left = left.checked_sub(1).expect("an arrival no stream counts");
        *left == 0
    }

    /// Dispatches a transfer under the configured bandwidth model: FIFO NIC
    /// queues schedule the arrival event eagerly, or settle it on the spot
    /// where [`Self::queues`] says it cannot complete its count; the
    /// fair-share model registers a fluid flow whose completion the main
    /// loop turns into the event.
    fn send(
        &mut self,
        queue: &mut EventQueue<Ev>,
        ready: f64,
        src: usize,
        dst: usize,
        bytes: u64,
        ev: Ev,
    ) {
        if let Some(tr) = self.tracer.as_mut() {
            tr.push(
                src,
                EventKind::Instant,
                "tx.frame",
                0,
                dst as u64,
                bytes,
                ready,
            );
        }
        match self.fair.as_mut() {
            Some(fair) => {
                fair.add_flow(ready, src, dst, bytes, ev);
            }
            None => {
                let arrive = self.net.transfer(ready, NodeId(src), NodeId(dst), bytes);
                if self.queues(ev, src == dst) {
                    queue.schedule_at(arrive, ev);
                } else {
                    let completed = self.count_arrival(ev);
                    debug_assert!(!completed, "a settled {ev:?} completed its count");
                }
            }
        }
    }
}

/// Simulates `spec` under `cfg` and reports the steady-state iteration.
pub fn simulate(spec: &ModelSpec, cfg: &SimConfig) -> IterationReport {
    simulate_inner(spec, cfg, false).0
}

/// Like [`simulate`], but also records the measured iteration as a
/// [`Trace`] on the simulator's virtual clock — the same event schema the
/// live runtime emits, so [`crate::telemetry::chrome::to_chrome_json`] and
/// [`crate::telemetry::report::summarize`] work on simulated timelines too.
pub fn simulate_with_trace(spec: &ModelSpec, cfg: &SimConfig) -> (IterationReport, Trace) {
    let (report, trace, _) = simulate_inner(spec, cfg, true);
    (report, trace.expect("tracing requested"))
}

/// Like [`simulate_with_trace`], but replays the recorded timeline into a
/// [`crate::metrics::MetricsSnapshot`] carrying the same metric families a
/// live mesh serves at `--metrics-addr` (step/sync-wait/apply histograms,
/// per-peer frame/byte counters) — so a simulated cluster is directly
/// diffable against a real scrape.
pub fn simulate_with_metrics(
    spec: &ModelSpec,
    cfg: &SimConfig,
) -> (IterationReport, crate::metrics::MetricsSnapshot) {
    let (report, trace) = simulate_with_trace(spec, cfg);
    let snapshot = crate::metrics::metrics_from_trace(std::slice::from_ref(&trace));
    (report, snapshot)
}

/// The report, the trace if `trace` asked for one, and the number of events
/// the call popped from its queue (the engine's work, pinned by the tests).
fn simulate_inner(
    spec: &ModelSpec,
    cfg: &SimConfig,
    trace: bool,
) -> (IterationReport, Option<Trace>, u64) {
    let p = cfg.nodes;
    if let Some((node, _)) = cfg.straggler {
        assert!(
            node < p,
            "straggler node {node} is out of range for {p} nodes"
        );
    }
    let gpus = cfg.gpus_per_node.max(1);
    let batch = cfg.batch_per_node.unwrap_or(spec.default_batch);
    // A node's effective batch is the sum over its GPUs — this is what the
    // cost model sees (more SFs per node), making PS more attractive for
    // multi-GPU nodes exactly as in the paper.
    let node_batch = batch * gpus;
    let cluster = ClusterConfig {
        workers: p,
        servers: p,
        batch_per_worker: node_batch,
        colocated: true,
    };
    let coordinator = Coordinator::from_spec(spec, cluster, cfg.policy, cfg.partition)
        .with_codec_policy(cfg.codec_policy);
    // Each GPU computes its own per-GPU batch in parallel.
    let times = LayerTimes::derive(spec, batch, cfg.gpu_default_flops);
    let single_node_ips = batch as f64 / times.total();

    // Build per-layer plans, bottom-up. The chunk table is layer-major and
    // holds chunks of exactly the trainable layers, so a layer's chunks are
    // the next run of it, and a chunk's position in the table is its slot in
    // the progress tables.
    let table = coordinator.chunk_table().chunks();
    let mut next = 0usize;
    let mut plans: Vec<LayerPlan> = Vec::new();
    for (l, info) in coordinator.layers().iter().enumerate() {
        if !info.is_trainable() {
            continue;
        }
        let route = Route::for_layer(&coordinator, l);
        let dense_bytes = info.param_elems as u64 * 4;
        let sf_bytes = info
            .fc_shape
            .map(|(m, n)| (node_batch * (m + n)) as u64 * 4 + MSG_OVERHEAD)
            .unwrap_or(0);
        let codec = coordinator.best_codec(l);
        let base = next;
        next += table[base..].iter().take_while(|c| c.layer == l).count();
        let chunks: Vec<(usize, u64, u64)> = match route.payload() {
            // Collectives reuse the PS chunk table as their segment tiling,
            // exactly like the live Syncer does; wire bytes are priced
            // through the layer's codec, the dense bytes drive fold costs.
            Payload::Chunks | Payload::Segments => table[base..next]
                .iter()
                .map(|c| {
                    let wire = codec.payload_bytes(c.len) as u64 + MSG_OVERHEAD;
                    (c.shard, wire, c.bytes())
                })
                .collect(),
            Payload::Factors => Vec::new(),
        };
        plans.push(LayerPlan {
            layer: l,
            route,
            base,
            codec,
            dense_bytes,
            stage_bytes: dense_bytes / chunks.len().max(1) as u64,
            sf_bytes,
            fc_shape: info.fc_shape,
            chunks,
        });
    }
    let slots = table.len();
    assert!(
        slots.saturating_mul(p) <= u32::MAX as usize,
        "{slots} chunks on {p} nodes overflow the event's u32 indices"
    );
    let any_collective = plans
        .iter()
        .any(|plan| plan.route.payload() == Payload::Segments);

    let mut state = SimState {
        cfg,
        plans: &plans,
        p,
        batch: node_batch,
        gpus,
        net: Network::new(
            p,
            LinkConfig {
                bandwidth_gbps: cfg.bandwidth_gbps * cfg.bandwidth_efficiency,
                latency_s: cfg.latency_s,
            },
        ),
        fair: cfg
            .fair_share
            .then(|| FlowNetwork::new(p, cfg.bandwidth_gbps * cfg.bandwidth_efficiency)),
        gpu_compute_end: 0.0,
        memcpy: vec![Resource::new(); p],
        cpu: vec![Resource::new(); p],
        pcie: vec![Resource::new(); p],
        gathered: vec![0; slots],
        chunks_remaining: vec![UNSET; plans.len() * p],
        sf_counts: vec![0; plans.len() * p],
        pushes_unsent: vec![[0; 2]; slots],
        lands_unsent: vec![[0; 2]; plans.len() * p],
        coll_ready: vec![f64::NAN; if any_collective { plans.len() * p } else { 0 }],
        coll_pending: vec![f64::NAN; if any_collective { slots * p } else { 0 }],
        layer_done: 0.0,
        done_count: 0,
        expected_done: 0,
        tracer: trace.then(|| SimTracer::new(p)),
    };

    let mut gpu: Vec<Resource> = vec![Resource::new(); p];
    let mut bwd_done = vec![vec![0.0f64; spec.layers.len()]; p];
    // One queue for the call: each iteration drains it, then rewinds its
    // clock — a dropped straggler's last pull can land after `iter_end`, so
    // a clock carried over would refuse the next iteration's `SyncReady`s.
    let mut queue: EventQueue<Ev> = EventQueue::new();
    let iterations = 3usize;
    let mut iter_start = 0.0f64;
    let mut measured = (0.0f64, 0.0f64); // (start, end) of last iteration
    let mut popped = 0u64;

    for it in 0..iterations {
        if it == iterations - 1 {
            state.net.ledger_mut().reset();
            if let Some(fair) = state.fair.as_mut() {
                fair.ledger_mut().reset();
            }
        }
        if let Some(tr) = state.tracer.as_mut() {
            tr.recording = it == iterations - 1;
            tr.iter = it as u64;
            for w in 0..p {
                tr.push(
                    w,
                    EventKind::Begin,
                    "iter",
                    0,
                    w as u64,
                    it as u64,
                    iter_start,
                );
            }
        }
        // Compute schedule: forward then backward on every GPU; an injected
        // straggler's compute is uniformly slowed down.
        let mut compute_end = iter_start;
        for (w, g) in gpu.iter_mut().enumerate() {
            let slow = match cfg.straggler {
                Some((node, factor)) if node == w => factor,
                _ => 1.0,
            };
            let mut t = iter_start;
            for l in 0..spec.layers.len() {
                let (s, f) = g.reserve(t, times.fwd[l] * slow);
                if let Some(tr) = state.tracer.as_mut() {
                    tr.span(w, "fwd", 0, l as u64, s, f);
                }
                t = f;
            }
            for l in (0..spec.layers.len()).rev() {
                let (s, f) = g.reserve(t, times.bwd[l] * slow);
                if let Some(tr) = state.tracer.as_mut() {
                    tr.span(w, "bwd", 0, l as u64, s, f);
                }
                t = f;
                bwd_done[w][l] = f;
            }
            if !state.is_dropped(w) {
                compute_end = compute_end.max(t);
            }
        }
        state.gpu_compute_end = compute_end;

        // Seed sync events in backward-completion order (top layer first) on
        // absolute times.
        queue.restart();
        state.begin_iteration(iter_start);
        for (d, plan) in plans.iter().enumerate().rev() {
            // Collectives have no partial-participation mode: every worker is
            // a link in the chain, so a straggler still sends (and gates
            // the fold) even when its iteration completion is discounted.
            let collective = plan.route.payload() == Payload::Segments;
            for (w, done) in bwd_done.iter().enumerate() {
                if state.is_dropped(w) && !collective {
                    // The dropped straggler's sends never happen; it lags
                    // behind on stale parameters and only consumes pulls.
                    continue;
                }
                let ready = match cfg.scheduler {
                    Scheduler::Wfbp => done[plan.layer],
                    // The node finishes its own backward first.
                    Scheduler::Sequential => done[0].max(done[spec.layers.len() - 1]),
                };
                queue.schedule_at(ready, Ev::new(Kind::SyncReady, d, 0, w));
            }
        }

        // Drain events; under fair sharing, interleave fluid-flow completions
        // with queued events in global time order: a completion strictly
        // before the next queued event goes first.
        loop {
            let ft = state.fair.as_mut().and_then(FlowNetwork::next_event_time);
            let ft_v = ft.unwrap_or(f64::INFINITY);
            if ft.is_some() && queue.peek_time().is_none_or(|qt| ft_v < qt) {
                let done = state.fair.as_mut().expect("fair mode").advance(ft_v);
                for ev in done {
                    queue.schedule_at(ft_v + cfg.latency_s, ev);
                }
                continue;
            }
            let Some((now, ev)) = queue.pop() else { break };
            popped += 1;
            if let Some(fair) = state.fair.as_mut() {
                if fair.next_event_time().is_none_or(|t| t >= now) {
                    for done_ev in fair.advance(now.min(ft_v)) {
                        queue.schedule_at(now + cfg.latency_s, done_ev);
                    }
                }
            }
            step(&mut state, &mut queue, now, ev);
        }

        let iter_end = state.gpu_compute_end.max(state.layer_done);
        assert_eq!(
            state.done_count, state.expected_done,
            "not every layer synchronised on every node"
        );
        if let Some(tr) = state.tracer.as_mut() {
            for w in 0..p {
                tr.push(w, EventKind::End, "iter", 0, w as u64, it as u64, iter_end);
            }
        }
        measured = (iter_start, iter_end);
        iter_start = iter_end;
    }

    let (start, end) = measured;
    let iter_time = end - start;
    let compute = times.total();
    let active_nodes = match cfg.straggler {
        Some(_) if cfg.drop_stragglers && p > 1 => p - 1,
        _ => p,
    };
    let throughput = (active_nodes * node_batch) as f64 / iter_time;
    let ledger = match state.fair.as_ref() {
        Some(fair) => fair.ledger(),
        None => state.net.ledger(),
    };
    let report = IterationReport {
        iter_time_s: iter_time,
        compute_s: compute,
        throughput_ips: throughput,
        single_node_ips,
        speedup: throughput / single_node_ips,
        stall_fraction: (1.0 - compute / iter_time).max(0.0),
        per_node_gbit: (0..p)
            .map(|n| crate::stats::bytes_to_gbit(ledger.node_bytes(n)))
            .collect(),
        schemes: plans
            .iter()
            .map(|plan| {
                let name = coordinator.layers()[plan.layer].name.clone();
                (name, plan.route.scheme())
            })
            .collect(),
    };
    let trace = state.tracer.take().map(|tr| tr.into_trace(p, spec.name));
    (report, trace, popped)
}

/// The node a frame's destination lives on: worker `w` runs on node `w`,
/// and shard `s` is colocated on node `s`.
fn node_of(to: Dest) -> usize {
    match to {
        Dest::Worker(n) | Dest::Shard(n) => n,
    }
}

fn step(state: &mut SimState<'_>, queue: &mut EventQueue<Ev>, now: f64, ev: Ev) {
    let p = state.p;
    let (d, chunk, node) = (ev.layer as usize, ev.chunk as usize, ev.node as usize);
    let plan = &state.plans[d];
    let layer = plan.layer;
    match ev.kind {
        Kind::SyncReady => {
            let w = node;
            if let Some(tr) = state.tracer.as_mut() {
                let (lane, a, iter) = (layer as u32 + 1, layer as u64, tr.iter);
                tr.push(w, EventKind::Instant, "grad.ready", 0, a, iter, now);
                tr.push(w, EventKind::Begin, "wfbp.sync", lane, a, iter, now);
            }
            let sends = plan.route.sends(w, plan.chunks.len(), |c| plan.chunks[c].0);
            match plan.route.payload() {
                Payload::Chunks => {
                    for (to, c) in sends {
                        let (_, bytes, dense) = plan.chunks[c];
                        let ready = state.stage_out(w, now, plan.stage_bytes, dense, plan.codec);
                        let arrive = Ev::new(Kind::GradArrive, d, c, node_of(to));
                        state.send(queue, ready, w, node_of(to), bytes, arrive);
                    }
                }
                Payload::Factors => {
                    let ready = state.stage_out(w, now, plan.sf_bytes, 0, plan.codec);
                    for (to, _) in sends {
                        let kind = match to {
                            Dest::Shard(_) => Kind::GradArrive,
                            Dest::Worker(_) => Kind::SfArrive,
                        };
                        let arrive = Ev::new(kind, d, 0, node_of(to));
                        state.send(queue, ready, w, node_of(to), plan.sf_bytes, arrive);
                    }
                    if plan.route.to_peers() && state.required_sf(w) == 0 {
                        // Nothing to receive (a single node, or the one
                        // survivor of a dropped straggler at P = 2): no
                        // arrival will trigger reconstruction.
                        queue.schedule_at(now, Ev::new(Kind::ReconDone, d, 0, w));
                    }
                }
                Payload::Segments => {
                    // The contribution is formed once, over the whole layer.
                    let dense = plan.dense_bytes;
                    let ready = state.stage_out(w, now, dense, dense, plan.codec);
                    let lw = state.lw(d, w);
                    state.coll_ready[lw] = ready;
                    for (to, c) in sends {
                        let (_, bytes, _) = plan.chunks[c];
                        let hop = Ev::new(Kind::Hop(COLLECTIVE_REDUCE), d, c, node_of(to));
                        state.send(queue, ready, w, node_of(to), bytes, hop);
                    }
                    // Replay frames that outran our backward.
                    for c in 0..plan.chunks.len() {
                        let stash = &mut state.coll_pending[(plan.base + c) * p + w];
                        let t = std::mem::replace(stash, f64::NAN);
                        if !t.is_nan() {
                            fold_hop(state, queue, t.max(ready), d, c, w);
                        }
                    }
                }
            }
        }
        Kind::GradArrive => {
            if !state.count_arrival(ev) {
                return;
            }
            let shard = node;
            let apply_dur = match plan.route.payload() {
                Payload::Chunks => {
                    let (_, _, dense) = plan.chunks[chunk];
                    // Dense fold of P gradients (a lossy codec decompresses
                    // to dense before folding, so same cost).
                    p as f64 * dense as f64 / state.cfg.apply_bytes_per_s
                }
                Payload::Factors => {
                    let (m, n) = plan.fc_shape.expect("Adam needs FC shape");
                    let recon = p as f64 * 2.0 * state.batch as f64 * m as f64 * n as f64
                        / state.cfg.transform_flops;
                    let fold = p as f64 * plan.dense_bytes as f64 / state.cfg.apply_bytes_per_s;
                    recon + fold
                }
                Payload::Segments => unreachable!("collectives never push to a shard"),
            };
            let (astart, done) = state.cpu[shard].reserve(now, apply_dur);
            if let Some(tr) = state.tracer.as_mut() {
                tr.span(p + shard, "serve.apply", 0, layer as u64, astart, done);
            }
            queue.schedule_at(done, Ev::new(Kind::ApplyDone, d, chunk, shard));
        }
        Kind::ApplyDone => {
            let shard = node;
            let pull_bytes = match plan.route.payload() {
                // Lossy PS replies with the compressed delta: same wire
                // bytes as the push direction.
                Payload::Chunks => plan.chunks[chunk].1,
                // Adam's reply is the whole fresh matrix.
                _ => plan.dense_bytes + MSG_OVERHEAD,
            };
            for w in route::replies(p) {
                let pull = Ev::new(Kind::PullArrive, d, chunk, w);
                state.send(queue, now, shard, w, pull_bytes, pull);
            }
        }
        Kind::PullArrive => {
            let mut done = state.staged(node, now, plan.stage_bytes);
            if plan.codec != Codec::Identity {
                // Decompress the pulled payload.
                let dq = plan.dense_bytes as f64 / state.cfg.transform_flops;
                done = state.cpu[node].reserve(done, dq).1;
            }
            state.chunk_landed(d, node, done);
        }
        Kind::SfArrive => {
            if !state.count_arrival(ev) {
                return;
            }
            let (m, n) = plan.fc_shape.expect("SFB needs FC shape");
            // Reconstruct P·K rank-1 updates (own factors included) on the
            // transform stream.
            let recon = p as f64 * 2.0 * state.batch as f64 * m as f64 * n as f64
                / state.cfg.transform_flops;
            let done = state.cpu[node].reserve(now, recon).1;
            queue.schedule_at(done, Ev::new(Kind::ReconDone, d, 0, node));
        }
        Kind::ReconDone => state.layer_synced(plan, node, now),
        Kind::Hop(phase) => {
            let (_, bytes, _) = plan.chunks[chunk];
            match plan.route.hop(phase, node).expect("a hop its route sends") {
                Hop::Add(_) | Hop::Fold(_) => contribute(state, queue, now, d, chunk, node),
                Hop::Land(next) => {
                    state.chunk_landed(d, node, now);
                    for to in next {
                        let on = Ev::new(Kind::Hop(phase), d, chunk, to);
                        state.send(queue, now, node, to, bytes, on);
                    }
                }
            }
        }
    }
}

/// A ring REDUCE hop, which needs worker `at`'s own contribution, is due at
/// `now`: fold it once the local gradient is ready, stashing it until then
/// (the live runtime's park discipline).
fn contribute(
    state: &mut SimState<'_>,
    queue: &mut EventQueue<Ev>,
    now: f64,
    d: usize,
    chunk: usize,
    at: usize,
) {
    let ready = state.coll_ready[state.lw(d, at)];
    if ready.is_nan() {
        let slot = state.plans[d].base + chunk;
        state.coll_pending[slot * state.p + at] = now;
    } else {
        fold_hop(state, queue, now.max(ready), d, chunk, at);
    }
}

/// Worker `at`, whose local gradient is ready, adds its contribution to
/// `chunk`'s ring frame on the transform stream, then forwards the partial
/// or, where the fold completes, lands it and originates the DISTRIBUTE
/// pass.
fn fold_hop(
    state: &mut SimState<'_>,
    queue: &mut EventQueue<Ev>,
    now: f64,
    d: usize,
    chunk: usize,
    at: usize,
) {
    let p = state.p;
    let plan = &state.plans[d];
    let hop = plan.route.hop(COLLECTIVE_REDUCE, at).expect("a REDUCE hop");
    let (_, bytes, dense) = plan.chunks[chunk];
    let dur = dense as f64 / state.cfg.apply_bytes_per_s;
    let done = state.cpu[at].reserve(now, dur).1;
    if let Some(tr) = state.tracer.as_mut() {
        tr.span(p + at, "coll.fold", 0, plan.layer as u64, now, done);
    }
    match hop {
        Hop::Add(next) => {
            let on = Ev::new(Kind::Hop(COLLECTIVE_REDUCE), d, chunk, next);
            state.send(queue, done, at, next, bytes, on);
        }
        Hop::Fold(to) => {
            state.chunk_landed(d, at, done);
            for w in to {
                let share = Ev::new(Kind::Hop(COLLECTIVE_DISTRIBUTE), d, chunk, w);
                state.send(queue, done, at, w, bytes, share);
            }
        }
        Hop::Land(_) => unreachable!("DISTRIBUTE folds nothing"),
    }
}

/// Convenience: `(nodes, speedup)` for a node sweep of one system.
pub fn speedup_series(
    spec: &ModelSpec,
    mut make_cfg: impl FnMut(usize) -> SimConfig,
    nodes: &[usize],
) -> Vec<(usize, f64)> {
    nodes
        .iter()
        .map(|&n| {
            let cfg = make_cfg(n);
            let report = simulate(spec, &cfg);
            (n, report.speedup)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::System;
    use poseidon_nn::zoo;

    /// The engine's work contract: how many events one call pops (three
    /// iterations) at 32 nodes and 10 GbE. The FIFO NICs settle every
    /// arrival that cannot complete its count without queueing it, so a KV
    /// pair's `P` pushes cost at most two events, and so do the chunks of a
    /// layer a worker pulls; an engine that queued one event per push and
    /// per pull popped 89 574, 105 858 and 89 574 here. Caffe+PS stages
    /// every pulled chunk through its memcpy stream, so its pulls stay
    /// queued. A count that moves changes what the engine does per event;
    /// `tests/sim_fingerprint.rs` says whether it changed a result.
    #[test]
    fn events_per_call_are_pinned() {
        let runs = [
            (zoo::vgg19_22k(), System::WfbpPs, 8_118),
            (zoo::resnet152(), System::Poseidon, 63_507),
            (zoo::vgg19_22k(), System::CaffePs, 49_074),
        ];
        for (spec, system, want) in runs {
            let cfg = SimConfig::system(system, 32, 10.0);
            let (_, _, popped) = simulate_inner(&spec, &cfg, false);
            assert_eq!(
                popped,
                want,
                "{} {} at 32x10: events popped",
                spec.name,
                system.label()
            );
        }
    }

    /// A straggler on a node the cluster does not have is refused up front,
    /// whether or not it is dropped.
    fn out_of_range_straggler(drop_stragglers: bool) {
        let mut cfg = SimConfig::system(System::Poseidon, 8, 10.0);
        cfg.straggler = Some((9, 2.0));
        cfg.drop_stragglers = drop_stragglers;
        simulate_inner(&zoo::alexnet(), &cfg, false);
    }

    #[test]
    #[should_panic(expected = "straggler node 9 is out of range for 8 nodes")]
    fn out_of_range_straggler_is_refused() {
        out_of_range_straggler(false);
    }

    #[test]
    #[should_panic(expected = "straggler node 9 is out of range for 8 nodes")]
    fn out_of_range_dropped_straggler_is_refused() {
        out_of_range_straggler(true);
    }
}
