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
//! Every reported statistic is a function of the order in which the queue
//! pops — `(time, insertion order)`, see [`poseidon_netsim::EventQueue`] —
//! so the handlers below must keep issuing the same `schedule_at` calls in
//! the same order; `tests/sim_fingerprint.rs` pins the result bit for bit.
//! Progress is kept in flat tables over the coordinator's own index space
//! (a chunk's position in the chunk table, and trainable layer × worker):
//! see [`SimState`].

use crate::config::ClusterConfig;
use crate::config::Codec;
use crate::config::CommScheme;
use crate::config::Scheduler;
use crate::coordinator::Coordinator;
use crate::sim::profile::{LayerTimes, SimConfig};
use crate::telemetry::{Event, EventKind, Trace, Track};
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
    /// One worker's gradient `chunk` arrived at its shard.
    GradArrive,
    /// The shard finished applying `chunk`'s aggregated update.
    ApplyDone,
    /// Fresh parameters of `chunk` arrived back at worker `node`.
    PullArrive,
    /// A peer's SF batch arrived at worker `node` (SFB).
    SfArrive,
    /// Worker `node` finished reconstructing the layer from factors (SFB).
    ReconDone,
    /// A ring partial sum for `chunk` arrived at worker `node` (REDUCE hop).
    RingReduce,
    /// The folded ring value for `chunk` arrived at worker `node`
    /// (DISTRIBUTE).
    RingShare,
    /// A tree contribution for `chunk` arrived at `node` en route to the
    /// root (interior nodes relay without folding, as in the live runtime).
    TreeGather,
    /// The root's folded value for `chunk` arrived at `node` (broadcast).
    TreeCast,
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
    /// Index into the model's layers (trace labels, Adam's owner shard).
    layer: usize,
    /// Position of the layer's first chunk in the coordinator's chunk table:
    /// `base + chunk` is that chunk's slot in the per-chunk progress tables
    /// (an SFB or Adam layer uses `base` alone).
    base: usize,
    scheme: CommScheme,
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
    /// Pushes received per slot; `UNSET` once the aggregate is applied (a
    /// late straggler push is then discarded).
    grad_counts: Vec<u32>,
    /// Pulls still in flight per slot.
    pull_remaining: Vec<u32>,
    /// Contributions gathered at the tree root per slot.
    tree_counts: Vec<u32>,
    /// Chunks a (layer, worker) still waits for; `UNSET` until its
    /// `SyncReady` — or, for a dropped straggler, its first pull — sets it.
    chunks_remaining: Vec<u32>,
    /// Peer SF batches received per (layer, worker); `UNSET` once the
    /// reconstruction has started.
    sf_counts: Vec<u32>,
    /// Local gradient ready time per (layer, worker) — collective schemes;
    /// `NAN` until the worker's `SyncReady`.
    coll_ready: Vec<f64>,
    /// Ring REDUCE hops that arrived before the local gradient was ready:
    /// arrival time per (slot, worker), `NAN` when nothing is stashed. Empty
    /// unless some layer rides a collective.
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
        self.grad_counts.fill(0);
        self.pull_remaining.fill(0);
        self.tree_counts.fill(0);
        self.chunks_remaining.fill(UNSET);
        self.sf_counts.fill(0);
        self.coll_ready.fill(f64::NAN);
        self.coll_pending.fill(f64::NAN);
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

    /// One of the chunks `worker` waits for on dense layer `layer` (all of
    /// the layer's, or the single reply of an Adam layer) landed at `t`; the
    /// last one synchronises the layer there.
    fn chunk_landed(&mut self, layer: usize, worker: usize, t: f64) {
        let plan = &self.plans[layer];
        let i = self.lw(layer, worker);
        let left = &mut self.chunks_remaining[i];
        if *left == UNSET {
            *left = plan.chunks.len().max(1) as u32;
        }
        *left -= 1;
        if *left == 0 {
            *left = UNSET;
            self.layer_synced(plan, worker, t);
        }
    }

    /// Dispatches a transfer under the configured bandwidth model: FIFO NIC
    /// queues schedule the arrival event eagerly; the fair-share model
    /// registers a fluid flow whose completion the main loop turns into the
    /// event.
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
                queue.schedule_at(arrive, ev);
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
    let (report, trace) = simulate_inner(spec, cfg, true);
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

fn simulate_inner(
    spec: &ModelSpec,
    cfg: &SimConfig,
    trace: bool,
) -> (IterationReport, Option<Trace>) {
    let p = cfg.nodes;
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
    for (l, scheme) in coordinator.scheme_assignment() {
        let info = &coordinator.layers()[l];
        let dense_bytes = info.param_elems as u64 * 4;
        let sf_bytes = info
            .fc_shape
            .map(|(m, n)| (node_batch * (m + n)) as u64 * 4 + MSG_OVERHEAD)
            .unwrap_or(0);
        let codec = coordinator.best_codec(l);
        let base = next;
        next += table[base..].iter().take_while(|c| c.layer == l).count();
        let chunks: Vec<(usize, u64, u64)> = match scheme {
            // Collectives reuse the PS chunk table as their segment tiling,
            // exactly like the live Syncer does; wire bytes are priced
            // through the layer's codec, the dense bytes drive fold costs.
            CommScheme::Ps | CommScheme::Ring | CommScheme::Tree => table[base..next]
                .iter()
                .map(|c| {
                    let wire = codec.payload_bytes(c.len) as u64 + MSG_OVERHEAD;
                    (c.shard, wire, c.bytes())
                })
                .collect(),
            CommScheme::AdamSf | CommScheme::Sfb => Vec::new(),
        };
        plans.push(LayerPlan {
            layer: l,
            base,
            scheme,
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
        .any(|plan| matches!(plan.scheme, CommScheme::Ring | CommScheme::Tree));

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
        grad_counts: vec![0; slots],
        pull_remaining: vec![0; slots],
        tree_counts: vec![0; slots],
        chunks_remaining: vec![UNSET; plans.len() * p],
        sf_counts: vec![0; plans.len() * p],
        coll_ready: vec![f64::NAN; plans.len() * p],
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
            // a link in the chain/tree, so a straggler still sends (and gates
            // the fold) even when its iteration completion is discounted.
            let collective = matches!(plan.scheme, CommScheme::Ring | CommScheme::Tree);
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
            .map(|plan| (coordinator.layers()[plan.layer].name.clone(), plan.scheme))
            .collect(),
    };
    let trace = state.tracer.take().map(|tr| tr.into_trace(p, spec.name));
    (report, trace)
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
            let lw = state.lw(d, w);
            match plan.scheme {
                CommScheme::Ps => {
                    state.chunks_remaining[lw] = plan.chunks.len() as u32;
                    for (c, &(shard, bytes, dense)) in plan.chunks.iter().enumerate() {
                        let mut ready = state.local_aggregate(w, now, plan.stage_bytes);
                        ready = state.staged(w, ready, plan.stage_bytes);
                        if plan.codec != Codec::Identity {
                            // Compression pass (error feedback + encode)
                            // before send, on the transform stream.
                            let qdur = 2.0 * dense as f64 / state.cfg.transform_flops;
                            ready = state.cpu[w].reserve(ready, qdur).1;
                        }
                        let arrive = Ev::new(Kind::GradArrive, d, c, 0);
                        state.send(queue, ready, w, shard, bytes, arrive);
                    }
                }
                CommScheme::Sfb => {
                    state.chunks_remaining[lw] = 1;
                    let ready = state.local_aggregate(w, now, plan.sf_bytes);
                    let ready = state.staged(w, ready, plan.sf_bytes);
                    for v in (0..p).filter(|&v| v != w) {
                        let arrive = Ev::new(Kind::SfArrive, d, 0, v);
                        state.send(queue, ready, w, v, plan.sf_bytes, arrive);
                    }
                    if p == 1 {
                        // Degenerate single-node SFB: nothing to receive.
                        queue.schedule_at(now, Ev::new(Kind::ReconDone, d, 0, w));
                    }
                }
                CommScheme::Ring | CommScheme::Tree => {
                    if state.chunks_remaining[lw] == UNSET {
                        state.chunks_remaining[lw] = plan.chunks.len() as u32;
                    }
                    let mut ready = state.local_aggregate(w, now, plan.dense_bytes);
                    ready = state.staged(w, ready, plan.dense_bytes);
                    if plan.codec != Codec::Identity {
                        // Compression pass before seeding / contributing.
                        let qdur = 2.0 * plan.dense_bytes as f64 / state.cfg.transform_flops;
                        ready = state.cpu[w].reserve(ready, qdur).1;
                    }
                    state.coll_ready[lw] = ready;
                    match (plan.scheme, w) {
                        (CommScheme::Ring, 0) => {
                            // Worker 0 seeds the chain towards worker 1.
                            for (c, &(_, bytes, _)) in plan.chunks.iter().enumerate() {
                                let hop = Ev::new(Kind::RingReduce, d, c, 1);
                                state.send(queue, ready, 0, 1, bytes, hop);
                            }
                        }
                        (CommScheme::Ring, _) => {
                            // Replay REDUCE hops that outran our backward.
                            for c in 0..plan.chunks.len() {
                                let stash = &mut state.coll_pending[(plan.base + c) * p + w];
                                let t = std::mem::replace(stash, f64::NAN);
                                if !t.is_nan() {
                                    ring_reduce_arrive(state, queue, t.max(ready), d, c, w);
                                }
                            }
                        }
                        (_, 0) => {
                            // Tree root: fold any chunk whose contributions
                            // all arrived before our own gradient was ready.
                            for c in 0..plan.chunks.len() {
                                try_tree_fold(state, queue, ready, d, c);
                            }
                        }
                        _ => {
                            let parent = (w - 1) / 2;
                            for (c, &(_, bytes, _)) in plan.chunks.iter().enumerate() {
                                let up = Ev::new(Kind::TreeGather, d, c, parent);
                                state.send(queue, ready, w, parent, bytes, up);
                            }
                        }
                    }
                }
                CommScheme::AdamSf => {
                    state.chunks_remaining[lw] = 1;
                    let ready = state.local_aggregate(w, now, plan.sf_bytes);
                    let ready = state.staged(w, ready, plan.sf_bytes);
                    let arrive = Ev::new(Kind::GradArrive, d, 0, 0);
                    state.send(queue, ready, w, layer % p, plan.sf_bytes, arrive);
                }
            }
        }
        Kind::GradArrive => {
            let required = state.required_pushes() as u32;
            let count = &mut state.grad_counts[plan.base + chunk];
            if *count == UNSET {
                return; // late straggler push, dropped
            }
            *count += 1;
            if *count < required {
                return;
            }
            *count = UNSET;
            let (shard, apply_dur) = match plan.scheme {
                CommScheme::Ps => {
                    let (shard, _, dense) = plan.chunks[chunk];
                    // Dense fold of P gradients (a lossy codec decompresses
                    // to dense before folding, so same cost).
                    (shard, p as f64 * dense as f64 / state.cfg.apply_bytes_per_s)
                }
                CommScheme::AdamSf => {
                    let (m, n) = plan.fc_shape.expect("Adam needs FC shape");
                    let recon = p as f64 * 2.0 * state.batch as f64 * m as f64 * n as f64
                        / state.cfg.transform_flops;
                    let fold = p as f64 * plan.dense_bytes as f64 / state.cfg.apply_bytes_per_s;
                    (layer % p, recon + fold)
                }
                CommScheme::Sfb => unreachable!("SFB has no server-side apply"),
                CommScheme::Ring | CommScheme::Tree => {
                    unreachable!("collectives never push to a shard")
                }
            };
            let (astart, done) = state.cpu[shard].reserve(now, apply_dur);
            if let Some(tr) = state.tracer.as_mut() {
                tr.span(p + shard, "serve.apply", 0, layer as u64, astart, done);
            }
            queue.schedule_at(done, Ev::new(Kind::ApplyDone, d, chunk, 0));
        }
        Kind::ApplyDone => {
            let (shard, pull_bytes) = match plan.scheme {
                // Lossy PS replies with the compressed delta: same wire
                // bytes as the push direction.
                CommScheme::Ps => {
                    let (shard, bytes, _) = plan.chunks[chunk];
                    (shard, bytes)
                }
                CommScheme::AdamSf => (layer % p, plan.dense_bytes + MSG_OVERHEAD),
                CommScheme::Sfb | CommScheme::Ring | CommScheme::Tree => unreachable!(),
            };
            state.pull_remaining[plan.base + chunk] = p as u32;
            for w in 0..p {
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
            let in_flight = &mut state.pull_remaining[plan.base + chunk];
            *in_flight = in_flight.checked_sub(1).expect("pull bookkeeping");
            state.chunk_landed(d, node, done);
        }
        Kind::SfArrive => {
            let required = state.required_sf(node) as u32;
            let i = state.lw(d, node);
            let count = &mut state.sf_counts[i];
            if *count == UNSET {
                return; // late straggler batch, dropped
            }
            *count += 1;
            if *count < required {
                return;
            }
            *count = UNSET;
            let (m, n) = plan.fc_shape.expect("SFB needs FC shape");
            // Reconstruct P·K rank-1 updates (own factors included) on the
            // transform stream.
            let recon = p as f64 * 2.0 * state.batch as f64 * m as f64 * n as f64
                / state.cfg.transform_flops;
            let done = state.cpu[node].reserve(now, recon).1;
            queue.schedule_at(done, Ev::new(Kind::ReconDone, d, 0, node));
        }
        Kind::ReconDone => state.layer_synced(plan, node, now),
        Kind::RingReduce => {
            let ready = state.coll_ready[state.lw(d, node)];
            if ready.is_nan() {
                // The predecessor ran ahead of this worker's backward; stash
                // the hop until our own contribution exists (satellite of the
                // live runtime's frame-stashing discipline).
                state.coll_pending[(plan.base + chunk) * p + node] = now;
            } else {
                ring_reduce_arrive(state, queue, now.max(ready), d, chunk, node);
            }
        }
        Kind::RingShare => {
            let (_, bytes, _) = plan.chunks[chunk];
            state.chunk_landed(d, node, now);
            let next = node + 1;
            if next != p - 1 {
                // Stop one short of the originator (worker P−1 already holds
                // the folded value).
                let share = Ev::new(Kind::RingShare, d, chunk, next);
                state.send(queue, now, node, next, bytes, share);
            }
        }
        Kind::TreeGather => {
            if node == 0 {
                state.tree_counts[plan.base + chunk] += 1;
                try_tree_fold(state, queue, now, d, chunk);
            } else {
                // Interior nodes relay origin-tagged payloads unchanged.
                let (_, bytes, _) = plan.chunks[chunk];
                let parent = (node - 1) / 2;
                let up = Ev::new(Kind::TreeGather, d, chunk, parent);
                state.send(queue, now, node, parent, bytes, up);
            }
        }
        Kind::TreeCast => {
            let (_, bytes, _) = plan.chunks[chunk];
            state.chunk_landed(d, node, now);
            for child in [2 * node + 1, 2 * node + 2] {
                if child < p {
                    let cast = Ev::new(Kind::TreeCast, d, chunk, child);
                    state.send(queue, now, node, child, bytes, cast);
                }
            }
        }
    }
}

/// A ring REDUCE hop lands at `at`, whose local gradient is ready: fuse-add
/// the partial on the transform stream, then forward (or, at the chain's
/// end, fold and originate the DISTRIBUTE pass).
fn ring_reduce_arrive(
    state: &mut SimState<'_>,
    queue: &mut EventQueue<Ev>,
    now: f64,
    d: usize,
    chunk: usize,
    at: usize,
) {
    let p = state.p;
    let plan = &state.plans[d];
    let (_, bytes, dense) = plan.chunks[chunk];
    let dur = dense as f64 / state.cfg.apply_bytes_per_s;
    let done = state.cpu[at].reserve(now, dur).1;
    if let Some(tr) = state.tracer.as_mut() {
        tr.span(p + at, "coll.fold", 0, plan.layer as u64, now, done);
    }
    if at == p - 1 {
        // Chain complete: this worker holds the folded update; the broadcast
        // pass walks the ring from worker 0.
        state.chunk_landed(d, at, done);
        let share = Ev::new(Kind::RingShare, d, chunk, 0);
        state.send(queue, done, at, 0, bytes, share);
    } else {
        let hop = Ev::new(Kind::RingReduce, d, chunk, at + 1);
        state.send(queue, done, at, at + 1, bytes, hop);
    }
}

/// Folds a tree chunk at the root once its own gradient and all `P−1`
/// origin contributions are present, then starts the downward broadcast.
fn try_tree_fold(
    state: &mut SimState<'_>,
    queue: &mut EventQueue<Ev>,
    now: f64,
    d: usize,
    chunk: usize,
) {
    let p = state.p;
    let plan = &state.plans[d];
    let ready = state.coll_ready[state.lw(d, 0)];
    if ready.is_nan() || (state.tree_counts[plan.base + chunk] as usize) < p - 1 {
        return;
    }
    state.tree_counts[plan.base + chunk] = 0;
    let (_, bytes, dense) = plan.chunks[chunk];
    let dur = p as f64 * dense as f64 / state.cfg.apply_bytes_per_s;
    let start = now.max(ready);
    let done = state.cpu[0].reserve(start, dur).1;
    if let Some(tr) = state.tracer.as_mut() {
        tr.span(p, "coll.fold", 0, plan.layer as u64, start, done);
    }
    state.chunk_landed(d, 0, done);
    for child in [1, 2] {
        if child < p {
            let cast = Ev::new(Kind::TreeCast, d, chunk, child);
            state.send(queue, done, 0, child, bytes, cast);
        }
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
