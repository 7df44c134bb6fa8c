//! The live metrics plane: always-on counters, gauges, and log2-bucketed
//! histograms with Prometheus-style pull exposition.
//!
//! Orthogonal to [`crate::telemetry`] (post-hoc event *traces*, default
//! off), this module answers "how am I doing *right now*": a process-global
//! [`Registry`] of atomic instruments any thread can record into lock-free,
//! scrapeable while a mesh is training. Three constraints shape it:
//!
//! 1. **Zero dependencies.** `std` only — the HTTP responder in [`expose`]
//!    speaks just enough HTTP/1.1 to satisfy a Prometheus scraper or `curl`.
//! 2. **ns-class record path.** Recording is a handful of relaxed atomic
//!    RMWs on pre-resolved handles; the registry mutex is only taken when a
//!    handle is first created (per link / per worker, never per frame) and
//!    at snapshot time. `metrics_bench` pins the cost and `check.sh` gates
//!    the instrumented-vs-bare training overhead under 2%.
//! 3. **A pure observer.** Instruments record values the training path
//!    already computed; numerics are bitwise identical with metrics on or
//!    off (`crates/core/tests/metrics_determinism.rs`). [`set_enabled`]
//!    exists only so the bench can measure the bare path.
//!
//! # Instruments
//!
//! * [`Counter`] — monotonically increasing `u64` (frames, bytes, retries).
//! * [`Gauge`] — a settable level, with a `set_max` high-water helper
//!   (queue depth peaks, pool residency).
//! * [`Histogram`] — 64 log2 buckets: value `v` lands in bucket
//!   `bit_width(v)` (0 stays in bucket 0), so bucket `i` spans
//!   `[2^(i-1), 2^i - 1]` and covers the full `u64` range in constant
//!   space. p50/p90/p99 are derived from cumulative bucket counts, clamped
//!   to the recorded min/max ([`HistogramSnapshot::quantile`]).
//!
//! # Name schema
//!
//! Families follow Prometheus conventions — `poseidon_` prefix, `_total`
//! suffix on counters, unit suffix on histograms (`_ns`): per-iteration
//! `poseidon_step_time_ns` / `poseidon_busy_time_ns` / `poseidon_apply_ns`
//! `{worker}`, per-layer `poseidon_sync_wait_ns` `{worker,layer}`,
//! `poseidon_wfbp_drained_frames_total` `{worker}` (frames a worker handled
//! between the layers of backward rather than after it), shard
//! `poseidon_serve_ns` `{shard}`; transport `poseidon_{tx,rx}_{frames,
//! bytes}_total` `{endpoint,peer}`, `poseidon_tx_queue_peak` high-water,
//! `poseidon_writev_batch_frames`, `poseidon_reconnects_total` and
//! `poseidon_redials_total`; reliability `poseidon_retransmits_total`,
//! `poseidon_nacks_total`, `poseidon_dup_drops_total`; codec
//! `poseidon_codec_bytes_pre_total` / `poseidon_codec_bytes_post_total`
//! `{codec}` and `poseidon_poisoned_frames_total`; pool
//! `poseidon_pool_{hits,misses}_total` and `poseidon_pool_resident_bytes`
//! (bridged from [`crate::pool::BufPool::stats`] at snapshot time).
//!
//! The simulator replays its virtual-clock trace into the same families
//! ([`metrics_from_trace`]), so netsim runs and real runs are diffable.

pub mod expose;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of log2 buckets; covers the whole `u64` range.
pub const HIST_BUCKETS: usize = 64;

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Turns the gated record path on or off. Metrics are **on by default**
/// (they are the live-introspection plane); disabling exists for overhead
/// measurement and the determinism proof, not for production use.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether gated record calls do anything. One relaxed load.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Bucket index of a value: its bit width, clamped to the last bucket.
#[inline]
fn bucket_of(v: u64) -> usize {
    ((u64::BITS - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` = the +Inf bucket).
pub fn bucket_le(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= HIST_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

// ---------------------------------------------------------------------------
// Instruments
// ---------------------------------------------------------------------------

/// A monotonically increasing counter. Clones share the underlying cell, so
/// a handle resolved once (per link, per worker) records with one relaxed
/// RMW and no registry traffic.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A free-standing counter not attached to any registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `by` (gated on [`is_enabled`]).
    #[inline]
    pub fn add(&self, by: u64) {
        if is_enabled() {
            self.0.fetch_add(by, Ordering::Relaxed);
        }
    }

    /// Adds 1 (gated on [`is_enabled`]).
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Replaces the value unconditionally. Bridges (pool stats, trace
    /// replay) use this; instrumented code paths use [`Counter::add`].
    pub fn store(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable level. Clones share the underlying cell.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A free-standing gauge not attached to any registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the level (gated on [`is_enabled`]).
    #[inline]
    pub fn set(&self, v: u64) {
        if is_enabled() {
            self.0.store(v, Ordering::Relaxed);
        }
    }

    /// Raises the level to at least `v` — a high-water mark (gated).
    #[inline]
    pub fn set_max(&self, v: u64) {
        if is_enabled() {
            self.0.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Sets the level unconditionally (bridge/replay use).
    pub fn store(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCore {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
    /// `u64::MAX` until the first record.
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// A log2-bucketed histogram (see the module docs for the bucket scheme).
/// Clones share the underlying cells; recording is five relaxed RMWs.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// A free-standing histogram not attached to any registry (the worker
    /// keeps private per-run ones for the health verdict).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `v` (gated on [`is_enabled`]).
    #[inline]
    pub fn record(&self, v: u64) {
        if is_enabled() {
            self.observe(v);
        }
    }

    /// Records `v` unconditionally (trace replay and per-run private
    /// histograms, which must not flicker with the global gate).
    #[inline]
    pub fn observe(&self, v: u64) {
        let c = &self.0;
        c.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        c.sum.fetch_add(v, Ordering::Relaxed);
        c.count.fetch_add(1, Ordering::Relaxed);
        c.min.fetch_min(v, Ordering::Relaxed);
        c.max.fetch_max(v, Ordering::Relaxed);
    }

    /// A point-in-time copy of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let c = &self.0;
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| c.buckets[i].load(Ordering::Relaxed)),
            sum: c.sum.load(Ordering::Relaxed),
            count: c.count.load(Ordering::Relaxed),
            min: c.min.load(Ordering::Relaxed),
            max: c.max.load(Ordering::Relaxed),
        }
    }
}

/// An immutable copy of a [`Histogram`]'s state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts (bucket `i` holds values of bit width `i`).
    pub buckets: [u64; HIST_BUCKETS],
    /// Sum of recorded values.
    pub sum: u64,
    /// Number of recorded values.
    pub count: u64,
    /// Smallest recorded value (`u64::MAX` when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// An empty distribution.
    pub fn empty() -> Self {
        Self {
            buckets: [0; HIST_BUCKETS],
            sum: 0,
            count: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) estimated from the bucket counts:
    /// the upper bound of the first bucket whose cumulative count reaches
    /// `q * count`, clamped to the recorded `[min, max]` so the estimate
    /// never leaves the observed range. Returns 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= target {
                return bucket_le(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Mean of recorded values (0 on empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The distribution recorded *since* `earlier` was taken from the same
    /// histogram: per-bucket and sum/count subtraction. The global registry
    /// is cumulative across runs in one process, so per-run views are
    /// deltas. `min`/`max` keep this snapshot's bounds (a superset of the
    /// delta's range — still valid clamps for [`quantile`]).
    ///
    /// [`quantile`]: HistogramSnapshot::quantile
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].saturating_sub(earlier.buckets[i])),
            sum: self.sum.saturating_sub(earlier.sum),
            count: self.count.saturating_sub(earlier.count),
            min: self.min,
            max: self.max,
        }
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// A metric's instrument kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic counter.
    Counter,
    /// Settable level.
    Gauge,
    /// Log2-bucketed distribution.
    Histogram,
}

#[derive(Clone, Debug)]
enum Slot {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

type Labels = Vec<(&'static str, String)>;

/// A set of named, labelled instruments. Handle resolution takes the one
/// mutex; the handles themselves record lock-free. Keys are sorted
/// (`BTreeMap`), so exposition order is deterministic — the golden test
/// depends on it.
#[derive(Default)]
pub struct Registry {
    slots: Mutex<BTreeMap<(&'static str, Labels), Slot>>,
}

fn own_labels(labels: &[(&'static str, &str)]) -> Labels {
    labels.iter().map(|&(k, v)| (k, v.to_string())).collect()
}

impl Registry {
    /// An empty registry (tests and the trace-replay bridge; live code uses
    /// [`global`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolves (creating on first use) the counter `name{labels}`.
    ///
    /// # Panics
    ///
    /// Panics if the same name+labels was registered as another kind.
    pub fn counter(&self, name: &'static str, labels: &[(&'static str, &str)]) -> Counter {
        let mut slots = self.slots.lock().expect("metrics registry poisoned");
        let slot = slots
            .entry((name, own_labels(labels)))
            .or_insert_with(|| Slot::Counter(Counter::new()));
        match slot {
            Slot::Counter(c) => c.clone(),
            _ => panic!("metric {name} already registered as a different kind"),
        }
    }

    /// Resolves (creating on first use) the gauge `name{labels}`.
    ///
    /// # Panics
    ///
    /// Panics if the same name+labels was registered as another kind.
    pub fn gauge(&self, name: &'static str, labels: &[(&'static str, &str)]) -> Gauge {
        let mut slots = self.slots.lock().expect("metrics registry poisoned");
        let slot = slots
            .entry((name, own_labels(labels)))
            .or_insert_with(|| Slot::Gauge(Gauge::new()));
        match slot {
            Slot::Gauge(g) => g.clone(),
            _ => panic!("metric {name} already registered as a different kind"),
        }
    }

    /// Resolves (creating on first use) the histogram `name{labels}`.
    ///
    /// # Panics
    ///
    /// Panics if the same name+labels was registered as another kind.
    pub fn histogram(&self, name: &'static str, labels: &[(&'static str, &str)]) -> Histogram {
        let mut slots = self.slots.lock().expect("metrics registry poisoned");
        let slot = slots
            .entry((name, own_labels(labels)))
            .or_insert_with(|| Slot::Histogram(Histogram::new()));
        match slot {
            Slot::Histogram(h) => h.clone(),
            _ => panic!("metric {name} already registered as a different kind"),
        }
    }

    /// A point-in-time copy of every instrument, grouped into families by
    /// name (sorted; samples sorted by labels).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let slots = self.slots.lock().expect("metrics registry poisoned");
        let mut families: Vec<Family> = Vec::new();
        for ((name, labels), slot) in slots.iter() {
            let (kind, value) = match slot {
                Slot::Counter(c) => (MetricKind::Counter, SampleValue::Int(c.get())),
                Slot::Gauge(g) => (MetricKind::Gauge, SampleValue::Int(g.get())),
                Slot::Histogram(h) => (
                    MetricKind::Histogram,
                    SampleValue::Hist(Box::new(h.snapshot())),
                ),
            };
            let sample = Sample {
                labels: labels.clone(),
                value,
            };
            match families.last_mut() {
                Some(f) if f.name == *name => f.samples.push(sample),
                _ => families.push(Family {
                    name,
                    kind,
                    samples: vec![sample],
                }),
            }
        }
        MetricsSnapshot { families }
    }
}

/// One instrument's labelled value inside a family.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Label pairs, sorted as registered.
    pub labels: Labels,
    /// The recorded value.
    pub value: SampleValue,
}

/// A sample's value.
#[derive(Debug, Clone)]
pub enum SampleValue {
    /// Counter or gauge level.
    Int(u64),
    /// Histogram state (boxed: a snapshot is ~half a KiB of buckets).
    Hist(Box<HistogramSnapshot>),
}

/// All samples sharing one metric name.
#[derive(Debug, Clone)]
pub struct Family {
    /// Metric family name (`poseidon_...`).
    pub name: &'static str,
    /// Instrument kind of every sample.
    pub kind: MetricKind,
    /// Labelled samples, sorted by labels.
    pub samples: Vec<Sample>,
}

/// A registry snapshot: the in-process API the [`crate::health`] module and
/// the Prometheus responder both consume.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Families sorted by name.
    pub families: Vec<Family>,
}

fn labels_match(have: &Labels, want: &[(&str, &str)]) -> bool {
    have.len() == want.len()
        && want
            .iter()
            .all(|&(k, v)| have.iter().any(|(hk, hv)| *hk == k && hv == v))
}

impl MetricsSnapshot {
    /// The family named `name`, if present.
    pub fn family(&self, name: &str) -> Option<&Family> {
        self.families.iter().find(|f| f.name == name)
    }

    /// Counter/gauge value at `name{labels}` (exact label match).
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        self.family(name)?.samples.iter().find_map(|s| {
            match (&s.value, labels_match(&s.labels, labels)) {
                (SampleValue::Int(v), true) => Some(*v),
                _ => None,
            }
        })
    }

    /// Histogram at `name{labels}` (exact label match).
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramSnapshot> {
        self.family(name)?.samples.iter().find_map(|s| {
            match (&s.value, labels_match(&s.labels, labels)) {
                (SampleValue::Hist(h), true) => Some(h.as_ref()),
                _ => None,
            }
        })
    }

    /// Renders the snapshot in the Prometheus text exposition format.
    pub fn render(&self) -> String {
        expose::render(self)
    }
}

// ---------------------------------------------------------------------------
// Process-global registry + conveniences
// ---------------------------------------------------------------------------

/// The process-global registry every instrumented subsystem records into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// [`Registry::counter`] on the global registry.
pub fn counter(name: &'static str, labels: &[(&'static str, &str)]) -> Counter {
    global().counter(name, labels)
}

/// [`Registry::gauge`] on the global registry.
pub fn gauge(name: &'static str, labels: &[(&'static str, &str)]) -> Gauge {
    global().gauge(name, labels)
}

/// [`Registry::histogram`] on the global registry.
pub fn histogram(name: &'static str, labels: &[(&'static str, &str)]) -> Histogram {
    global().histogram(name, labels)
}

/// Snapshots the global registry, first bridging the buffer-pool counters
/// ([`crate::pool::BufPool::stats`]) into their families — the pool keeps
/// its own atomics, so mirroring at snapshot time costs the hot path
/// nothing.
pub fn snapshot() -> MetricsSnapshot {
    let ps = crate::pool::BufPool::global().stats();
    global()
        .counter("poseidon_pool_hits_total", &[])
        .store(ps.hits);
    global()
        .counter("poseidon_pool_misses_total", &[])
        .store(ps.misses);
    global()
        .gauge("poseidon_pool_resident_bufs", &[])
        .store(ps.resident);
    global()
        .gauge("poseidon_pool_resident_bytes", &[])
        .store(ps.resident_bytes);
    global().snapshot()
}

/// Cached per-peer frame/byte counters for one transport endpoint, resolved
/// once at connect time so the per-frame cost is two relaxed atomic adds and
/// never a registry lookup. Families:
/// `poseidon_{tx,rx}_{frames,bytes}_total{endpoint,peer}`.
#[derive(Debug)]
pub struct PeerCounters {
    /// `(frames, bytes)` per destination endpoint.
    tx: Vec<(Counter, Counter)>,
    /// `(frames, bytes)` per source endpoint.
    rx: Vec<(Counter, Counter)>,
}

impl PeerCounters {
    /// Resolves tx/rx counter handles for `endpoint` against all `peers`
    /// endpoints (including itself — loop-back frames are traffic too).
    pub fn new(endpoint: usize, peers: usize) -> Self {
        let ep = endpoint.to_string();
        let pair = |name: &'static str, peer: &str| -> Counter {
            counter(name, &[("endpoint", &ep), ("peer", peer)])
        };
        let mut tx = Vec::with_capacity(peers);
        let mut rx = Vec::with_capacity(peers);
        for p in 0..peers {
            let peer = p.to_string();
            tx.push((
                pair("poseidon_tx_frames_total", &peer),
                pair("poseidon_tx_bytes_total", &peer),
            ));
            rx.push((
                pair("poseidon_rx_frames_total", &peer),
                pair("poseidon_rx_bytes_total", &peer),
            ));
        }
        Self { tx, rx }
    }

    /// Notes one frame of `bytes` sent to `peer` (gated, two relaxed adds).
    #[inline]
    pub fn note_tx(&self, peer: usize, bytes: u64) {
        if let Some((frames, b)) = self.tx.get(peer) {
            frames.inc();
            b.add(bytes);
        }
    }

    /// Notes one frame of `bytes` received from `peer`.
    #[inline]
    pub fn note_rx(&self, peer: usize, bytes: u64) {
        if let Some((frames, b)) = self.rx.get(peer) {
            frames.inc();
            b.add(bytes);
        }
    }
}

// ---------------------------------------------------------------------------
// Trace replay: the simulator bridge
// ---------------------------------------------------------------------------

/// Replays recorded traces (live or simulated — the simulator emits the
/// same event schema on its virtual clock) into a fresh registry, producing
/// the same metric families a live run exposes: `iter` spans become
/// `poseidon_step_time_ns{worker}`, `wfbp.sync` spans become
/// `poseidon_sync_wait_ns{layer}`, `apply`/`serve.apply` spans become
/// `poseidon_apply_ns`/`poseidon_serve_ns`, and `tx.frame`/`rx.frame`
/// instants become the per-peer frame/byte counters. This is what makes a
/// netsim run diffable against a real mesh scrape.
pub fn metrics_from_trace(traces: &[crate::telemetry::Trace]) -> MetricsSnapshot {
    use crate::telemetry::EventKind;
    let reg = Registry::new();
    for trace in traces {
        for track in &trace.tracks {
            for (name, metric, label) in [
                ("iter", "poseidon_step_time_ns", "worker"),
                ("wfbp.sync", "poseidon_sync_wait_ns", "layer"),
                ("apply", "poseidon_apply_ns", "worker"),
                ("serve.apply", "poseidon_serve_ns", "layer"),
            ] {
                for iv in crate::telemetry::report::close_spans(track, name) {
                    reg.histogram(metric, &[(label, &iv.a.to_string())])
                        .observe(iv.end - iv.start);
                }
            }
            for ev in &track.events {
                if ev.kind != EventKind::Instant {
                    continue;
                }
                let (frames, bytes) = match ev.name {
                    "tx.frame" => ("poseidon_tx_frames_total", "poseidon_tx_bytes_total"),
                    "rx.frame" => ("poseidon_rx_frames_total", "poseidon_rx_bytes_total"),
                    _ => continue,
                };
                let peer = ev.a.to_string();
                let labels: [(&'static str, &str); 1] = [("peer", &peer)];
                let f = reg.counter(frames, &labels);
                f.store(f.get() + 1);
                let b = reg.counter(bytes, &labels);
                b.store(b.get() + ev.b);
            }
        }
    }
    reg.snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;

    // The enabled gate is process-global; tests that flip it or depend on
    // gated recording serialise on one lock so the in-binary thread pool
    // cannot interleave a disabled window into another test.
    fn gate_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn bucket_scheme_covers_u64() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
        assert_eq!(bucket_le(0), 0);
        assert_eq!(bucket_le(1), 1);
        assert_eq!(bucket_le(2), 3);
        assert_eq!(bucket_le(HIST_BUCKETS - 1), u64::MAX);
        // Every value's bucket upper bound is >= the value (except the
        // clamped +Inf bucket, which is trivially MAX).
        for shift in 0..63 {
            let v = 1u64 << shift;
            assert!(bucket_le(bucket_of(v)) >= v, "v={v}");
        }
    }

    #[test]
    fn histogram_quantiles_track_recorded_range() {
        let h = Histogram::new();
        for v in [10u64, 20, 30, 40, 1000] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1100);
        assert_eq!(s.min, 10);
        assert_eq!(s.max, 1000);
        let p50 = s.quantile(0.5);
        assert!((s.min..=s.max).contains(&p50), "p50={p50}");
        assert!(s.quantile(0.0) >= s.min);
        assert_eq!(s.quantile(1.0).max(s.max), s.max);
        assert!(s.quantile(0.99) <= s.max);
    }

    #[test]
    fn delta_subtracts_an_earlier_snapshot() {
        let h = Histogram::new();
        h.observe(5);
        h.observe(7);
        let early = h.snapshot();
        h.observe(100);
        h.observe(200);
        let late = h.snapshot();
        let d = late.delta(&early);
        assert_eq!(d.count, 2);
        assert_eq!(d.sum, 300);
        let p50 = d.quantile(0.5);
        assert!(p50 >= 64, "delta p50 {p50} should reflect only late values");
    }

    #[test]
    fn registry_hands_out_shared_handles() {
        let _g = gate_lock();
        let reg = Registry::new();
        let a = reg.counter("poseidon_test_total", &[("peer", "1")]);
        let b = reg.counter("poseidon_test_total", &[("peer", "1")]);
        a.store(0);
        a.add(2);
        b.add(3);
        assert_eq!(a.get(), 5, "clones share the cell");
        let snap = reg.snapshot();
        assert_eq!(snap.value("poseidon_test_total", &[("peer", "1")]), Some(5));
        assert_eq!(snap.value("poseidon_test_total", &[("peer", "2")]), None);
    }

    #[test]
    fn disabled_gate_freezes_gated_paths_only() {
        let _g = gate_lock();
        let c = Counter::new();
        let g = Gauge::new();
        let h = Histogram::new();
        set_enabled(false);
        c.inc();
        g.set(9);
        h.record(9);
        h.observe(3); // unconditional path still records
        set_enabled(true);
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0);
        assert_eq!(h.snapshot().count, 1);
        assert_eq!(h.snapshot().sum, 3);
    }

    #[test]
    fn trace_replay_produces_live_families() {
        use crate::telemetry::{Event, EventKind, Trace, Track};
        let ev = |ts_ns, kind, name, lane, a, b| Event {
            ts_ns,
            kind,
            name,
            lane,
            a,
            b,
        };
        let mut trace = Trace::new(0, "sim");
        trace.tracks.push(Track {
            tid: 1,
            name: "worker 0".into(),
            events: vec![
                ev(0, EventKind::Begin, "iter", 0, 0, 0),
                ev(50, EventKind::Begin, "wfbp.sync", 2, 1, 0),
                ev(350, EventKind::End, "wfbp.sync", 2, 1, 0),
                ev(400, EventKind::End, "iter", 0, 0, 0),
                ev(410, EventKind::Instant, "tx.frame", 0, 3, 64),
                ev(420, EventKind::Instant, "tx.frame", 0, 3, 64),
            ],
            dropped: 0,
        });
        let snap = metrics_from_trace(&[trace]);
        let step = snap
            .histogram("poseidon_step_time_ns", &[("worker", "0")])
            .expect("step family");
        assert_eq!(step.count, 1);
        assert_eq!(step.sum, 400);
        let sync = snap
            .histogram("poseidon_sync_wait_ns", &[("layer", "1")])
            .expect("sync family");
        assert_eq!(sync.sum, 300);
        assert_eq!(
            snap.value("poseidon_tx_bytes_total", &[("peer", "3")]),
            Some(128)
        );
        assert_eq!(
            snap.value("poseidon_tx_frames_total", &[("peer", "3")]),
            Some(2)
        );
    }
}
