//! The telemetry plane: structured tracing for the training runtime.
//!
//! Poseidon's argument is about *where time goes* — how much of each layer's
//! backward pass hides its own communication (WFBP), and how HybComm shrinks
//! bytes on the wire. This module records exactly that, with three design
//! constraints inherited from the training path:
//!
//! 1. **Zero dependencies.** `std` only; no tracing/serde crates.
//! 2. **Free when off.** Every record call starts with one relaxed atomic
//!    load and a branch; disabled, nothing else runs, no allocation, no
//!    clock read. Recording never touches the numerics, so training is
//!    bitwise identical with telemetry on or off (pinned by
//!    `crates/core/tests/telemetry_determinism.rs`).
//! 3. **Lock-free on the hot path.** Each thread appends events to its own
//!    thread-local buffer (bounded: past [`TelemetryConfig::capacity_per_thread`]
//!    events are counted as dropped, not recorded). The only lock is taken
//!    when a buffer is *flushed* into the global sink — at thread exit or at
//!    [`drain`] — never per event.
//!
//! # Event schema
//!
//! An [`Event`] is a fixed-size record: monotonic timestamp (ns since the
//! recorder epoch), a kind ([`EventKind`]), a `'static` name, a *lane*, and
//! two `u64` arguments. Lane 0 is the thread's own track; a non-zero lane
//! addresses a per-layer sub-track (lane = layer + 1), which is how
//! overlapping WFBP sync spans stay well-nested: compute spans (`fwd`,
//! `bwd`) live on the thread track while each layer's `wfbp.sync` span lives
//! on its own lane, so chrome://tracing renders the overlap as parallel
//! tracks. The simulator emits the *same* schema on its virtual clock
//! ([`crate::sim::simulate_with_trace`]), so simulated and real timelines are
//! directly comparable.
//!
//! Names in use: `iter`, `fwd`, `bwd` (both `(layer, iteration)`, the
//! iteration being what the thread last told [`set_iteration`]), `chunk`
//! (batch-parallel worker spans), `wfbp.sync`, `grad.ready`, `apply`,
//! `serve.apply`, `tx.frame`, `rx.frame`, `dial.retry`, `transport.timeout`,
//! `rx.queue`.
//!
//! # Exporters
//!
//! [`chrome::to_chrome_json`] writes Chrome `trace_event` JSON (open in
//! chrome://tracing or Perfetto); [`report::summarize`] renders a plain-text
//! per-layer compute/comm/overlap table and a per-peer byte table.

pub mod chrome;
mod json;
pub mod report;

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Recorder knobs, carried on
/// [`RuntimeConfig`](crate::runtime::RuntimeConfig).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Record events. Off by default; the training path is bitwise identical
    /// either way.
    pub enabled: bool,
    /// Per-thread event buffer bound; events past it are dropped (and
    /// counted in [`Track::dropped`]) rather than grown without limit.
    pub capacity_per_thread: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            capacity_per_thread: DEFAULT_CAPACITY,
        }
    }
}

impl TelemetryConfig {
    /// An enabled config with the default per-thread bound.
    pub fn enabled() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }
}

/// Default per-thread event bound (~24 MB/thread worst case).
pub const DEFAULT_CAPACITY: usize = 1 << 19;

/// What one event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opens on this track/lane.
    Begin,
    /// The innermost open span on this track/lane closes.
    End,
    /// A point-in-time marker.
    Instant,
    /// A sampled counter value (in [`Event::b`]).
    Counter,
}

/// One fixed-size telemetry record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Nanoseconds since the recorder epoch (monotonic clock; the simulator
    /// substitutes its virtual clock).
    pub ts_ns: u64,
    /// Span begin/end, instant, or counter sample.
    pub kind: EventKind,
    /// Event name (static so the hot path never allocates).
    pub name: &'static str,
    /// 0 = the thread's own track; `layer + 1` = that layer's sub-track.
    pub lane: u32,
    /// First argument (conventionally a layer or peer index).
    pub a: u64,
    /// Second argument (conventionally an iteration or byte count).
    pub b: u64,
}

/// One thread's (or one simulated resource's) recorded events, in order.
#[derive(Debug, Clone)]
pub struct Track {
    /// Stable per-process track id.
    pub tid: u64,
    /// Human-readable track label ("worker 0", "rx e2<-n1", ...).
    pub name: String,
    /// Events in recording order (timestamps non-decreasing).
    pub events: Vec<Event>,
    /// Events discarded because the buffer hit its bound.
    pub dropped: u64,
}

/// Everything one process recorded: its identity plus one [`Track`] per
/// thread that emitted events. Traces from several processes merge into one
/// Chrome trace ([`chrome::to_chrome_json`] takes a slice).
#[derive(Debug, Clone)]
pub struct Trace {
    /// Process id for the Chrome export (`poseidon-node` uses the endpoint
    /// id so every OS process gets its own track group).
    pub pid: u32,
    /// Process label shown in the trace viewer.
    pub process_name: String,
    /// One per recording thread, ordered by `tid`.
    pub tracks: Vec<Track>,
}

impl Trace {
    /// An empty trace for a process, to be filled programmatically (the
    /// simulator does this; live runs use [`drain`]).
    pub fn new(pid: u32, process_name: impl Into<String>) -> Self {
        Self {
            pid,
            process_name: process_name.into(),
            tracks: Vec::new(),
        }
    }

    /// Total recorded events across all tracks.
    pub fn event_count(&self) -> usize {
        self.tracks.iter().map(|t| t.events.len()).sum()
    }
}

// ---------------------------------------------------------------------------
// Global recorder state.
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_CAPACITY);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();

fn sink() -> &'static Mutex<Vec<Track>> {
    static SINK: OnceLock<Mutex<Vec<Track>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(Vec::new()))
}

fn process() -> &'static Mutex<(u32, String)> {
    static PROCESS: OnceLock<Mutex<(u32, String)>> = OnceLock::new();
    PROCESS.get_or_init(|| Mutex::new((0, String::from("poseidon"))))
}

struct ThreadBuf {
    tid: u64,
    name: String,
    events: Vec<Event>,
    dropped: u64,
}

/// Thread-local wrapper whose `Drop` (run at thread exit) flushes the
/// buffer into the global sink, so short-lived compute threads lose nothing.
struct Registration(RefCell<Option<ThreadBuf>>);

impl Drop for Registration {
    fn drop(&mut self) {
        if let Some(buf) = self.0.borrow_mut().take() {
            flush_buf(buf);
        }
    }
}

thread_local! {
    static TL: Registration = const { Registration(RefCell::new(None)) };
}

fn flush_buf(buf: ThreadBuf) {
    if buf.events.is_empty() && buf.dropped == 0 {
        return;
    }
    let track = Track {
        tid: buf.tid,
        name: buf.name,
        events: buf.events,
        dropped: buf.dropped,
    };
    sink().lock().unwrap().push(track);
}

fn with_buf(f: impl FnOnce(&mut ThreadBuf)) {
    // `try_with` so an event fired during TLS teardown is dropped, not a
    // panic.
    let _ = TL.try_with(|reg| {
        let mut slot = reg.0.borrow_mut();
        let buf = slot.get_or_insert_with(|| {
            let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            let name = std::thread::current()
                .name()
                .map(str::to_owned)
                .unwrap_or_else(|| format!("thread {tid}"));
            ThreadBuf {
                tid,
                name,
                events: Vec::new(),
                dropped: 0,
            }
        });
        f(buf);
    });
}

/// Nanoseconds since the recorder epoch (first use in this process).
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Applies `cfg`: sets the per-thread bound and turns recording on or off.
pub fn configure(cfg: &TelemetryConfig) {
    CAPACITY.store(cfg.capacity_per_thread.max(1), Ordering::Relaxed);
    if cfg.enabled {
        enable();
    } else {
        disable();
    }
}

/// Starts recording. Installs the [`poseidon_nn::probe`] hook so per-layer
/// forward/backward and batch-worker spans flow into the same recorder.
pub fn enable() {
    poseidon_nn::probe::install(nn_probe);
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Stops recording. Events already buffered stay until [`drain`].
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Whether the recorder is on. The hot-path check every record call makes.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Labels this process's trace (pid + name) for the Chrome export.
pub fn set_process(pid: u32, name: impl Into<String>) {
    *process().lock().unwrap() = (pid, name.into());
}

/// Labels the *current thread's* track ("worker 0", "shard 3", ...). A
/// no-op when disabled.
pub fn set_thread_track(name: impl Into<String>) {
    if !is_enabled() {
        return;
    }
    let name = name.into();
    with_buf(|buf| buf.name = name);
}

#[inline]
fn record(kind: EventKind, name: &'static str, lane: u32, a: u64, b: u64) {
    if !is_enabled() {
        return;
    }
    let ts_ns = now_ns();
    let cap = CAPACITY.load(Ordering::Relaxed);
    with_buf(|buf| {
        if buf.events.len() >= cap {
            buf.dropped += 1;
        } else {
            buf.events.push(Event {
                ts_ns,
                kind,
                name,
                lane,
                a,
                b,
            });
        }
    });
}

/// Opens a span on the current thread's track.
#[inline]
pub fn span_begin(name: &'static str, a: u64, b: u64) {
    record(EventKind::Begin, name, 0, a, b);
}

/// Closes the innermost span on the current thread's track.
#[inline]
pub fn span_end(name: &'static str, a: u64, b: u64) {
    record(EventKind::End, name, 0, a, b);
}

/// Opens a span on per-layer lane `layer + 1` (overlap-safe: lanes render
/// as separate tracks, so WFBP sync spans for different layers may overlap).
#[inline]
pub fn span_begin_lane(name: &'static str, layer: u32, a: u64, b: u64) {
    record(EventKind::Begin, name, layer + 1, a, b);
}

/// Closes the innermost span on lane `layer + 1`.
#[inline]
pub fn span_end_lane(name: &'static str, layer: u32, a: u64, b: u64) {
    record(EventKind::End, name, layer + 1, a, b);
}

/// A point-in-time marker on the current thread's track.
#[inline]
pub fn instant(name: &'static str, a: u64, b: u64) {
    record(EventKind::Instant, name, 0, a, b);
}

/// A counter sample: `value` at now, keyed by `name` (and `series` when a
/// name has several parallel series, e.g. one queue per peer).
#[inline]
pub fn counter(name: &'static str, series: u64, value: u64) {
    record(EventKind::Counter, name, 0, series, value);
}

/// RAII span on the thread track: begin now, end on drop.
pub struct Span {
    name: &'static str,
    a: u64,
    b: u64,
    armed: bool,
}

/// Opens a scope-bound span; the matching end is emitted when the returned
/// guard drops.
#[inline]
pub fn span(name: &'static str, a: u64, b: u64) -> Span {
    let armed = is_enabled();
    if armed {
        span_begin(name, a, b);
    }
    Span { name, a, b, armed }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.armed {
            span_end(self.name, self.a, self.b);
        }
    }
}

/// Moves the current thread's buffered events into the global sink without
/// waiting for thread exit. The main thread calls this before [`drain`].
pub fn flush_thread() {
    let _ = TL.try_with(|reg| {
        if let Some(buf) = reg.0.borrow_mut().take() {
            flush_buf(buf);
        }
    });
}

/// Collects everything recorded so far into a [`Trace`] and resets the
/// sink. Flushes the calling thread first; other *live* threads must have
/// flushed (worker/server threads are joined before the runtime drains, and
/// thread exit flushes automatically).
pub fn drain() -> Trace {
    flush_thread();
    let mut tracks: Vec<Track> = std::mem::take(&mut *sink().lock().unwrap());
    tracks.sort_by_key(|t| t.tid);
    let (pid, process_name) = process().lock().unwrap().clone();
    Trace {
        pid,
        process_name,
        tracks,
    }
}

thread_local! {
    /// The training iteration the current thread is in ([`set_iteration`]).
    static ITERATION: Cell<u64> = const { Cell::new(0) };
}

/// Publishes the iteration the calling thread is working on: the
/// [`poseidon_nn::probe`] hook runs below the training loop and cannot be
/// told, so it stamps the `fwd`/`bwd` spans it records with what was last
/// published here. One thread-local store, whether recording or not.
pub fn set_iteration(iter: u64) {
    ITERATION.with(|i| i.set(iter));
}

/// The [`poseidon_nn::probe`] hook: maps nn probe events onto recorder
/// spans. Installed once by [`enable`].
fn nn_probe(ev: poseidon_nn::probe::ProbeEvent) {
    use poseidon_nn::probe::ProbeEvent as P;
    let iter = ITERATION.with(Cell::get);
    match ev {
        P::ForwardBegin { layer } => span_begin("fwd", layer as u64, iter),
        P::ForwardEnd { layer } => span_end("fwd", layer as u64, iter),
        P::BackwardBegin { layer } => span_begin("bwd", layer as u64, iter),
        P::BackwardEnd { layer } => span_end("bwd", layer as u64, iter),
        P::ChunkBegin { lo, hi } => span_begin("chunk", lo as u64, hi as u64),
        P::ChunkEnd { lo, hi } => span_end("chunk", lo as u64, hi as u64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Telemetry state is process-global; unit tests here serialise on one
    // lock so `cargo test`'s thread pool cannot interleave enable/drain.
    fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let _g = test_lock();
        disable();
        let _ = drain();
        span_begin("fwd", 0, 0);
        span_end("fwd", 0, 0);
        instant("x", 1, 2);
        let trace = drain();
        assert_eq!(trace.event_count(), 0);
    }

    #[test]
    fn spans_and_counters_round_trip_through_drain() {
        let _g = test_lock();
        configure(&TelemetryConfig::enabled());
        let _ = drain();
        set_thread_track("unit-test");
        span_begin("iter", 0, 7);
        {
            let _s = span("fwd", 3, 7);
            counter("rx.queue", 1, 5);
        }
        span_begin_lane("wfbp.sync", 2, 2, 7);
        span_end_lane("wfbp.sync", 2, 2, 7);
        span_end("iter", 0, 7);
        disable();
        let trace = drain();
        let track = trace
            .tracks
            .iter()
            .find(|t| t.name == "unit-test")
            .expect("track");
        let kinds: Vec<EventKind> = track.events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::Begin,
                EventKind::Begin,
                EventKind::Counter,
                EventKind::End,
                EventKind::Begin,
                EventKind::End,
                EventKind::End,
            ]
        );
        assert!(track.events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        let sync = &track.events[4];
        assert_eq!(sync.lane, 3); // layer 2 → lane 3
        assert_eq!(track.dropped, 0);
    }

    #[test]
    fn buffer_bound_counts_drops_instead_of_growing() {
        let _g = test_lock();
        configure(&TelemetryConfig {
            enabled: true,
            capacity_per_thread: 4,
        });
        let _ = drain();
        for i in 0..10 {
            instant("x", i, 0);
        }
        disable();
        CAPACITY.store(DEFAULT_CAPACITY, Ordering::Relaxed);
        let trace = drain();
        let track = trace.tracks.iter().find(|t| !t.events.is_empty()).unwrap();
        assert_eq!(track.events.len(), 4);
        assert_eq!(track.dropped, 6);
    }

    #[test]
    fn spawned_threads_flush_on_exit() {
        let _g = test_lock();
        configure(&TelemetryConfig::enabled());
        let _ = drain();
        std::thread::spawn(|| {
            set_thread_track("spawned");
            instant("hello", 0, 0);
        })
        .join()
        .unwrap();
        disable();
        let trace = drain();
        assert!(trace.tracks.iter().any(|t| t.name == "spawned"));
    }
}
