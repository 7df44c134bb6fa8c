//! The step-time ledger: what the existing telemetry recorder captured
//! during one traced run, folded into one row per NN layer (forward,
//! backward, WFBP sync window, apply) plus the per-step figures the
//! `runtime.*` traced metrics report. No span here is new to the program;
//! the harness only adds `setup`/`connect`/`train`/`verify` around its own
//! calls.

use crate::json::Json;
use crate::stats::{median, tail_percentile};
use poseidon::telemetry::{EventKind, Trace, Track};
use std::collections::HashMap;

/// One closed span of a track.
struct Closed {
    name: &'static str,
    a: u64,
    b: u64,
    start_ns: u64,
    end_ns: u64,
}

impl Closed {
    fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Pairs every `End` with the latest open `Begin` of the same lane, name and
/// arguments, keeping the spans that lie wholly inside `window`.
fn closed_spans(track: &Track, window: (u64, u64)) -> Vec<Closed> {
    let mut open: HashMap<(u32, &'static str, u64, u64), Vec<u64>> = HashMap::new();
    let mut out = Vec::new();
    for ev in &track.events {
        let key = (ev.lane, ev.name, ev.a, ev.b);
        match ev.kind {
            EventKind::Begin => open.entry(key).or_default().push(ev.ts_ns),
            EventKind::End => {
                if let Some(start_ns) = open.get_mut(&key).and_then(Vec::pop) {
                    if start_ns >= window.0 && ev.ts_ns <= window.1 {
                        out.push(Closed {
                            name: ev.name,
                            a: ev.a,
                            b: ev.b,
                            start_ns,
                            end_ns: ev.ts_ns,
                        });
                    }
                }
            }
            EventKind::Instant | EventKind::Counter => {}
        }
    }
    out
}

/// What the ledger knows about a layer besides its spans.
pub struct LayerMeta {
    pub name: String,
    /// `(scheme, codec)` of a trainable layer.
    pub sync: Option<(String, String)>,
}

/// Per-step figures of the traced run, over every worker and step.
pub struct StepFigures {
    pub steps: usize,
    pub step_ms_p50: f64,
    /// The highest percentile with at least ten samples beyond it, and the
    /// step time there.
    pub tail_pct: f64,
    pub step_ms_tail: f64,
    /// Median over steps of the longest per-layer WFBP window of the step.
    pub sync_window_ms: f64,
    /// Median over steps of the summed `apply` spans of the step.
    pub apply_ms: f64,
}

/// Folds the spans recorded inside `window` (recorder nanoseconds) into the
/// ledger document and the per-step figures. `None` when the trace holds no
/// training step in the window.
pub fn build(
    workload: &str,
    trace: &Trace,
    window: (u64, u64),
    layers: &[LayerMeta],
) -> Option<(Json, StepFigures)> {
    // layer → durations of [fwd, bwd, wfbp.sync, apply].
    let mut per_layer: Vec<[Vec<f64>; 4]> = layers.iter().map(|_| Default::default()).collect();
    let mut step_ms = Vec::new();
    let mut longest_sync: HashMap<(u64, u64), f64> = HashMap::new();
    let mut apply_sum: HashMap<(u64, u64), f64> = HashMap::new();
    for track in &trace.tracks {
        for span in closed_spans(track, window) {
            let column = match span.name {
                "iter" => {
                    step_ms.push(span.ms());
                    continue;
                }
                "fwd" => 0,
                "bwd" => 1,
                "wfbp.sync" => 2,
                "apply" => 3,
                _ => continue,
            };
            let Some(row) = per_layer.get_mut(span.a as usize) else {
                continue;
            };
            row[column].push(span.ms());
            // Worker tracks are distinct tids; `b` is the iteration.
            let step = (track.tid, span.b);
            match column {
                2 => {
                    let longest = longest_sync.entry(step).or_insert(0.0);
                    *longest = longest.max(span.ms());
                }
                3 => *apply_sum.entry(step).or_insert(0.0) += span.ms(),
                _ => {}
            }
        }
    }
    if step_ms.is_empty() {
        return None;
    }
    let med = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    let (tail_pct, step_ms_tail) = tail_percentile(&step_ms);
    let figures = StepFigures {
        steps: step_ms.len(),
        step_ms_p50: median(&step_ms),
        tail_pct,
        step_ms_tail,
        sync_window_ms: med(&longest_sync.into_values().collect::<Vec<_>>()),
        apply_ms: med(&apply_sum.into_values().collect::<Vec<_>>()),
    };
    let rows = layers
        .iter()
        .zip(&per_layer)
        .enumerate()
        .map(|(l, (meta, cols))| {
            let (scheme, codec) = match &meta.sync {
                Some((s, c)) => (Json::str(s), Json::str(c)),
                None => (Json::Null, Json::Null),
            };
            Json::obj([
                ("layer", Json::Num(l as f64)),
                ("name", Json::str(&meta.name)),
                ("scheme", scheme),
                ("codec", codec),
                ("forward_ms", Json::Num(med(&cols[0]))),
                ("backward_ms", Json::Num(med(&cols[1]))),
                ("sync_window_ms", Json::Num(med(&cols[2]))),
                ("apply_ms", Json::Num(med(&cols[3]))),
                ("samples", Json::Num(cols[0].len() as f64)),
            ])
        })
        .collect();
    let doc = Json::obj([
        ("workload", Json::str(workload)),
        (
            "how_to_read",
            Json::str(
                "medians over every worker and step of the traced run, ms; sync_window is \
                 grad-ready to applied (WFBP window, overlaps backward of the layers below)",
            ),
        ),
        ("steps", Json::Num(figures.steps as f64)),
        ("step_ms_p50", Json::Num(figures.step_ms_p50)),
        ("step_ms_tail", Json::Num(figures.step_ms_tail)),
        ("tail_percentile", Json::Num(figures.tail_pct)),
        ("sync_window_ms", Json::Num(figures.sync_window_ms)),
        ("apply_ms", Json::Num(figures.apply_ms)),
        ("rows", Json::Arr(rows)),
    ]);
    Some((doc, figures))
}

#[cfg(test)]
mod tests {
    use super::*;
    use poseidon::telemetry::Event;

    fn ev(ts_ns: u64, kind: EventKind, name: &'static str, lane: u32, a: u64, b: u64) -> Event {
        Event {
            ts_ns,
            kind,
            name,
            lane,
            a,
            b,
        }
    }

    /// One worker, two steps of a one-layer model; the second step's sync
    /// window is longer. A span outside the window must be ignored.
    fn trace() -> Trace {
        use EventKind::{Begin, End};
        let ms = 1_000_000;
        let mut events = vec![
            ev(0, Begin, "iter", 0, 0, 99),
            ev(ms, End, "iter", 0, 0, 99),
        ];
        for (step, sync_ms) in [(0u64, 3u64), (1, 5)] {
            let t0 = (10 + 20 * step) * ms;
            events.extend([
                ev(t0, Begin, "iter", 0, 0, step),
                ev(t0, Begin, "fwd", 0, 0, 0),
                ev(t0 + 2 * ms, End, "fwd", 0, 0, 0),
                ev(t0 + 2 * ms, Begin, "bwd", 0, 0, 0),
                ev(t0 + 6 * ms, End, "bwd", 0, 0, 0),
                ev(t0 + 6 * ms, Begin, "wfbp.sync", 1, 0, step),
                ev(t0 + (5 + sync_ms) * ms, Begin, "apply", 0, 0, step),
                ev(t0 + (6 + sync_ms) * ms, End, "apply", 0, 0, step),
                ev(t0 + (6 + sync_ms) * ms, End, "wfbp.sync", 1, 0, step),
                ev(t0 + 12 * ms, End, "iter", 0, 0, step),
            ]);
        }
        let mut trace = Trace::new(0, "test");
        trace.tracks.push(Track {
            tid: 1,
            name: "worker 0".into(),
            events,
            dropped: 0,
        });
        trace
    }

    #[test]
    fn folds_spans_inside_the_window_into_rows_and_step_figures() {
        let layers = [LayerMeta {
            name: "fc1".into(),
            sync: Some(("PS".into(), "identity".into())),
        }];
        let window = (5_000_000, 100_000_000);
        let (doc, fig) = build("w", &trace(), window, &layers).expect("steps recorded");
        assert_eq!(fig.steps, 2, "the span before the window is not a step");
        assert_eq!(fig.step_ms_p50, 12.0);
        assert_eq!(
            fig.sync_window_ms, 4.0,
            "median of the 3 ms and 5 ms windows"
        );
        assert_eq!(fig.apply_ms, 1.0);
        let row = &doc.get("rows").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(row.get("forward_ms"), Some(&Json::Num(2.0)));
        assert_eq!(row.get("backward_ms"), Some(&Json::Num(4.0)));
        assert_eq!(row.get("sync_window_ms"), Some(&Json::Num(4.0)));
        assert_eq!(row.get("scheme"), Some(&Json::str("PS")));
        assert!(build("w", &trace(), (0, 1), &layers).is_none());
    }
}
