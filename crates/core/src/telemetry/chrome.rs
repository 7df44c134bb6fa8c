//! Chrome `trace_event` JSON export.
//!
//! The output is the JSON-array form of the trace-event format, loadable in
//! chrome://tracing or [Perfetto](https://ui.perfetto.dev). Each [`Trace`]
//! becomes one *process* (pid = endpoint id for `poseidon-node`, so a
//! multi-process run merges into one file with one track group per OS
//! process); each [`Track`](super::Track) becomes a thread track, and every
//! per-layer lane becomes its own sub-track — which is what makes WFBP
//! visible: the `bwd` spans sit on the worker's compute track while each
//! layer's `wfbp.sync` span sits on its own lane, overlapping the compute
//! below it.
//!
//! Timestamps are microseconds (`ts`), as the format requires; span events
//! use `ph:"B"`/`ph:"E"`, instants `ph:"i"`, counter samples `ph:"C"`, and
//! process/thread labels ride on `ph:"M"` metadata events.

use super::json::{self, Value};
use super::{Event, EventKind, Trace};

/// Lane → tid packing: a track's lane `l` renders as tid
/// `tid * LANE_STRIDE + l`, keeping a thread's lanes adjacent in the viewer.
const LANE_STRIDE: u64 = 4096;

fn arg_keys(name: &str) -> (&'static str, &'static str) {
    match name {
        "iter" => ("worker", "iter"),
        "fwd" | "bwd" | "wfbp.sync" | "grad.ready" | "apply" | "serve.apply" => ("layer", "iter"),
        "chunk" => ("lo", "hi"),
        "tx.frame" | "rx.frame" => ("peer", "bytes"),
        "dial.retry" => ("peer", "attempt"),
        "transport.timeout" => ("endpoint", "waited_ms"),
        "rx.queue" => ("peer", "depth"),
        _ => ("a", "b"),
    }
}

fn push_event(out: &mut String, ev: &Event, pid: u32, tid: u64) {
    let ts_us = ev.ts_ns as f64 / 1000.0;
    let (ka, kb) = arg_keys(ev.name);
    match ev.kind {
        EventKind::Begin | EventKind::End => {
            let ph = if ev.kind == EventKind::Begin {
                "B"
            } else {
                "E"
            };
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"{ph}\",\"ts\":{ts_us:.3},\"pid\":{pid},\"tid\":{tid},\"args\":{{\"{ka}\":{},\"{kb}\":{}}}}}",
                json::escape(ev.name),
                ev.a,
                ev.b
            ));
        }
        EventKind::Instant => {
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts_us:.3},\"pid\":{pid},\"tid\":{tid},\"args\":{{\"{ka}\":{},\"{kb}\":{}}}}}",
                json::escape(ev.name),
                ev.a,
                ev.b
            ));
        }
        EventKind::Counter => {
            // One counter track per (name, series); the sampled value is the
            // single arg, which chrome://tracing plots as a step graph.
            out.push_str(&format!(
                "{{\"name\":\"{} {}\",\"ph\":\"C\",\"ts\":{ts_us:.3},\"pid\":{pid},\"tid\":{tid},\"args\":{{\"{kb}\":{}}}}}",
                json::escape(ev.name),
                ev.a,
                ev.b
            ));
        }
    }
}

fn push_meta(out: &mut String, which: &str, name: &str, pid: u32, tid: u64) {
    out.push_str(&format!(
        "{{\"name\":\"{which}\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":\"{}\"}}}}",
        json::escape(name)
    ));
}

/// Serialises `traces` (one per process) as one Chrome trace-event JSON
/// array. Per-lane span events are routed onto synthetic per-lane tids so
/// overlapping WFBP sync spans never misnest on a thread track.
pub fn to_chrome_json(traces: &[Trace]) -> String {
    let mut parts: Vec<String> = Vec::new();
    for trace in traces {
        let mut out = String::new();
        push_meta(&mut out, "process_name", &trace.process_name, trace.pid, 0);
        parts.push(std::mem::take(&mut out));
        for track in &trace.tracks {
            let base = track.tid * LANE_STRIDE;
            push_meta(&mut out, "thread_name", &track.name, trace.pid, base);
            parts.push(std::mem::take(&mut out));
            // Label each lane sub-track after its first event.
            let mut lanes_seen: Vec<u32> = Vec::new();
            for ev in &track.events {
                if ev.lane != 0 && !lanes_seen.contains(&ev.lane) {
                    lanes_seen.push(ev.lane);
                    let label = format!("{} · {} L{}", track.name, ev.name, ev.lane - 1);
                    push_meta(
                        &mut out,
                        "thread_name",
                        &label,
                        trace.pid,
                        base + ev.lane as u64,
                    );
                    parts.push(std::mem::take(&mut out));
                }
            }
            for ev in &track.events {
                push_event(&mut out, ev, trace.pid, base + ev.lane as u64);
                parts.push(std::mem::take(&mut out));
            }
        }
    }
    format!("[\n{}\n]", parts.join(",\n"))
}

/// Merges several already-exported Chrome JSON arrays (one per process)
/// into one. Each part is parse-checked first, then merged textually so no
/// re-serialisation can perturb it.
pub fn merge_chrome_json(parts: &[String]) -> Result<String, String> {
    let mut inner: Vec<String> = Vec::new();
    for (i, part) in parts.iter().enumerate() {
        json::parse(part).map_err(|e| format!("trace part {i} does not parse: {e}"))?;
        let trimmed = part.trim();
        let body = trimmed
            .strip_prefix('[')
            .and_then(|s| s.strip_suffix(']'))
            .ok_or_else(|| format!("trace part {i} is not a JSON array"))?
            .trim();
        if !body.is_empty() {
            inner.push(body.to_string());
        }
    }
    Ok(format!("[\n{}\n]", inner.join(",\n")))
}

/// What [`validate`] measured about a trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStats {
    /// Total events (including metadata).
    pub events: usize,
    /// Completed B/E span pairs.
    pub spans: usize,
    /// Distinct (pid, tid) tracks carrying timed events.
    pub tracks: usize,
    /// Distinct process ids.
    pub pids: usize,
    /// `ph:"C"` counter samples.
    pub counters: usize,
}

/// Structurally validates an exported trace: well-formed JSON array; every
/// event carries `ph`/`pid`/`tid`; per (pid, tid) track, `B`/`E` events are
/// balanced with matching names and `ts` is monotonic non-decreasing;
/// `C` counter samples carry at least one numeric series in `args`.
pub fn validate(text: &str) -> Result<TraceStats, String> {
    let doc = json::parse(text)?;
    let events = doc.as_arr().ok_or("top level is not a JSON array")?;
    let mut stacks: Vec<((u64, u64), Vec<String>)> = Vec::new();
    let mut last_ts: Vec<((u64, u64), f64)> = Vec::new();
    let mut pids: Vec<u64> = Vec::new();
    let mut spans = 0usize;
    let mut counters = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i} missing ph"))?;
        let pid = ev
            .get("pid")
            .and_then(Value::as_num)
            .ok_or_else(|| format!("event {i} missing pid"))? as u64;
        let tid = ev
            .get("tid")
            .and_then(Value::as_num)
            .ok_or_else(|| format!("event {i} missing tid"))? as u64;
        if !pids.contains(&pid) {
            pids.push(pid);
        }
        if ph == "M" {
            continue;
        }
        let ts = ev
            .get("ts")
            .and_then(Value::as_num)
            .ok_or_else(|| format!("event {i} missing ts"))?;
        let key = (pid, tid);
        match last_ts.iter_mut().find(|(k, _)| *k == key) {
            Some((_, prev)) => {
                if ts < *prev {
                    return Err(format!(
                        "event {i}: ts {ts} goes backwards on track pid={pid} tid={tid} (prev {prev})"
                    ));
                }
                *prev = ts;
            }
            None => last_ts.push((key, ts)),
        }
        let name = ev
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i} missing name"))?;
        match ph {
            "B" => match stacks.iter_mut().find(|(k, _)| *k == key) {
                Some((_, stack)) => stack.push(name.to_string()),
                None => stacks.push((key, vec![name.to_string()])),
            },
            "E" => {
                let stack = stacks
                    .iter_mut()
                    .find(|(k, _)| *k == key)
                    .map(|(_, s)| s)
                    .ok_or_else(|| {
                        format!("event {i}: E with no open span on pid={pid} tid={tid}")
                    })?;
                let open = stack.pop().ok_or_else(|| {
                    format!("event {i}: E with no open span on pid={pid} tid={tid}")
                })?;
                if open != name {
                    return Err(format!(
                        "event {i}: E \"{name}\" closes open span \"{open}\" on pid={pid} tid={tid}"
                    ));
                }
                spans += 1;
            }
            "i" => {}
            "C" => {
                // A counter sample with no numeric series plots nothing in
                // the viewer — treat it as a malformed export.
                let has_series = matches!(
                    ev.get("args"),
                    Some(Value::Obj(fields))
                        if fields.iter().any(|(_, v)| matches!(v, Value::Num(_)))
                );
                if !has_series {
                    return Err(format!(
                        "event {i}: C counter \"{name}\" has no numeric series in args"
                    ));
                }
                counters += 1;
            }
            other => return Err(format!("event {i}: unknown ph {other:?}")),
        }
    }
    for ((pid, tid), stack) in &stacks {
        if let Some(open) = stack.last() {
            return Err(format!(
                "unbalanced trace: span \"{open}\" never closed on pid={pid} tid={tid}"
            ));
        }
    }
    Ok(TraceStats {
        events: events.len(),
        spans,
        tracks: last_ts.len(),
        pids: pids.len(),
        counters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::Track;

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

    fn sample_trace(pid: u32) -> Trace {
        let mut t = Trace::new(pid, format!("proc {pid}"));
        t.tracks.push(Track {
            tid: 1,
            name: "worker 0".into(),
            events: vec![
                ev(0, EventKind::Begin, "iter", 0, 0, 0),
                ev(100, EventKind::Begin, "bwd", 0, 2, 0),
                ev(150, EventKind::Begin, "wfbp.sync", 3, 2, 0),
                ev(200, EventKind::End, "bwd", 0, 2, 0),
                ev(210, EventKind::Instant, "tx.frame", 0, 1, 64),
                ev(220, EventKind::Counter, "rx.queue", 0, 1, 3),
                ev(400, EventKind::End, "wfbp.sync", 3, 2, 0),
                ev(500, EventKind::End, "iter", 0, 0, 0),
            ],
            dropped: 0,
        });
        t
    }

    #[test]
    fn export_is_valid_and_balanced() {
        let json_text = to_chrome_json(&[sample_trace(0)]);
        let stats = validate(&json_text).expect("valid trace");
        assert_eq!(stats.spans, 3);
        assert_eq!(stats.pids, 1);
        // iter/bwd on the base track, wfbp.sync on its lane track.
        assert_eq!(stats.tracks, 2);
        // The rx.queue sample renders as one ph:"C" counter event.
        assert_eq!(stats.counters, 1);
    }

    #[test]
    fn validate_rejects_counter_without_numeric_series() {
        let no_series = r#"[{"name":"q","ph":"C","ts":1,"pid":0,"tid":0,"args":{}}]"#;
        assert!(validate(no_series)
            .unwrap_err()
            .contains("no numeric series"));
        let non_numeric = r#"[{"name":"q","ph":"C","ts":1,"pid":0,"tid":0,"args":{"depth":"x"}}]"#;
        assert!(validate(non_numeric)
            .unwrap_err()
            .contains("no numeric series"));
        let ok = r#"[{"name":"q","ph":"C","ts":1,"pid":0,"tid":0,"args":{"depth":3}}]"#;
        assert_eq!(validate(ok).expect("valid counter").counters, 1);
    }

    #[test]
    fn lanes_get_their_own_tid_and_label() {
        let json_text = to_chrome_json(&[sample_trace(0)]);
        let doc = json::parse(&json_text).unwrap();
        let events = doc.as_arr().unwrap();
        let lane_meta = events
            .iter()
            .find(|e| {
                e.get("ph").and_then(Value::as_str) == Some("M")
                    && e.get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(Value::as_str)
                        .is_some_and(|n| n.contains("wfbp.sync L2"))
            })
            .expect("lane thread_name metadata");
        let lane_tid = lane_meta.get("tid").unwrap().as_num().unwrap() as u64;
        assert_eq!(lane_tid, LANE_STRIDE + 3);
    }

    #[test]
    fn merge_concatenates_processes() {
        let a = to_chrome_json(&[sample_trace(0)]);
        let b = to_chrome_json(&[sample_trace(1)]);
        let merged = merge_chrome_json(&[a, b]).unwrap();
        let stats = validate(&merged).unwrap();
        assert_eq!(stats.pids, 2);
        assert_eq!(stats.spans, 6);
    }

    #[test]
    fn validate_rejects_unbalanced_and_nonmonotonic() {
        let unbalanced = r#"[{"name":"x","ph":"B","ts":1,"pid":0,"tid":0,"args":{}}]"#;
        assert!(validate(unbalanced).unwrap_err().contains("never closed"));
        let backwards = r#"[
            {"name":"x","ph":"i","s":"t","ts":5,"pid":0,"tid":0,"args":{}},
            {"name":"y","ph":"i","s":"t","ts":4,"pid":0,"tid":0,"args":{}}
        ]"#;
        assert!(validate(backwards).unwrap_err().contains("backwards"));
        let crossed = r#"[
            {"name":"x","ph":"B","ts":1,"pid":0,"tid":0,"args":{}},
            {"name":"y","ph":"E","ts":2,"pid":0,"tid":0,"args":{}}
        ]"#;
        assert!(validate(crossed).unwrap_err().contains("closes open span"));
    }
}
