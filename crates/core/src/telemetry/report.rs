//! Plain-text summary reports over recorded traces.
//!
//! [`Report`] is a small section/table/notes document rendered through
//! [`crate::stats::render_table`] — the one table formatter in the repo —
//! so every binary (`overhead`, `poseidon-node`, the example) prints
//! breakdowns the same way. [`summarize`] derives the Poseidon-relevant
//! digest from a set of [`Trace`]s: per-layer compute vs communication
//! time with the fraction of communication hidden under compute (WFBP's
//! whole point), and per-peer frame/byte tables from the transport
//! counters.

use super::{EventKind, Trace};
use crate::stats::render_table;

/// One titled block: an optional table plus free-form notes.
#[derive(Debug, Clone, Default)]
pub struct Section {
    /// Section heading.
    pub title: String,
    /// Table header (empty = no table).
    pub header: Vec<String>,
    /// Table rows.
    pub rows: Vec<Vec<String>>,
    /// Lines printed after the table.
    pub notes: Vec<String>,
}

/// A multi-section plain-text report.
#[derive(Debug, Clone, Default)]
pub struct Report {
    sections: Vec<Section>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a table section.
    pub fn table(&mut self, title: &str, header: &[&str], rows: Vec<Vec<String>>) -> &mut Self {
        self.sections.push(Section {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows,
            notes: Vec::new(),
        });
        self
    }

    /// Appends a note line to the most recent section (or a bare section
    /// when the report is empty).
    pub fn note(&mut self, text: impl Into<String>) -> &mut Self {
        if self.sections.is_empty() {
            self.sections.push(Section::default());
        }
        self.sections.last_mut().unwrap().notes.push(text.into());
        self
    }

    /// Renders every section.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.sections.iter().enumerate() {
            if i > 0 {
                out.push('\n');
            }
            if !s.title.is_empty() {
                out.push_str(&format!("== {} ==\n", s.title));
            }
            if !s.header.is_empty() {
                out.push_str(&render_table(&s.header, &s.rows));
            }
            for n in &s.notes {
                out.push_str(n);
                out.push('\n');
            }
        }
        out
    }
}

/// A closed span interval recovered from a track.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Interval {
    pub(crate) start: u64,
    pub(crate) end: u64,
    pub(crate) a: u64,
}

/// Pairs begin/end events per lane (a per-lane stack, innermost-first).
pub(crate) fn close_spans(track: &super::Track, want: &str) -> Vec<Interval> {
    let mut stacks: Vec<(u32, Vec<(u64, u64)>)> = Vec::new();
    let mut out = Vec::new();
    for ev in &track.events {
        if ev.name != want {
            continue;
        }
        let stack = match stacks.iter_mut().find(|(l, _)| *l == ev.lane) {
            Some((_, s)) => s,
            None => {
                stacks.push((ev.lane, Vec::new()));
                &mut stacks.last_mut().unwrap().1
            }
        };
        match ev.kind {
            EventKind::Begin => stack.push((ev.ts_ns, ev.a)),
            EventKind::End => {
                if let Some((start, a)) = stack.pop() {
                    out.push(Interval {
                        start,
                        end: ev.ts_ns,
                        a,
                    });
                }
            }
            _ => {}
        }
    }
    out
}

/// Merges intervals into a disjoint sorted union.
fn union(mut iv: Vec<Interval>) -> Vec<(u64, u64)> {
    iv.sort_by_key(|i| i.start);
    let mut out: Vec<(u64, u64)> = Vec::new();
    for i in iv {
        match out.last_mut() {
            Some((_, end)) if i.start <= *end => *end = (*end).max(i.end),
            _ => out.push((i.start, i.end)),
        }
    }
    out
}

/// Overlap between `[s, e)` and a disjoint sorted union.
fn overlap(s: u64, e: u64, u: &[(u64, u64)]) -> u64 {
    u.iter()
        .map(|&(us, ue)| ue.min(e).saturating_sub(us.max(s)))
        .sum()
}

fn ms(ns: u64) -> String {
    format!("{:.2}", ns as f64 / 1e6)
}

/// Builds the standard digest from recorded traces: per-layer compute vs
/// comm with hidden-comm percentage, per-peer frame/byte tables, and
/// transport health counters.
pub fn summarize(traces: &[Trace]) -> Report {
    // layer → (fwd, bwd, comm, hidden) in ns.
    let mut layers: Vec<(u64, [u64; 4])> = Vec::new();
    let mut bump = |layer: u64, idx: usize, v: u64| {
        let slot = match layers.iter_mut().find(|(l, _)| *l == layer) {
            Some((_, s)) => s,
            None => {
                layers.push((layer, [0; 4]));
                &mut layers.last_mut().unwrap().1
            }
        };
        slot[idx] += v;
    };
    // (process, peer) → [tx frames, tx bytes, rx frames, rx bytes].
    let mut peers: Vec<((String, u64), [u64; 4])> = Vec::new();
    let mut dial_retries = 0u64;
    let mut timeouts = 0u64;
    let mut max_queue = 0u64;
    // Chaos-plane counters: injected faults and the recovery work that
    // healed them (reliability-layer retransmits, socket reconnects).
    let mut faults = 0u64;
    let mut retransmits = 0u64;
    let mut reconnects = 0u64;
    let mut poisoned_frames = 0u64;

    for trace in traces {
        for track in &trace.tracks {
            let fwd = close_spans(track, "fwd");
            let bwd = close_spans(track, "bwd");
            let sync = close_spans(track, "wfbp.sync");
            let mut compute = fwd.clone();
            compute.extend_from_slice(&bwd);
            let compute_union = union(compute);
            for i in &fwd {
                bump(i.a, 0, i.end - i.start);
            }
            for i in &bwd {
                bump(i.a, 1, i.end - i.start);
            }
            for i in &sync {
                bump(i.a, 2, i.end - i.start);
                bump(i.a, 3, overlap(i.start, i.end, &compute_union));
            }
            for ev in &track.events {
                match (ev.kind, ev.name) {
                    (EventKind::Instant, "tx.frame") | (EventKind::Instant, "rx.frame") => {
                        let key = (trace.process_name.clone(), ev.a);
                        let slot = match peers.iter_mut().find(|(k, _)| *k == key) {
                            Some((_, s)) => s,
                            None => {
                                peers.push((key, [0; 4]));
                                &mut peers.last_mut().unwrap().1
                            }
                        };
                        let off = if ev.name == "tx.frame" { 0 } else { 2 };
                        slot[off] += 1;
                        slot[off + 1] += ev.b;
                    }
                    (EventKind::Instant, "dial.retry") => dial_retries += 1,
                    (EventKind::Instant, "transport.timeout") => timeouts += 1,
                    (EventKind::Instant, "retransmit") => retransmits += 1,
                    (EventKind::Instant, "reconnect")
                    | (EventKind::Instant, "reconnect.accept") => reconnects += 1,
                    (EventKind::Instant, "frame.poisoned") => poisoned_frames += 1,
                    (EventKind::Instant, name) if name.starts_with("fault.") => faults += 1,
                    (EventKind::Counter, "rx.queue") => max_queue = max_queue.max(ev.b),
                    _ => {}
                }
            }
        }
    }

    let mut report = Report::new();

    layers.sort_by_key(|(l, _)| *l);
    if !layers.is_empty() {
        let rows: Vec<Vec<String>> = layers
            .iter()
            .map(|(l, s)| {
                let hidden_pct = if s[2] == 0 {
                    "-".to_string()
                } else {
                    format!("{:.0}%", 100.0 * s[3] as f64 / s[2] as f64)
                };
                vec![
                    l.to_string(),
                    ms(s[0]),
                    ms(s[1]),
                    ms(s[2]),
                    ms(s[3]),
                    hidden_pct,
                ]
            })
            .collect();
        report.table(
            "per-layer compute vs communication (summed over threads/iterations)",
            &[
                "layer",
                "fwd ms",
                "bwd ms",
                "comm ms",
                "hidden ms",
                "hidden %",
            ],
            rows,
        );
        let comm: u64 = layers.iter().map(|(_, s)| s[2]).sum();
        let hidden: u64 = layers.iter().map(|(_, s)| s[3]).sum();
        if comm > 0 {
            report.note(format!(
                "total comm {} ms, {:.0}% hidden under compute (WFBP overlap)",
                ms(comm),
                100.0 * hidden as f64 / comm as f64
            ));
        }
    }

    peers.sort();
    if !peers.is_empty() {
        let rows: Vec<Vec<String>> = peers
            .iter()
            .map(|((proc_name, peer), s)| {
                vec![
                    proc_name.clone(),
                    peer.to_string(),
                    s[0].to_string(),
                    s[1].to_string(),
                    s[2].to_string(),
                    s[3].to_string(),
                ]
            })
            .collect();
        report.table(
            "per-peer transport traffic",
            &[
                "process",
                "peer",
                "tx frames",
                "tx bytes",
                "rx frames",
                "rx bytes",
            ],
            rows,
        );
    }

    if dial_retries + timeouts + max_queue > 0 {
        report.note(format!(
            "transport health: {dial_retries} dial retries, {timeouts} recv timeouts, peak reader queue depth {max_queue}"
        ));
    }
    if faults + retransmits + reconnects + poisoned_frames > 0 {
        report.note(format!(
            "chaos & recovery: {faults} injected faults, {retransmits} retransmits, \
             {reconnects} socket reconnects, {poisoned_frames} poisoned frames dropped"
        ));
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{Event, Track};

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

    #[test]
    fn summarize_computes_hidden_fraction() {
        let mut trace = Trace::new(0, "worker");
        trace.tracks.push(Track {
            tid: 1,
            name: "worker 0".into(),
            events: vec![
                // bwd of layer 0 runs 100..300; sync of layer 1 runs
                // 150..400 → 150 ns of its 250 ns hidden.
                ev(100, EventKind::Begin, "bwd", 0, 0, 0),
                ev(150, EventKind::Begin, "wfbp.sync", 2, 1, 0),
                ev(300, EventKind::End, "bwd", 0, 0, 0),
                ev(400, EventKind::End, "wfbp.sync", 2, 1, 0),
                ev(410, EventKind::Instant, "tx.frame", 0, 3, 64),
                ev(420, EventKind::Instant, "tx.frame", 0, 3, 64),
            ],
            dropped: 0,
        });
        let report = summarize(&[trace]);
        let text = report.render();
        assert!(text.contains("per-layer compute"), "{text}");
        assert!(text.contains("60%"), "{text}"); // 150/250 hidden
        assert!(text.contains("per-peer transport traffic"), "{text}");
        assert!(text.contains("128"), "{text}"); // 2 × 64 bytes to peer 3
    }

    #[test]
    fn summarize_counts_chaos_and_recovery_instants() {
        let mut trace = Trace::new(0, "worker");
        trace.tracks.push(Track {
            tid: 1,
            name: "worker 0".into(),
            events: vec![
                ev(10, EventKind::Instant, "fault.drop", 0, 2, 3),
                ev(20, EventKind::Instant, "fault.delay", 0, 2, 5),
                ev(30, EventKind::Instant, "retransmit", 0, 2, 3),
                ev(40, EventKind::Instant, "reconnect", 0, 2, 1),
                ev(50, EventKind::Instant, "reconnect.accept", 0, 0, 1),
                ev(70, EventKind::Instant, "frame.poisoned", 0, 0, 1),
            ],
            dropped: 0,
        });
        let text = summarize(&[trace]).render();
        assert!(
            text.contains(
                "chaos & recovery: 2 injected faults, 1 retransmits, \
                 2 socket reconnects, 1 poisoned frames dropped"
            ),
            "{text}"
        );
    }

    #[test]
    fn report_renders_sections_in_order() {
        let mut r = Report::new();
        r.table("first", &["a", "b"], vec![vec!["1".into(), "2".into()]]);
        r.note("a note");
        r.table("second", &["c"], vec![vec!["3".into()]]);
        let text = r.render();
        let first = text.find("first").unwrap();
        let note = text.find("a note").unwrap();
        let second = text.find("second").unwrap();
        assert!(first < note && note < second);
    }
}
