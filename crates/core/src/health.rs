//! Per-peer health verdicts derived from the metrics plane.
//!
//! Poseidon's evaluation is about *where time goes* (§5); this module is the
//! first consumer of the [`crate::metrics`] snapshot API that turns those
//! distributions into actionable verdicts: a **straggler detector** flagging
//! workers whose per-iteration busy time diverges from the mesh median by a
//! configurable factor.
//!
//! Why busy time and not sync wait: under BSP the straggler's *own* sync
//! wait is the smallest in the mesh — everyone else is waiting for it, so
//! the delayed worker finds its parameters nearly ready when it finally
//! asks. The tell is the p50 of the worker's busy span (forward + backward +
//! any injected delay), which is exactly what the runtime records into
//! `poseidon_busy_time_ns{worker}`. The detector compares each worker's
//! busy p50 against the mesh median and flags ratios above
//! a factor: [`DEFAULT_STRAGGLER_FACTOR`] in
//! [`train`](crate::runtime::train), the launcher's `--straggler-factor`
//! across OS processes. Those p50s are log2 bucket bounds
//! ([`HistogramSnapshot::quantile`](crate::metrics::HistogramSnapshot::quantile)),
//! so two healthy workers one bucket apart read ×2.00006: a worker is
//! flagged only when the *floor* of its p50's bucket exceeds the factor
//! times the median, that is, when its true ratio must exceed the factor.
//!
//! Surfaced in [`TrainResult::health`](crate::runtime::TrainResult) and
//! printed by the `poseidon-node` launcher (which reconstructs the same
//! verdict across OS processes from each child's reported busy p50).

use crate::metrics::MetricsSnapshot;

/// The factor [`train`](crate::runtime::train) judges its verdicts
/// against: a worker is a straggler when the floor of its busy-time p50's
/// log2 bucket exceeds the mesh median by this factor. To judge a report
/// at another factor, call [`detect`] again on its verdicts' p50s.
pub const DEFAULT_STRAGGLER_FACTOR: f64 = 2.0;

/// One worker's verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct PeerVerdict {
    /// Worker index.
    pub worker: usize,
    /// This worker's per-iteration busy-time p50 (ns).
    pub busy_p50_ns: u64,
    /// Ratio of this worker's p50 to the mesh median.
    pub ratio: f64,
    /// Whether the floor of the p50's bucket exceeded the factor times the
    /// median.
    pub straggler: bool,
}

/// The mesh-wide health verdict.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HealthReport {
    /// One verdict per worker, sorted by worker index.
    pub verdicts: Vec<PeerVerdict>,
    /// The mesh median busy p50 the ratios are relative to (ns).
    pub median_busy_p50_ns: u64,
    /// The factor verdicts were judged against.
    pub straggler_factor: f64,
}

impl HealthReport {
    /// Workers flagged as stragglers.
    pub fn stragglers(&self) -> Vec<usize> {
        self.verdicts
            .iter()
            .filter(|v| v.straggler)
            .map(|v| v.worker)
            .collect()
    }

    /// One line per worker plus a mesh summary, launcher-printable.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for v in &self.verdicts {
            out.push_str(&format!(
                "health worker={} busy_p50={:.2}ms x{:.2}{}\n",
                v.worker,
                v.busy_p50_ns as f64 / 1e6,
                v.ratio,
                if v.straggler { " STRAGGLER" } else { "" }
            ));
        }
        let s = self.stragglers();
        if s.is_empty() {
            out.push_str("health=ok\n");
        } else {
            out.push_str(&format!(
                "health=straggler workers={}\n",
                s.iter().map(usize::to_string).collect::<Vec<_>>().join(",")
            ));
        }
        out
    }
}

/// Lower median of a non-empty slice (sorted copy, index `(n-1)/2`): robust
/// against a single inflated straggler at even worker counts — the upper
/// median at P=2 would *be* the straggler.
fn median(mut vals: Vec<u64>) -> u64 {
    vals.sort_unstable();
    vals[(vals.len() - 1) / 2]
}

/// The lower bound of `v`'s log2 histogram bucket: the least a p50 read
/// back as `v` can truly be.
fn bucket_floor(v: u64) -> u64 {
    v.checked_ilog2().map_or(0, |b| 1 << b)
}

/// Judges each `(worker, busy_p50_ns)` pair against the mesh median.
pub fn detect(busy_p50: &[(usize, u64)], factor: f64) -> HealthReport {
    if busy_p50.is_empty() {
        return HealthReport {
            verdicts: Vec::new(),
            median_busy_p50_ns: 0,
            straggler_factor: factor,
        };
    }
    let med = median(busy_p50.iter().map(|&(_, v)| v).collect());
    let mut verdicts: Vec<PeerVerdict> = busy_p50
        .iter()
        .map(|&(worker, p50)| {
            let ratio = if med == 0 {
                if p50 == 0 {
                    1.0
                } else {
                    f64::INFINITY
                }
            } else {
                p50 as f64 / med as f64
            };
            PeerVerdict {
                worker,
                busy_p50_ns: p50,
                ratio,
                straggler: bucket_floor(p50) as f64 > factor * med as f64,
            }
        })
        .collect();
    verdicts.sort_by_key(|v| v.worker);
    HealthReport {
        verdicts,
        median_busy_p50_ns: med,
        straggler_factor: factor,
    }
}

/// [`detect`] over a metrics snapshot: reads every
/// `poseidon_busy_time_ns{worker}` histogram's p50. This is the live-mesh
/// entry point — point it at a scraped-and-parsed snapshot or a local
/// [`crate::metrics::snapshot`].
pub fn from_snapshot(snap: &MetricsSnapshot, factor: f64) -> HealthReport {
    let mut busy: Vec<(usize, u64)> = Vec::new();
    if let Some(fam) = snap.family("poseidon_busy_time_ns") {
        for s in &fam.samples {
            let worker = s
                .labels
                .iter()
                .find(|(k, _)| *k == "worker")
                .and_then(|(_, v)| v.parse::<usize>().ok());
            if let (Some(w), crate::metrics::SampleValue::Hist(h)) = (worker, &s.value) {
                busy.push((w, h.quantile(0.5)));
            }
        }
    }
    detect(&busy, factor)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_only_the_delayed_worker() {
        let report = detect(&[(0, 1_000_000), (1, 5_000_000), (2, 1_100_000)], 2.0);
        assert_eq!(report.stragglers(), vec![1]);
        assert_eq!(report.median_busy_p50_ns, 1_100_000);
        let text = report.render();
        assert!(text.contains("health worker=1"), "{text}");
        assert!(text.contains("STRAGGLER"), "{text}");
        assert!(text.contains("health=straggler workers=1"), "{text}");
    }

    #[test]
    fn uniform_mesh_is_healthy() {
        let report = detect(&[(0, 1_000_000), (1, 1_050_000)], 2.0);
        assert!(report.stragglers().is_empty());
        assert!(report.render().contains("health=ok"));
    }

    #[test]
    fn lower_median_survives_a_straggler_at_p2() {
        // With 2 workers the upper median would be the straggler itself,
        // hiding it (ratio 1.0). The lower median catches it.
        let report = detect(&[(0, 1_000_000), (1, 10_000_000)], 2.0);
        assert_eq!(report.stragglers(), vec![1]);
    }

    /// A report's own `(worker, busy_p50_ns)` pairs carry the whole
    /// verdict: judged again at the same factor they reproduce it, and at
    /// another factor they give that factor's verdict.
    #[test]
    fn detect_over_a_reports_p50s_rejudges_it() {
        let report = detect(
            &[
                (3, 40_000_000),
                (0, 1_000_000),
                (2, 5_000_000),
                (1, 2_200_000),
            ],
            2.0,
        );
        assert_eq!(report.stragglers(), vec![3]);
        let busy: Vec<(usize, u64)> = report
            .verdicts
            .iter()
            .map(|v| (v.worker, v.busy_p50_ns))
            .collect();
        assert_eq!(detect(&busy, report.straggler_factor), report);
        // Worker 2's bucket floor (2^22) clears 1.5x the median (2.2 ms) but
        // not 2x; worker 3's (2^25) clears 2x but not 16x.
        let strict = detect(&busy, 1.5);
        assert_eq!(strict.stragglers(), vec![2, 3]);
        assert_eq!(strict.median_busy_p50_ns, report.median_busy_p50_ns);
        assert!(detect(&busy, 16.0).stragglers().is_empty());
    }

    #[test]
    fn from_snapshot_reads_busy_histograms() {
        let reg = crate::metrics::Registry::new();
        for _ in 0..10 {
            reg.histogram("poseidon_busy_time_ns", &[("worker", "0")])
                .observe(1_000_000);
            reg.histogram("poseidon_busy_time_ns", &[("worker", "1")])
                .observe(60_000_000);
        }
        let report = from_snapshot(&reg.snapshot(), 2.0);
        assert_eq!(report.stragglers(), vec![1]);
    }

    /// Two healthy workers whose p50s land one log2 bucket apart (32767 and
    /// 65535, ×2.00006) are not a straggler verdict.
    #[test]
    fn from_snapshot_one_bucket_apart_is_healthy() {
        let reg = crate::metrics::Registry::new();
        for (worker, busy) in [("0", 30_000), ("1", 33_000)] {
            let h = reg.histogram("poseidon_busy_time_ns", &[("worker", worker)]);
            for _ in 0..9 {
                h.observe(busy);
            }
            h.observe(1_000_000);
        }
        let text = from_snapshot(&reg.snapshot(), 2.0).render();
        assert!(text.contains("health=ok"), "{text}");
    }
}
