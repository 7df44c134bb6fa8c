//! `compare A.json B.json`: holds result document B (the change) against A
//! (the parent) row by row — workload × end-to-end metric — with the bounds
//! `BENCHMARK.json` fixes, and checks the exact metrics for equality.

use crate::json::{self, Json};
use crate::names::{EXACT_END_TO_END, EXACT_PER_LAYER};
use std::path::Path;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The run-to-run spread is wider than the bound: the runs cannot tell
    /// "no worse than the bound" from "worse".
    Unresolved,
}

/// Median and quartiles of one metric on one workload.
#[derive(Clone, Copy, Debug)]
pub struct Stat {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Stat {
    /// Interquartile range as a share of the median.
    fn spread(&self) -> f64 {
        (self.q3 - self.q1).abs() / self.median.abs()
    }
}

/// The verdict on one row. `bound` is the share of the parent's median the
/// metric may worsen by.
pub fn verdict(parent: Stat, change: Stat, better: Better, bound: f64) -> Verdict {
    let worse_by = match better {
        Better::Higher => (parent.median - change.median) / parent.median.abs(),
        Better::Lower => (change.median - parent.median) / parent.median.abs(),
    };
    let spread = parent.spread().max(change.spread());
    if worse_by > bound && worse_by > spread {
        Verdict::Regressed
    } else if spread > bound {
        Verdict::Unresolved
    } else if -worse_by > spread {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

struct Bound {
    name: String,
    better: Better,
    bound: f64,
}

fn load(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn bounds(benchmark_json: &Json) -> Result<Vec<Bound>, String> {
    benchmark_json
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("end_to_end entry lacks `{k}`"));
            Ok(Bound {
                name: field("name")?
                    .as_str()
                    .ok_or("name is not a string")?
                    .into(),
                better: match field("better")?.as_str() {
                    Some("higher") => Better::Higher,
                    Some("lower") => Better::Lower,
                    _ => return Err("`better` is neither higher nor lower".to_string()),
                },
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

fn stat(metric: &Json) -> Option<Stat> {
    Some(Stat {
        median: metric.get("value")?.as_f64()?,
        q1: metric.get("q1")?.as_f64()?,
        q3: metric.get("q3")?.as_f64()?,
    })
}

/// Compares two result documents; `Ok(true)` when nothing regressed.
pub fn compare(benchmark_json: &Path, a: &Path, b: &Path) -> Result<bool, String> {
    let bounds = bounds(&load(benchmark_json)?)?;
    let (a, b) = (load(a)?, load(b)?);
    for (doc, which) in [(&a, "A"), (&b, "B")] {
        if doc.get("quick").and_then(Json::as_bool) != Some(false) {
            return Err(format!(
                "{which} is a --quick (smoke-size) result or no result document: its numbers measure nothing"
            ));
        }
        if doc.get("correct").and_then(Json::as_bool) != Some(true) {
            return Err(format!("{which} failed its own correctness checks"));
        }
    }
    let same_seed = a.get("seed") == b.get("seed") && a.get("seconds") == b.get("seconds");
    let workloads = |doc: &Json| {
        doc.get("workloads")
            .and_then(Json::as_obj)
            .map(<[_]>::to_vec)
    };
    let (wa, wb) = (
        workloads(&a).ok_or("A has no workloads")?,
        workloads(&b).ok_or("B has no workloads")?,
    );

    let mut ok = true;
    println!(
        "{:<18} {:<28} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "A", "B", "B/A"
    );
    for (name, ra) in &wa {
        let Some((_, rb)) = wb.iter().find(|(n, _)| n == name) else {
            println!("{name:<18} missing from B: regressed");
            ok = false;
            continue;
        };
        for bound in &bounds {
            let find = |r: &Json| r.get("end_to_end")?.get(&bound.name).and_then(stat);
            let (Some(sa), Some(sb)) = (find(ra), find(rb)) else {
                println!("{name:<18} {:<28} missing: regressed", bound.name);
                ok = false;
                continue;
            };
            let v = if EXACT_END_TO_END.contains(&bound.name.as_str()) && same_seed {
                if sa.median == sb.median {
                    Verdict::Unchanged
                } else {
                    Verdict::Regressed
                }
            } else {
                verdict(sa, sb, bound.better, bound.bound)
            };
            ok &= v != Verdict::Regressed;
            println!(
                "{name:<18} {:<28} {:>14.6} {:>14.6} {:>8.4}  {}",
                bound.name,
                sa.median,
                sb.median,
                sb.median / sa.median,
                format!("{v:?}").to_lowercase()
            );
        }
        if !same_seed {
            continue;
        }
        // Counts and simulated statistics compare exactly on one seed.
        for exact in EXACT_PER_LAYER {
            let find = |r: &Json| r.get("per_layer")?.get(exact)?.get("value")?.as_f64();
            if find(ra) != find(rb) {
                println!("{name:<18} {exact:<28} differs: regressed");
                ok = false;
            }
        }
        if ra.get("exact") != rb.get("exact") {
            println!(
                "{name:<18} {:<28} differs: regressed",
                "exact outputs (loss, digests)"
            );
            ok = false;
        }
    }
    if !same_seed {
        println!("seeds or run lengths differ: exact metrics were not compared");
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight(median: f64) -> Stat {
        Stat {
            median,
            q1: median * 0.995,
            q3: median * 1.005,
        }
    }

    #[test]
    fn within_bound_and_spread_is_unchanged() {
        assert_eq!(
            verdict(tight(100.0), tight(97.0), Better::Higher, 0.08),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(tight(100.0), tight(100.5), Better::Lower, 0.08),
            Verdict::Unchanged
        );
    }

    #[test]
    fn worse_than_the_bound_is_regressed_in_the_metrics_direction() {
        assert_eq!(
            verdict(tight(100.0), tight(90.0), Better::Higher, 0.08),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(tight(100.0), tight(110.0), Better::Lower, 0.08),
            Verdict::Regressed
        );
        // The same move in the good direction is an improvement.
        assert_eq!(
            verdict(tight(100.0), tight(110.0), Better::Higher, 0.08),
            Verdict::Improved
        );
        assert_eq!(
            verdict(tight(100.0), tight(90.0), Better::Lower, 0.08),
            Verdict::Improved
        );
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let noisy = Stat {
            median: 100.0,
            q1: 94.0,
            q3: 106.0,
        };
        assert_eq!(
            verdict(noisy, tight(99.0), Better::Higher, 0.08),
            Verdict::Unresolved
        );
        // ... unless the drop is larger than both the bound and the spread.
        assert_eq!(
            verdict(noisy, tight(70.0), Better::Higher, 0.08),
            Verdict::Regressed
        );
    }

    #[test]
    fn a_gain_smaller_than_the_spread_is_not_an_improvement() {
        let a = Stat {
            median: 100.0,
            q1: 98.0,
            q3: 102.0,
        };
        assert_eq!(
            verdict(a, tight(103.0), Better::Higher, 0.08),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(a, tight(105.0), Better::Higher, 0.08),
            Verdict::Improved
        );
    }
}
