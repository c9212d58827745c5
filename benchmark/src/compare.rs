//! `compare A.json B.json`: applies each end-to-end metric's bound to two
//! `results.json` files (A the parent, B the change), one row per
//! (workload, metric).

use crate::outcome::Outcome;
use crate::spec::{self, Better};
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// Within the bound, but the run-to-run spread is wider than the bound,
    /// so "unchanged" is not shown — unless every run of B reads better
    /// than every run of A.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    /// How much worse B's median is, as a share of A's (negative: better).
    pub worse_by: f64,
    pub spread: f64,
    pub verdict: Verdict,
}

/// Judges one metric from each side's run values.
pub fn judge(better: Better, bound: f64, a: &[f64], b: &[f64]) -> (f64, f64, Verdict) {
    let (mid_a, mid_b) = (stats::median(a), stats::median(b));
    let worse_by = match better {
        Better::Lower => (mid_b - mid_a) / mid_a.abs(),
        Better::Higher => (mid_a - mid_b) / mid_a.abs(),
    };
    let spread = stats::spread(a).max(stats::spread(b));
    let b_always_better = a.iter().all(|&x| {
        b.iter().all(|&y| match better {
            Better::Lower => y < x,
            Better::Higher => y > x,
        })
    });
    let verdict = if worse_by > bound {
        Verdict::Regressed
    } else if spread > bound && !b_always_better {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (worse_by, spread, verdict)
}

/// One row per (workload, end-to-end metric) present on both sides, plus a
/// `failed_share` row per workload: any increase there is a regression.
pub fn compare(a: &[(String, Vec<Outcome>)], b: &[(String, Vec<Outcome>)]) -> Vec<Row> {
    let mut rows = Vec::new();
    for (workload, runs_a) in a {
        let Some((_, runs_b)) = b.iter().find(|(name, _)| name == workload) else {
            continue;
        };
        let values = |runs: &[Outcome], metric: &str| -> Vec<f64> {
            runs.iter()
                .filter_map(|r| r.metrics.get(metric).copied())
                .collect()
        };
        for metric in spec::END_TO_END {
            let (va, vb) = (values(runs_a, metric.name), values(runs_b, metric.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let bound = metric.bound.expect("end-to-end metrics are bounded");
            let (worse_by, spread, verdict) = judge(metric.better, bound, &va, &vb);
            rows.push(Row {
                workload: workload.clone(),
                metric: metric.name,
                a: stats::median(&va),
                b: stats::median(&vb),
                worse_by,
                spread,
                verdict,
            });
        }
        let failed = |runs: &[Outcome]| {
            stats::median(&runs.iter().map(Outcome::failed_share).collect::<Vec<_>>())
        };
        let (fa, fb) = (failed(runs_a), failed(runs_b));
        rows.push(Row {
            workload: workload.clone(),
            metric: "failed_share",
            a: fa,
            b: fb,
            worse_by: fb - fa,
            spread: 0.0,
            verdict: if fb > fa {
                Verdict::Regressed
            } else {
                Verdict::Ok
            },
        });
    }
    rows
}

pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<16}{:<22}{:>14}{:>14}{:>10}{:>9}  {}\n",
        "workload", "metric", "A", "B", "worse by", "spread", "verdict"
    );
    for row in rows {
        out.push_str(&format!(
            "{:<16}{:<22}{:>14.6}{:>14.6}{:>9.1}%{:>8.1}%  {}\n",
            row.workload,
            row.metric,
            row.a,
            row.b,
            row.worse_by * 100.0,
            row.spread * 100.0,
            row.verdict.as_str()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_bound_and_spread() {
        // 5% slower against a 10% bound, tight runs: ok.
        let (_, _, v) = judge(
            Better::Lower,
            0.10,
            &[100.0, 101.0, 99.0],
            &[105.0, 104.0, 106.0],
        );
        assert_eq!(v, Verdict::Ok);
        // 20% slower: regressed, whatever the spread.
        let (worse, _, v) = judge(Better::Lower, 0.10, &[100.0], &[120.0]);
        assert_eq!(v, Verdict::Regressed);
        assert!((worse - 0.20).abs() < 1e-12);
        // Throughput: lower is worse.
        let (_, _, v) = judge(Better::Higher, 0.10, &[100.0], &[80.0]);
        assert_eq!(v, Verdict::Regressed);
        // Medians agree but the runs scatter by far more than the bound.
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        let (_, spread, v) = judge(Better::Lower, 0.10, &noisy, &noisy);
        assert!(spread > 0.10);
        assert_eq!(v, Verdict::Unresolved);
        // ... unless every run of B beats every run of A.
        let (_, _, v) = judge(Better::Lower, 0.10, &noisy, &[10.0, 30.0, 50.0]);
        assert_eq!(v, Verdict::Ok);
    }
}
