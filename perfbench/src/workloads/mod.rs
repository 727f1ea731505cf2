//! The three workloads. Each one generates its inputs from the run's
//! seed, measures for the run's length, checks its outputs, and sets
//! every end-to-end metric (untraced) or the per-layer metrics of the
//! layers it exercises (traced).

pub mod anytime;
pub mod batch;
pub mod serve;

use crate::common::peak_rss_mb;
use crate::report::{Report, END_TO_END};
use crate::stats::tail;
use std::path::PathBuf;
use std::time::Duration;

/// One run's settings.
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// How long the measured part runs.
    pub seconds: Duration,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub traced: bool,
    /// Scratch directory for inputs, snapshots and journals.
    pub work: PathBuf,
    /// The `hera-cli` binary the `serve` workload spawns.
    pub cli: PathBuf,
    /// Worker threads the program may use.
    pub threads: usize,
}

/// This process's peak resident set in MB (0, and a fault, when
/// unreadable).
pub fn own_peak_rss(report: &mut Report) -> f64 {
    peak_rss_mb(std::process::id()).unwrap_or_else(|e| {
        report.fault(e);
        0.0
    })
}

/// Sets `step_p50_ms` and `step_tail_ms` (the `tail_pct` percentile)
/// from step latencies grouped by input part: each group's percentiles
/// are printed with their sample counts, and each metric is their mean
/// over groups, so that every part weighs the same whatever its number
/// of steps. A tail without ten samples beyond it is a fault.
pub fn set_steps(report: &mut Report, what: &str, groups_ms: &[Vec<f64>], tail_pct: f64) {
    let (mut p50s, mut tails) = (Vec::new(), Vec::new());
    for (g, steps) in groups_ms.iter().enumerate() {
        match (tail(what, steps, 50.0), tail(what, steps, tail_pct)) {
            (Ok(p50), Ok(pt)) => {
                println!(
                    "{what}, group {g}: p50 {:.3} ms, p{tail_pct} {:.3} ms (n={}, beyond p{tail_pct}={})",
                    p50.value, pt.value, pt.n, pt.beyond
                );
                p50s.push(p50.value);
                tails.push(pt.value);
            }
            (a, b) => {
                for e in [a.err(), b.err()].into_iter().flatten() {
                    report.fault(e);
                }
            }
        }
    }
    let mean = |v: &[f64]| {
        if v.len() < groups_ms.len() || v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    report.set("step_p50_ms", mean(&p50s));
    report.set("step_tail_ms", mean(&tails));
}

/// Records a workload's error as a fault; an untraced run still
/// reports every end-to-end metric (0 for the ones it did not reach) so
/// the result line stays well-formed.
pub fn settle(ctx: &Ctx, report: &mut Report, outcome: Result<(), String>) {
    if let Err(e) = outcome {
        report.fault(e);
        if !ctx.traced {
            for (name, _) in END_TO_END {
                if report.get(name).is_none() {
                    report.set(name, 0.0);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_metrics_are_means_of_group_percentiles() {
        let mut report = Report::default();
        let a: Vec<f64> = (1..=100).map(f64::from).collect();
        let b: Vec<f64> = (1..=200).map(|v| f64::from(v) * 10.0).collect();
        set_steps(&mut report, "steps", &[a, b], 90.0);
        assert!(report.correct());
        assert_eq!(report.get("step_p50_ms"), Some((50.0 + 1000.0) / 2.0));
        assert_eq!(report.get("step_tail_ms"), Some((90.0 + 1800.0) / 2.0));
    }

    #[test]
    fn a_group_without_a_tail_is_a_fault() {
        let mut report = Report::default();
        let a: Vec<f64> = (1..=100).map(f64::from).collect();
        let short: Vec<f64> = (1..=99).map(f64::from).collect();
        set_steps(&mut report, "steps", &[a, short], 90.0);
        assert!(!report.correct());
        assert_eq!(report.get("step_p50_ms"), Some(0.0));
        assert_eq!(report.get("step_tail_ms"), Some(0.0));
    }
}
