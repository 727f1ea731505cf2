//! `batch`: one-shot Algorithm 2 — q-gram blocking, the similarity join
//! (`Hera::join`) and compare-and-merge (`Hera::run_with_pairs`) — over
//! datasets loaded from their JSON files the way `hera-cli resolve`
//! loads them.
//!
//! The input is [`PARTS`] independent datasets of [`RECORDS`] records
//! each, every one from its own sub-seed of `--seed`: a heterogeneous
//! dataset's source schemas are drawn per seed, and one dataset's join
//! cost swings from seed to seed; summing over independent parts
//! shrinks that spread by √PARTS while keeping the cost join-heavy.
//!
//! Every timed sample is spread over the whole run, because the shared
//! host's speed drifts by ±15% over a few seconds: each repetition visits
//! the parts in turn, and a visit parses the part's JSON, joins and
//! resolves it, then re-resolves its cached join output a few times.
//!
//! * `setup_s`: parsing every part's JSON file — the sum over parts of
//!   each part's median parse time.
//! * `wall_s`: parsed datasets → complete partitions, join included:
//!   the sum over parts of each part's median time over repetitions.
//! * `step_p50_ms` / `step_tail_ms` (p90): one single-threaded
//!   `run_with_pairs` call over a part's cached join output — the δ-sweep
//!   use the API offers — pooled over every visit of the run.

use super::{own_peak_rss, set_steps, Ctx};
use crate::common::{scale_dataset, secs, sub_seed, Journal};
use crate::report::{combine, digest, Report, END_TO_END};
use crate::stats::median;
use hera_block::BlockingScheme;
use hera_core::{Hera, HeraConfig, HeraResult};
use hera_eval::PairMetrics;
use hera_join::ValuePair;
use hera_obs::Recorder;
use hera_types::Dataset;
use std::time::{Duration, Instant};

/// Independent datasets per run.
const PARTS: usize = 4;
/// Records per dataset: q-gram blocking prunes little below a few
/// thousand records (reduction ratio 0.14 at 1k, 0.7 at 3k, 0.99 at
/// 100k), so smaller parts would measure an all-pairs join.
const RECORDS: usize = 3000;
const DELTA: f64 = 0.5;
const XI: f64 = 0.7;
/// Parse passes behind `setup_s` in the traced run.
const PARSES: usize = 9;
/// Parse passes of a part per visit in the untraced run.
const PARSES_PER_VISIT: usize = 8;
/// `run_with_pairs` calls on a part's cached join output per visit.
const STEPS_PER_VISIT: usize = 12;
/// Worker threads of the step calls. Compare-and-merge over a cached
/// join output gains nothing from a second thread on the two-vCPU
/// reference host (43–66 ms per call with two, 32–57 ms with one), and
/// one thread does not wait on both vCPUs; the join keeps every thread.
const STEP_THREADS: usize = 1;
/// Repetitions at least, whatever `--seconds` says: `wall_s` sums each
/// part's median time, which needs a few repetitions to reject one
/// disturbed by a noisy neighbour, and the p90 step needs 100 calls for
/// ten samples beyond it.
const MIN_REPS: usize = 3;
/// Pairwise F1, pooled over the parts, the partitions must reach
/// (q-gram blocking at ξ = 0.7 pools to 0.69–0.71 on this input).
const F1_FLOOR: f64 = 0.6;

fn config(threads: usize) -> HeraConfig {
    HeraConfig::new(DELTA, XI)
        .with_blocking(BlockingScheme::qgram())
        .with_threads(threads)
}

/// Writes every part's JSON file; returns the paths.
fn prepare(ctx: &Ctx) -> Vec<std::path::PathBuf> {
    (0..PARTS)
        .map(|k| {
            let ds = scale_dataset(RECORDS, sub_seed(ctx.seed, k as u64), 1.0);
            let path = ctx.work.join(format!("batch-{k}.json"));
            std::fs::write(&path, ds.to_json().expect("dataset encodes")).expect("write dataset");
            path
        })
        .collect()
}

/// Reads and parses one part; returns the dataset and the time taken.
fn parse_one(path: &std::path::Path) -> (Dataset, Duration) {
    let t = Instant::now();
    let text = std::fs::read_to_string(path).expect("read dataset");
    let ds = Dataset::from_json(&text).expect("dataset parses");
    (ds, t.elapsed())
}

/// Reads and parses every part; returns the datasets and the time taken.
fn parse_all(paths: &[std::path::PathBuf]) -> (Vec<Dataset>, Duration) {
    let mut total = Duration::ZERO;
    let parts = paths
        .iter()
        .map(|p| {
            let (ds, t) = parse_one(p);
            total += t;
            ds
        })
        .collect();
    (parts, total)
}

/// One part's result, the join output that produced it, and the wall
/// time of its `join` + `run_with_pairs` calls (the clone that keeps
/// the join output for the step phase is not timed).
struct PartRun {
    pairs: Vec<ValuePair>,
    result: HeraResult,
    wall: Duration,
}

/// Joins and resolves one part.
fn resolve_one(hera: &Hera, ds: &Dataset, report: &mut Report) -> Option<PartRun> {
    let t = Instant::now();
    let pairs = hera.join(ds);
    let mut wall = t.elapsed();
    let kept = pairs.clone();
    let t = Instant::now();
    let result = hera.run_with_pairs(ds, pairs);
    wall += t.elapsed();
    match result {
        Ok(result) => {
            report.ops(1, 0);
            Some(PartRun {
                pairs: kept,
                result,
                wall,
            })
        }
        Err(e) => {
            report.ops(1, 1);
            report.fault(format!("run_with_pairs: {e}"));
            None
        }
    }
}

/// Joins and resolves every part.
fn resolve_all(hera: &Hera, parts: &[Dataset], report: &mut Report) -> Vec<PartRun> {
    parts
        .iter()
        .filter_map(|ds| resolve_one(hera, ds, report))
        .collect()
}

/// Total wall time of one repetition over every part.
fn total(runs: &[PartRun]) -> f64 {
    runs.iter().map(|r| secs(r.wall)).sum()
}

fn digests(runs: &[PartRun]) -> Vec<u64> {
    runs.iter().map(|r| digest(&r.result.clusters())).collect()
}

fn untraced(threads: usize) -> Hera {
    Hera::builder(config(threads))
        .recorder(Recorder::disabled())
        .build()
}

/// Checks a repetition's partitions against the first repetition's.
fn check_same(report: &mut Report, what: &str, want: &[u64], got: &[u64]) {
    report.check(what, want == got, || {
        format!("digests {got:x?} != {want:x?}")
    });
}

pub fn run(ctx: &Ctx, report: &mut Report) {
    let paths = prepare(ctx);
    let records = RECORDS * PARTS;
    println!("input: {PARTS} datasets, {records} records, qgram blocking, delta {DELTA}, xi {XI}");
    if ctx.traced {
        let mut parse_times = Vec::new();
        let mut parts = Vec::new();
        for _ in 0..PARSES {
            let (ds, t) = parse_all(&paths);
            parse_times.push(secs(t));
            parts = ds;
        }
        traced(ctx, &parts, median(&parse_times), report);
    } else {
        untraced_run(ctx, &paths, report);
    }
}

fn untraced_run(ctx: &Ctx, paths: &[std::path::PathBuf], report: &mut Report) {
    let hera = untraced(ctx.threads);
    let stepper = untraced(STEP_THREADS);
    let mut parse_times: Vec<Vec<f64>> = vec![Vec::new(); PARTS];
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); PARTS];
    let mut steps = Vec::new();
    // The first visit's dataset, join output and partition digest.
    let mut first: Vec<Option<(Dataset, PartRun, u64)>> = (0..PARTS).map(|_| None).collect();
    let start = Instant::now();
    let mut reps = 0;
    while reps < MIN_REPS || start.elapsed() < ctx.seconds {
        for k in 0..PARTS {
            let mut ds = None;
            for _ in 0..PARSES_PER_VISIT {
                let (d, t) = parse_one(&paths[k]);
                parse_times[k].push(secs(t));
                ds = Some(d);
            }
            let ds = ds.expect("at least one parse");
            let Some(run) = resolve_one(&hera, &ds, report) else {
                continue;
            };
            walls[k].push(secs(run.wall));
            let d = digest(&run.result.clusters());
            let slot = first[k].get_or_insert((ds, run, d));
            let (ds, run, want) = (&slot.0, &slot.1, slot.2);
            report.check("batch repetition partition", d == want, || {
                format!("part {k}: digest {d:016x} != {want:016x}")
            });
            for _ in 0..STEPS_PER_VISIT {
                let t = Instant::now();
                let result = stepper.run_with_pairs(ds, run.pairs.clone());
                steps.push(secs(t.elapsed()) * 1e3);
                match result {
                    Ok(r) => {
                        report.ops(1, 0);
                        let d = digest(&r.clusters());
                        report.check("batch step partition", d == want, || {
                            format!("part {k}: digest {d:016x} != {want:016x}")
                        });
                    }
                    Err(e) => {
                        report.ops(1, 1);
                        report.fault(format!("run_with_pairs: {e}"));
                    }
                }
            }
        }
        reps += 1;
    }
    if first.iter().any(Option::is_none) {
        report.fault("batch: a part never resolved".to_string());
        for (name, _) in END_TO_END {
            report.set(name, 0.0);
        }
        return;
    }
    let first: Vec<(Dataset, PartRun, u64)> = first.into_iter().flatten().collect();
    let want: Vec<u64> = first.iter().map(|(_, _, d)| *d).collect();
    // Pairwise quality pooled over the parts (their records are
    // disjoint, so pair counts add up).
    let (mut tp, mut fp, mut fneg) = (0usize, 0usize, 0usize);
    for (k, (ds, r, d)) in first.iter().enumerate() {
        let m = PairMetrics::score(&r.result.clusters(), &ds.truth);
        println!(
            "part {k}: {} records, {} entities, F1 {:.4}, digest {d:016x}, \
             median wall {:.3} s (n={}), median parse {:.4} s (n={})",
            ds.len(),
            r.result.entity_count(),
            m.f1(),
            median(&walls[k]),
            walls[k].len(),
            median(&parse_times[k]),
            parse_times[k].len()
        );
        (tp, fp, fneg) = (
            tp + m.true_positives,
            fp + m.false_positives,
            fneg + m.false_negatives,
        );
    }
    let f1 = PairMetrics {
        true_positives: tp,
        false_positives: fp,
        false_negatives: fneg,
    }
    .f1();
    println!("pooled F1 {f1:.4} (floor {F1_FLOOR})");
    report.check("batch pooled F1 floor", f1 >= F1_FLOOR, || {
        format!("F1 {f1:.4} < {F1_FLOOR}")
    });
    println!("partition_digest {:016x}", combine(&want));

    println!("samples: repetitions n={reps}");
    let per_part = |v: &[Vec<f64>]| v.iter().map(|t| median(t)).sum::<f64>();
    report.set("setup_s", per_part(&parse_times));
    report.set("wall_s", per_part(&walls));
    let rss = own_peak_rss(report);
    report.set("peak_rss_mb", rss);
    set_steps(report, "batch step (run_with_pairs)", &[steps], 90.0);
}

fn traced(ctx: &Ctx, parts: &[Dataset], parse_s: f64, report: &mut Report) {
    let plain = untraced(ctx.threads);
    let start = Instant::now();
    let (mut walls_u, mut walls_t) = (Vec::new(), Vec::new());
    let mut last = Journal::default();
    let mut traced_runs = Vec::new();
    while walls_t.is_empty() || start.elapsed() < ctx.seconds {
        let runs_u = resolve_all(&plain, parts, report);
        let (rec, buf) = Recorder::to_memory();
        let hera = Hera::builder(config(ctx.threads)).recorder(rec).build();
        let runs_t = resolve_all(&hera, parts, report);
        let (du, dt) = (digests(&runs_u), digests(&runs_t));
        check_same(report, "batch traced partition equals untraced", &du, &dt);
        walls_u.push(total(&runs_u));
        walls_t.push(total(&runs_t));
        last = Journal::read(&buf.contents());
        traced_runs = runs_t;
    }
    println!("partition_digest {:016x}", combine(&digests(&traced_runs)));

    // Layer numbers from the last traced repetition.
    let wall_t = *walls_t.last().expect("one traced repetition");
    let block = secs(last.time("blocking"));
    let join = secs(last.time("join"));
    let index = secs(last.time("index_build"));
    let emitted = last.counter("blocking", "pairs_emitted") as f64;
    let all_pairs: f64 = parts
        .iter()
        .map(|d| (d.len() * d.len().saturating_sub(1) / 2) as f64)
        .sum();
    let value_pairs = last.counter("join", "pairs") as f64;
    report.set("hera_types.dataset_parse_s", parse_s);
    report.set("hera_block.block_s", block);
    report.set("hera_block.pairs_emitted", emitted);
    report.set(
        "hera_block.reduction_ratio",
        1.0 - emitted / all_pairs.max(1.0),
    );
    report.set("hera_join.join_s", join);
    report.set("hera_join.value_pairs", value_pairs);
    report.set("hera_join.pairs_per_s", value_pairs / join.max(1e-9));
    report.set("hera_index.build_s", index);
    report.set(
        "hera_index.entries",
        last.counter("index_build", "entries") as f64,
    );
    report.set(
        "hera_index.groups",
        last.counter("index_build", "groups") as f64,
    );
    let stats = traced_runs.iter().map(|r| &r.result.stats);
    let resolve: f64 = stats.clone().map(|s| secs(s.resolve_time)).sum();
    let decisions: usize = stats
        .clone()
        .map(|s| s.comparisons + s.direct_decisions)
        .sum();
    let merges: usize = stats.clone().map(|s| s.merges).sum();
    report.set("hera_core.resolve_s", resolve);
    report.set(
        "hera_core.verify_s",
        stats.clone().map(|s| secs(s.verify_time)).sum(),
    );
    report.set(
        "hera_core.iterations",
        stats.clone().map(|s| s.iterations).sum::<usize>() as f64,
    );
    report.set("hera_core.decisions", decisions as f64);
    report.set(
        "hera_core.comparisons",
        stats.clone().map(|s| s.comparisons).sum::<usize>() as f64,
    );
    report.set("hera_core.merges", merges as f64);
    report.set(
        "hera_core.merge_yield",
        merges as f64 / decisions.max(1) as f64,
    );
    report.set("trace.coverage", (block + join + index + resolve) / wall_t);
    let (mu, mt) = (median(&walls_u), median(&walls_t));
    println!("samples: untraced/traced repetitions n={}", walls_t.len());
    report.set("trace.overhead_frac", (mt - mu) / mu);
}
