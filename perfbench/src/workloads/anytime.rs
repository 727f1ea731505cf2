//! `anytime`: progressive resolution from a restored session snapshot —
//! `HeraSession::resolve_progressive(ResolveBudget::comparisons(16))` in
//! a closed loop until a call ends with `exhausted == false`.
//!
//! The base state is [`PARTS`] q-gram-blocked sessions of [`RECORDS`]
//! skew-3 records each (δ = 0.4, ξ = 0.55: the `exp_progressive`
//! regime), each ingested and checkpointed by the code under test in a
//! prep child process, untimed, so a snapshot-format change can neither
//! break nor flatter the benchmark, and the prep's memory does not count
//! toward `peak_rss_mb`. Skew-3 inputs put most duplicates in a few hub
//! entities, so one dataset's cost swings widely with its seed; the
//! independent parts average that out.
//!
//! A repetition restores and slices every part in turn, so each part's
//! samples are spread over the whole run: the shared host's speed
//! drifts by ±15% over a few seconds, and a median over samples from
//! the whole run follows that drift far less than one from a few
//! seconds of it.
//!
//! * `setup_s`: restoring every part's snapshot — the sum over parts of
//!   each part's median restore time over repetitions.
//! * `wall_s`: restored bases → fixpoints — the sum over parts of each
//!   part's median time over repetitions.
//! * `step_p50_ms` / `step_tail_ms` (p90): one budgeted slice — the
//!   mean over parts of each part's percentile over every repetition.

use super::{own_peak_rss, set_steps, settle, Ctx};
use crate::common::{mirror_schemas, scale_dataset, secs, sub_seed, Journal};
use crate::report::{combine, digest, Report};
use crate::stats::median;
use hera_block::BlockingScheme;
use hera_core::{HeraConfig, HeraSession, ResolveBudget};
use hera_obs::Recorder;
use hera_types::json::{parse, Json};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Independent sessions per run. A part's index size, which sets both
/// its slice cost and its memory, varies by 13% (standard deviation)
/// between seeds, and its fixpoint time by 20%; many small parts average
/// that out at a lower cost than a few large ones (twelve parts of 1,000
/// records ingest in half the time of eight of 1,500, and their index
/// total spreads half as much between seeds).
const PARTS: usize = 12;
/// Records per session.
const RECORDS: usize = 1000;
const SKEW: f64 = 3.0;
const DELTA: f64 = 0.4;
const XI: f64 = 0.55;
/// Comparisons per budgeted slice.
const BUDGET: u64 = 16;
/// Worker threads of the restored sessions. A 16-comparison slice has
/// too little verification to share: on the two-vCPU reference host a
/// second thread made slicing 6% slower and its speed from one
/// few-second window to the next less steady (6.5% vs 4.5% standard
/// deviation), because every slice then waits on both vCPUs.
const SESSION_THREADS: usize = 1;
/// Restore-and-resolve repetitions at least, whatever `--seconds` says:
/// each part's medians need several samples spread over the run.
const MIN_REPS: usize = 8;
/// Slices of each part at least in an untraced run: its p90 needs 100
/// for ten samples beyond it.
const MIN_SLICES: usize = 100;
/// Repetitions at least in a traced run, which also runs every
/// repetition traced and reads its per-layer numbers from the last.
const MIN_TRACED_REPS: usize = 3;

fn config(threads: usize) -> HeraConfig {
    HeraConfig::new(DELTA, XI)
        .with_blocking(BlockingScheme::qgram())
        .with_threads(threads)
}

fn snapshot(dir: &Path, k: usize) -> PathBuf {
    dir.join(format!("anytime-{k}.hera"))
}

/// The prep child's entry point: ingests and checkpoints every part
/// (two parts at a time) and prints each checkpoint's wall time as the
/// last line of stdout.
pub fn prep(seed: u64, dir: &Path, threads: usize) {
    let mut times = vec![0.0f64; PARTS];
    std::thread::scope(|s| {
        let workers = threads.max(1);
        let chunks: Vec<&mut [f64]> = times.chunks_mut(PARTS.div_ceil(workers)).collect();
        let mut first = 0;
        for chunk in chunks {
            let base = first;
            first += chunk.len();
            s.spawn(move || {
                for (i, slot) in chunk.iter_mut().enumerate() {
                    let k = base + i;
                    let ds = scale_dataset(RECORDS, sub_seed(seed, k as u64), SKEW);
                    let mut session = HeraSession::builder(config(1))
                        .recorder(Recorder::disabled())
                        .build();
                    let schemas = mirror_schemas(&mut session, &ds);
                    for r in &ds.records {
                        session
                            .add_record(schemas[r.schema.index()], r.values.clone())
                            .expect("ingest");
                    }
                    let t = Instant::now();
                    session.checkpoint(snapshot(dir, k)).expect("checkpoint");
                    *slot = secs(t.elapsed());
                }
            });
        }
    });
    println!(
        "{}",
        Json::Obj(vec![(
            "checkpoint_s".into(),
            Json::Arr(times.into_iter().map(Json::Float).collect()),
        )])
        .to_string_compact()
    );
}

/// Runs the prep child; returns the checkpoint times it reports.
fn run_prep(ctx: &Ctx) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args(["prep-anytime", "--seed", &ctx.seed.to_string()])
        .arg("--dir")
        .arg(&ctx.work)
        .args(["--threads", &ctx.threads.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("prep child: {e}"))?;
    if !out.status.success() {
        return Err(format!("prep child failed: {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().unwrap_or("");
    let json = parse(line).map_err(|e| format!("prep child output: {e}"))?;
    json.expect("checkpoint_s")
        .and_then(|a| a.as_arr().map(<[Json]>::to_vec))
        .and_then(|a| a.iter().map(Json::as_f64).collect())
        .map_err(|e| format!("prep child output: {e}"))
}

/// What one part's restore-and-resolve did.
struct PartRun {
    restore: Duration,
    fixpoint: Duration,
    slices_ms: Vec<f64>,
    digest: u64,
    comparisons: u64,
    merges: usize,
    frontier_start: usize,
    index_entries: usize,
    simcache_entries: usize,
}

/// Restores part `k` and slices it to a fixpoint; returns what it did
/// and the resolved session. `layers` also reads the O(index) frontier
/// size before slicing (outside the timed loop).
fn run_part(
    ctx: &Ctx,
    k: usize,
    rec: Recorder,
    layers: bool,
    report: &mut Report,
) -> Result<(PartRun, HeraSession), String> {
    let t = Instant::now();
    let mut session = HeraSession::builder(config(SESSION_THREADS))
        .recorder(rec)
        .restore(snapshot(&ctx.work, k))
        .map_err(|e| format!("restore part {k}: {e}"))?;
    let restore = t.elapsed();
    let frontier_start = if layers { session.frontier_len() } else { 0 };
    let index_entries = session.index_size();
    let mut slices_ms = Vec::new();
    let (mut comparisons, mut merges) = (0u64, 0usize);
    let start = Instant::now();
    loop {
        let t = Instant::now();
        let r = session.resolve_progressive(ResolveBudget::comparisons(BUDGET));
        slices_ms.push(secs(t.elapsed()) * 1e3);
        report.ops(1, 0);
        comparisons += r.comparisons_spent;
        merges += r.merges;
        if !r.exhausted {
            break;
        }
    }
    let fixpoint = start.elapsed();
    let run = PartRun {
        restore,
        fixpoint,
        slices_ms,
        digest: digest(&session.clusters()),
        comparisons,
        merges,
        frontier_start,
        index_entries,
        simcache_entries: session.sim_cache_size(),
    };
    Ok((run, session))
}

/// One repetition over every part, one part at a time. The resolved
/// sessions stay resident until the repetition ends, as in a process
/// serving every part, so `peak_rss_mb` follows the parts' total memory
/// rather than the largest part's.
fn run_all(
    ctx: &Ctx,
    traced: bool,
    report: &mut Report,
) -> Result<(Vec<PartRun>, Journal), String> {
    let (rec, buf) = if traced {
        let (r, b) = Recorder::to_memory();
        (r, Some(b))
    } else {
        (Recorder::disabled(), None)
    };
    let (runs, sessions): (Vec<_>, Vec<_>) = (0..PARTS)
        .map(|k| run_part(ctx, k, rec.clone(), traced, report))
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .unzip();
    drop(sessions);
    let journal = buf.map_or_else(Journal::default, |b| Journal::read(&b.contents()));
    Ok((runs, journal))
}

/// The journal's merge lines, in emission order.
fn merges(journal: &str) -> Vec<&str> {
    journal
        .lines()
        .filter(|l| l.contains("\"ev\":\"merge\""))
        .collect()
}

/// Restores part `k` with a deterministic journal.
fn journaled(ctx: &Ctx, k: usize) -> Result<(HeraSession, hera_obs::JournalBuffer), String> {
    let (rec, buf) = Recorder::to_memory();
    let session = HeraSession::builder(config(SESSION_THREADS))
        .recorder(rec.deterministic())
        .restore(snapshot(&ctx.work, k))
        .map_err(|e| format!("restore part {k}: {e}"))?;
    Ok((session, buf))
}

/// Checks the sliced runs against one unlimited `resolve()` per
/// restored base. What the program promises is checked exactly: a
/// budget only truncates the schedule, so the first budgeted slice's
/// merges are a prefix of `resolve()`'s. Whether the sliced fixpoint
/// *equals* `resolve()`'s is printed, not checked: under schema voting
/// a matching decided late never re-dirties pairs that already left the
/// frontier (DESIGN.md, "Budget semantics and the prefix property"), so
/// slicing can end at a different fixpoint.
fn check_against_resolve(ctx: &Ctx, sliced: &[u64], report: &mut Report) -> Result<(), String> {
    let mut equal = 0;
    for (k, want) in sliced.iter().enumerate() {
        let (mut full, full_journal) = journaled(ctx, k)?;
        full.resolve();
        let (mut first, first_journal) = journaled(ctx, k)?;
        first.resolve_progressive(ResolveBudget::comparisons(BUDGET));
        report.ops(2, 0);
        let (all, head) = (full_journal.contents(), first_journal.contents());
        let (all, head) = (merges(&all), merges(&head));
        report.check(
            "anytime first slice is a prefix of resolve()",
            all.starts_with(&head),
            || {
                format!(
                    "part {k}: {} slice merges vs {} resolve() merges",
                    head.len(),
                    all.len()
                )
            },
        );
        equal += usize::from(digest(&full.clusters()) == *want);
    }
    println!(
        "sliced fixpoint equals resolve(): {equal} of {} parts",
        sliced.len()
    );
    Ok(())
}

fn sum<T>(runs: &[PartRun], f: impl Fn(&PartRun) -> T) -> T
where
    T: std::iter::Sum<T>,
{
    runs.iter().map(f).sum()
}

pub fn run(ctx: &Ctx, report: &mut Report) {
    let outcome = run_inner(ctx, report);
    settle(ctx, report, outcome);
}

fn run_inner(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let prep_start = Instant::now();
    let checkpoint_s = run_prep(ctx)?;
    let prep = prep_start.elapsed();
    let bytes: u64 = (0..PARTS)
        .map(|k| std::fs::metadata(snapshot(&ctx.work, k)).map_or(0, |m| m.len()))
        .sum();
    println!(
        "input: {PARTS} sessions, {} records, skew {SKEW}, qgram blocking, delta {DELTA}, xi {XI}, \
         budget {BUDGET} comparisons per slice",
        PARTS * RECORDS
    );

    let min_reps = if ctx.traced {
        MIN_TRACED_REPS
    } else {
        MIN_REPS
    };
    let start = Instant::now();
    let mut restores: Vec<Vec<f64>> = vec![Vec::new(); PARTS];
    let mut fixpoints: Vec<Vec<f64>> = vec![Vec::new(); PARTS];
    let (mut walls_u, mut walls_t) = (Vec::new(), Vec::new());
    let mut slices: Vec<Vec<f64>> = vec![Vec::new(); PARTS];
    let mut want: Option<Vec<u64>> = None;
    let mut last_traced: Option<(Vec<PartRun>, Journal)> = None;
    let short = |slices: &[Vec<f64>]| !ctx.traced && slices.iter().any(|s| s.len() < MIN_SLICES);
    while walls_u.len() < min_reps || start.elapsed() < ctx.seconds || short(&slices) {
        let (runs, _) = run_all(ctx, false, report)?;
        for (k, r) in runs.iter().enumerate() {
            restores[k].push(secs(r.restore));
            fixpoints[k].push(secs(r.fixpoint));
            slices[k].extend_from_slice(&r.slices_ms);
        }
        walls_u.push(secs(sum(&runs, |r| r.fixpoint)));
        let d: Vec<u64> = runs.iter().map(|r| r.digest).collect();
        match &want {
            None => want = Some(d),
            Some(w) => report.check("anytime repetition partition", *w == d, || {
                format!("digests {d:x?} != {w:x?}")
            }),
        }
        if ctx.traced {
            let (runs_t, journal) = run_all(ctx, true, report)?;
            walls_t.push(secs(sum(&runs_t, |r| r.fixpoint)));
            let d: Vec<u64> = runs_t.iter().map(|r| r.digest).collect();
            let w = want.as_ref().expect("set above");
            report.check("anytime traced partition equals untraced", *w == d, || {
                format!("digests {d:x?} != {w:x?}")
            });
            last_traced = Some((runs_t, journal));
        }
    }
    // Read before the check below, which holds two sessions at once.
    let rss = own_peak_rss(report);
    let want = want.expect("at least one repetition");
    let measure = start.elapsed();
    check_against_resolve(ctx, &want, report)?;
    println!(
        "phases: prep {:.1} s, measure {:.1} s, check {:.1} s",
        secs(prep),
        secs(measure),
        secs(start.elapsed() - measure)
    );
    for k in 0..PARTS {
        println!(
            "part {k}: median restore {:.4} s, median fixpoint {:.4} s (n={})",
            median(&restores[k]),
            median(&fixpoints[k]),
            fixpoints[k].len()
        );
    }
    println!("partition_digest {:016x}", combine(&want));
    println!("samples: repetitions n={}", walls_u.len());

    if !ctx.traced {
        let per_part = |v: &[Vec<f64>]| v.iter().map(|t| median(t)).sum::<f64>();
        report.set("setup_s", per_part(&restores));
        report.set("wall_s", per_part(&fixpoints));
        report.set("peak_rss_mb", rss);
        set_steps(report, "anytime slice", &slices, 90.0);
        return Ok(());
    }
    let (runs, journal) = last_traced.expect("one traced repetition");
    let slice_s = secs(sum(&runs, |r| r.fixpoint));
    let verify_s = secs(journal.time("resolve_verify"));
    report.set("hera_core.session.slice_s", slice_s);
    report.set("hera_core.session.verify_s", verify_s);
    report.set("hera_core.session.schedule_s", slice_s - verify_s);
    report.set(
        "hera_core.session.comparisons",
        sum(&runs, |r| r.comparisons) as f64,
    );
    report.set("hera_core.session.merges", sum(&runs, |r| r.merges) as f64);
    report.set(
        "hera_core.session.frontier_start",
        sum(&runs, |r| r.frontier_start) as f64,
    );
    report.set(
        "hera_core.session.index_entries",
        sum(&runs, |r| r.index_entries) as f64,
    );
    report.set(
        "hera_core.session.simcache_entries",
        sum(&runs, |r| r.simcache_entries) as f64,
    );
    report.set("hera_store.restore_s", secs(sum(&runs, |r| r.restore)));
    report.set("hera_store.snapshot_bytes", bytes as f64);
    report.set("hera_store.checkpoint_s", checkpoint_s.iter().sum());
    report.set("trace.coverage", verify_s / slice_s);
    let (mu, mt) = (median(&walls_u), median(&walls_t));
    report.set("trace.overhead_frac", (mt - mu) / mu);
    Ok(())
}
