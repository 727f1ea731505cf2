//! `serve`: a `hera-cli serve --listen` server in its own process
//! (default shards and workers, token blocking, δ = 0.5, ξ = 0.7, an
//! automatic stitch every [`STITCH_EVERY`] records), restored from a
//! warm checkpoint of the stream's first [`WARM`] records that the code
//! under test writes in-process before the run, untimed.
//!
//! Load comes from this process over two connections, one thread each:
//!
//! * connection A sends the rest of the stream as open-loop `ingest`s in
//!   the steps of [`STEPS`] — [`BASE_RATE`] records/s with a
//!   `checkpoint` sent as the stream starts, the same rate again as the
//!   steady phase, then a short ladder of higher rates — and finally one
//!   explicit `stitch`;
//! * connection B sends open-loop `lookup`s of already-acknowledged
//!   records at [`TICK_RATE`] per second, polls `stats` on the same
//!   ticks, and sends the checkpoint.
//!
//! Every latency is timed from its request's scheduled send time, and
//! the reported latencies come from the steady phase: a checkpoint
//! stalls the shard worker and the stitcher (and with them `stats`
//! replies and stitch passes) for as long as the disk takes, so it runs
//! first, and its stall has drained before the steady phase starts,
//! instead of setting every tail. The per-step staleness and
//! backlog give `max_ingest_rps`: the highest rate of the steps without
//! the checkpoint at which staleness p99 stays within
//! [`STALENESS_LIMIT_MS`] and the `pending` + `stitching` backlog stays
//! within two stitch batches, all lower rates included.
//!
//! * `setup_s`: server spawn and restore until the first `stats` reply
//!   (median of [`SETUPS`] spawns).
//! * `wall_s`: first scheduled ingest → reply to the final `stitch`, so
//!   every record is in the authoritative partition.
//! * `peak_rss_mb`: the server process's `VmHWM`.
//! * `step_p50_ms` / `step_tail_ms` (p99): staleness of a steady-phase
//!   record — scheduled ingest → first `stats` poll whose `stitched`
//!   count covers it.
//!
//! On two cores the generator, the shard worker and the stitcher
//! contend for the CPUs, so a cheaper stitcher replay should lower
//! staleness and lookup tails by more than the replay's own share.

use super::{set_steps, settle, Ctx};
use crate::common::{mirror_schemas, peak_rss_mb, scale_dataset, secs, sub_seed, Journal};
use crate::pipeline::{Pipeline, Timeline};
use crate::report::{digest, Report};
use crate::schedule::{lateness, Ladder, Step};
use crate::staleness::{staleness, Poll};
use crate::stats::{median, percentile, tail};
use hera_block::BlockingScheme;
use hera_core::{HeraConfig, HeraSession};
use hera_obs::Recorder;
use hera_serve::{ErService, Request};
use hera_types::json::{parse, Json};
use hera_types::{Dataset, SchemaId};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Records in the warm checkpoint (a multiple of [`STITCH_EVERY`], so
/// stitch boundaries fall on multiples of it throughout the stream).
const WARM: usize = 4000;
/// The server's automatic stitch cadence, in records.
const STITCH_EVERY: usize = 1000;
/// Steady-phase ingest rate, records/s.
const BASE_RATE: f64 = 2000.0;
/// The ingest steps after the warm prefix: rate as a multiple of
/// [`BASE_RATE`], and share of `--seconds`. Step [`CHECKPOINT_STEP`]
/// carries the checkpoint, step [`STEADY_STEP`] is the steady phase the
/// reported latencies come from, the rest are the rate ladder.
const STEPS: &[(f64, f64)] = &[(1.0, 0.2), (1.0, 0.5), (2.0, 0.15), (3.0, 0.15)];
/// The step whose start the checkpoint request is sent at.
const CHECKPOINT_STEP: usize = 0;
/// The step the reported latencies come from.
const STEADY_STEP: usize = 1;
/// Lookup-and-stats ticks per second on connection B.
const TICK_RATE: f64 = 250.0;
/// Staleness p99 a ladder step must meet.
const STALENESS_LIMIT_MS: f64 = 1000.0;
/// Server spawns behind `setup_s`.
const SETUPS: usize = 3;
const DELTA: f64 = 0.5;
const XI: f64 = 0.7;
/// In-process `ErService::lookup` calls timed after each stitch pass of
/// the traced replay.
const INPROC_LOOKUPS: usize = 50;

fn config() -> HeraConfig {
    HeraConfig::new(DELTA, XI).with_blocking(BlockingScheme::token())
}

/// The ingest schedule of the stream after the warm prefix.
fn ladder(seconds: f64) -> Ladder {
    Ladder::new(
        STEPS
            .iter()
            .map(|&(m, share)| Step {
                rate: BASE_RATE * m,
                count: (BASE_RATE * m * seconds * share).round() as usize,
            })
            .collect(),
    )
}

/// Sends one request on a fresh connection and waits for its reply.
fn call(addr: &str, request: &Request) -> Result<Json, String> {
    let mut reply = Err("no reply".to_string());
    let line = request.to_json().to_string_compact();
    Pipeline::connect(addr, Instant::now())?.run(
        1,
        |_| Duration::ZERO,
        |_| line.clone(),
        |_, _, text| reply = ok_reply(text),
    )?;
    reply
}

fn int(json: &Json, key: &str) -> Result<u64, String> {
    json.expect(key)
        .and_then(Json::as_i64)
        .map_err(|e| format!("{key}: {e}"))
        .and_then(|v| u64::try_from(v).map_err(|_| format!("{key}: negative")))
}

/// A running server process; killed and reaped on drop.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    /// Spawns a server restoring `checkpoint`, its stderr going to
    /// `log`, and waits for its first `stats` reply; returns it with the
    /// time that took.
    fn spawn(cli: &Path, checkpoint: &Path, log: &Path) -> Result<(Self, Duration), String> {
        let t = Instant::now();
        let stderr = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let child = Command::new(cli)
            .arg("serve")
            .args(["--listen", "127.0.0.1:0", "--restore"])
            .arg(checkpoint)
            .args(["--stitch-every", &STITCH_EVERY.to_string()])
            .args(["--delta", &DELTA.to_string(), "--xi", &XI.to_string()])
            .args(["--blocking", "token"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", cli.display()))?;
        let mut server = Server {
            child,
            addr: String::new(),
        };
        // The listener binds an ephemeral port and names it on stderr.
        let deadline = Instant::now() + Duration::from_secs(120);
        while server.addr.is_empty() {
            let text = std::fs::read_to_string(log).unwrap_or_default();
            if let Some(addr) = text.lines().find_map(|l| l.strip_prefix("listening on ")) {
                server.addr = addr.trim().to_string();
            } else if server
                .child
                .try_wait()
                .map_err(|e| e.to_string())?
                .is_some()
            {
                return Err(format!("server exited before listening: {}", text.trim()));
            } else if Instant::now() > deadline {
                return Err("server did not start listening".into());
            } else {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        call(&server.addr, &Request::Stats)?;
        Ok((server, t.elapsed()))
    }

    /// Asks the server to shut down and waits for it to exit.
    fn shutdown(mut self) -> Result<(), String> {
        call(&self.addr, &Request::Shutdown)?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) if status.success() => return Ok(()),
                Some(status) => return Err(format!("server exited with {status}")),
                None if Instant::now() > deadline => {
                    return Err("server did not exit after shutdown".into())
                }
                None => std::thread::sleep(Duration::from_millis(10)),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Writes the warm checkpoint with an in-process service.
fn write_warm(ds: &Dataset, path: &Path) -> Result<(), String> {
    let service = ErService::builder(config(), 1)
        .stitch_every(STITCH_EVERY)
        .recorder(Recorder::disabled())
        .build();
    let schemas = register(&service, ds);
    for r in &ds.records[..WARM] {
        service
            .ingest(schemas[r.schema.index()], r.values.clone())
            .map_err(|e| format!("warm ingest: {e}"))?;
    }
    service.stitch();
    service
        .checkpoint(path)
        .map_err(|e| format!("warm checkpoint: {e}"))
}

fn register(service: &ErService, ds: &Dataset) -> Vec<SchemaId> {
    ds.registry
        .schemas()
        .map(|s| {
            let attrs: Vec<String> = s.attrs.iter().map(|a| a.name.clone()).collect();
            service.add_schema(&s.name, &attrs)
        })
        .collect()
}

/// One open-loop request as the generator saw it.
#[derive(Debug, Clone, Copy)]
struct Sent {
    at: Timeline,
    ok: bool,
}

impl Sent {
    /// Latency from the scheduled send, in seconds; a failed request
    /// misses every limit.
    fn latency(&self) -> f64 {
        if self.ok {
            secs(self.at.replied.saturating_sub(self.at.due))
        } else {
            f64::INFINITY
        }
    }
}

/// Parses a reply line that must be a JSON object with `"ok": true`.
fn ok_reply(text: &str) -> Result<Json, String> {
    let json = parse(text).map_err(|e| format!("reply {text:?}: {e}"))?;
    match json.get("ok") {
        Some(Json::Bool(true)) => Ok(json),
        _ => Err(format!("error reply: {text}")),
    }
}

/// Everything connection B observed.
#[derive(Default)]
struct Observed {
    lookups: Vec<Sent>,
    provisional: usize,
    polls: Vec<Poll>,
    backlog: Vec<(Duration, u64)>,
    passes: u64,
    checkpoint: Option<Sent>,
    errors: Vec<String>,
}

/// Connection A: the open-loop ingest stream, then the final stitch.
/// Returns each ingest's record and the final stitch's reply time.
fn ingest_stream(
    addr: &str,
    lines: &[String],
    schedule: &Ladder,
    t0: Instant,
    acked: &AtomicUsize,
) -> Result<(Vec<Sent>, Duration), String> {
    let n = lines.len();
    let stitch = Request::Stitch.to_json().to_string_compact();
    let mut out = Vec::with_capacity(n);
    let mut final_at = Err("no reply to the final stitch".to_string());
    Pipeline::connect(addr, t0)?.run(
        n + 1,
        |i| schedule.due(i.min(n - 1)),
        |i| {
            if i < n {
                lines[i].clone()
            } else {
                stitch.clone()
            }
        },
        |i, at, text| {
            let reply = ok_reply(text);
            if i == n {
                final_at = reply.map(|_| at.replied);
                return;
            }
            let ok = match reply.and_then(|json| int(&json, "id")) {
                Ok(id) => id as usize == WARM + i,
                Err(e) => {
                    eprintln!("ingest {i}: {e}");
                    false
                }
            };
            acked.store(i + 1, Ordering::Relaxed);
            out.push(Sent { at, ok });
        },
    )?;
    Ok((out, final_at?))
}

/// What connection B sends on one tick.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Probe {
    Lookup,
    Stats,
    Checkpoint,
}

/// Connection B: open-loop lookups and `stats` polls until the ingest
/// schedule ends, with the checkpoint as its checkpoint step starts.
fn observe(
    addr: &str,
    ctx: &Ctx,
    schedule: &Ladder,
    t0: Instant,
    acked: &AtomicUsize,
    checkpoint: &Path,
) -> Result<Observed, String> {
    let ticks = (secs(schedule.duration()) * TICK_RATE) as usize;
    let checkpoint_at = schedule.due(schedule.range(CHECKPOINT_STEP).start);
    let checkpoint_tick = (secs(checkpoint_at) * TICK_RATE).ceil() as usize;
    let mut plan: Vec<(Duration, Probe)> = Vec::with_capacity(2 * ticks + 1);
    for j in 0..ticks {
        let due = Duration::from_secs_f64(j as f64 / TICK_RATE);
        plan.push((due, Probe::Lookup));
        plan.push((due, Probe::Stats));
        if j == checkpoint_tick {
            plan.push((due, Probe::Checkpoint));
        }
    }
    let checkpoint_line = Request::Checkpoint {
        path: checkpoint.to_string_lossy().into_owned(),
    }
    .to_json()
    .to_string_compact();
    let stats_line = Request::Stats.to_json().to_string_compact();
    let mut obs = Observed::default();
    let mut lookups_sent = 0u64;
    Pipeline::connect(addr, t0)?.run(
        plan.len(),
        |i| plan[i].0,
        |i| match plan[i].1 {
            Probe::Lookup => {
                let known = (WARM + acked.load(Ordering::Relaxed)) as u64;
                lookups_sent += 1;
                let id = (sub_seed(ctx.seed, lookups_sent) % known) as u32;
                Request::Lookup { id }.to_json().to_string_compact()
            }
            Probe::Stats => stats_line.clone(),
            Probe::Checkpoint => checkpoint_line.clone(),
        },
        |i, at, text| {
            let reply = ok_reply(text);
            if let Err(e) = &reply {
                obs.errors.push(format!("{:?}: {e}", plan[i].1));
            }
            match plan[i].1 {
                Probe::Lookup => {
                    if let Ok(json) = &reply {
                        if matches!(json.get("provisional"), Some(Json::Bool(true))) {
                            obs.provisional += 1;
                        }
                    }
                    obs.lookups.push(Sent {
                        at,
                        ok: reply.is_ok(),
                    });
                }
                Probe::Checkpoint => {
                    obs.checkpoint = Some(Sent {
                        at,
                        ok: reply.is_ok(),
                    })
                }
                Probe::Stats => {
                    let fields = reply.and_then(|json| {
                        Ok((
                            int(&json, "stitched")?,
                            int(&json, "pending")? + int(&json, "stitching")?,
                            int(&json, "passes")?,
                        ))
                    });
                    match fields {
                        Ok((stitched, backlog, passes)) => {
                            obs.polls.push(Poll {
                                at: at.replied,
                                stitched,
                            });
                            obs.backlog.push((at.replied, backlog));
                            obs.passes = passes;
                        }
                        Err(e) => obs.errors.push(format!("stats: {e}")),
                    }
                }
            }
        },
    )?;
    Ok(obs)
}

/// The final partition as the server answers it: one lookup per record.
fn fetch_partition(addr: &str, records: usize) -> Result<Vec<Vec<u32>>, String> {
    let mut by_entity: std::collections::BTreeMap<u64, Vec<u32>> = Default::default();
    let mut error = None;
    Pipeline::connect(addr, Instant::now())?.run(
        records,
        |_| Duration::ZERO,
        |i| {
            Request::Lookup { id: i as u32 }
                .to_json()
                .to_string_compact()
        },
        |i, _, text| {
            let entity = ok_reply(text).and_then(|json| {
                if matches!(json.get("provisional"), Some(Json::Bool(true))) {
                    return Err(format!(
                        "record {i} still provisional after the final stitch"
                    ));
                }
                int(&json, "entity")
            });
            match entity {
                Ok(e) => by_entity.entry(e).or_default().push(i as u32),
                Err(e) => error = error.take().or(Some(e)),
            }
        },
    )?;
    match error {
        Some(e) => Err(e),
        None => Ok(by_entity.into_values().collect()),
    }
}

/// The sequential reference: one session replaying the whole stream,
/// resolved at every stitch boundary. Returns its partition and each
/// `add_record` call's time in µs.
fn reference(ds: &Dataset) -> (Vec<Vec<u32>>, Vec<f64>) {
    let mut session = HeraSession::builder(config())
        .recorder(Recorder::disabled())
        .build();
    let schemas = mirror_schemas(&mut session, ds);
    let mut add_us = Vec::with_capacity(ds.len());
    for (i, r) in ds.records.iter().enumerate() {
        let t = Instant::now();
        session
            .add_record(schemas[r.schema.index()], r.values.clone())
            .expect("reference ingest");
        add_us.push(secs(t.elapsed()) * 1e6);
        if (i + 1) % STITCH_EVERY == 0 {
            session.resolve();
        }
    }
    session.resolve();
    (session.clusters(), add_us)
}

/// What the in-process service replay measured.
struct Replay {
    wall: Duration,
    restore: Duration,
    passes_ms: Vec<f64>,
    lookups_us: Vec<f64>,
    partition: Vec<Vec<u32>>,
    journal: Journal,
}

/// Replays the stream after the warm prefix into an in-process
/// `ErService` restored from the warm checkpoint, with an explicit
/// `stitch()` at the server's cadence, as fast as it goes.
fn replay(ds: &Dataset, warm: &Path, traced: bool, seed: u64) -> Result<Replay, String> {
    let (rec, buf) = if traced {
        let (r, b) = Recorder::to_memory();
        (r, Some(b))
    } else {
        (Recorder::disabled(), None)
    };
    let t = Instant::now();
    let service = ErService::builder(config(), 1)
        .recorder(rec)
        .restore(warm)
        .map_err(|e| format!("restore warm checkpoint: {e}"))?;
    let restore = t.elapsed();
    let schemas: Vec<SchemaId> = (0..ds.registry.len() as u32).map(SchemaId::new).collect();
    let (mut passes_ms, mut lookups_us) = (Vec::new(), Vec::new());
    let start = Instant::now();
    for (i, r) in ds.records.iter().enumerate().skip(WARM) {
        service
            .ingest(schemas[r.schema.index()], r.values.clone())
            .map_err(|e| format!("replay ingest: {e}"))?;
        if (i + 1) % STITCH_EVERY == 0 || i + 1 == ds.len() {
            let t = Instant::now();
            service.stitch();
            passes_ms.push(secs(t.elapsed()) * 1e3);
            for j in 0..INPROC_LOOKUPS {
                let id = (sub_seed(seed, (i * INPROC_LOOKUPS + j) as u64) % (i as u64 + 1)) as u32;
                let t = Instant::now();
                let reply = service.lookup(id);
                lookups_us.push(secs(t.elapsed()) * 1e6);
                reply.map_err(|e| format!("replay lookup {id}: {e}"))?;
            }
        }
    }
    let wall = start.elapsed();
    Ok(Replay {
        wall,
        restore,
        passes_ms,
        lookups_us,
        partition: service.stitched_partition(),
        journal: buf.map_or_else(Journal::default, |b| Journal::read(&b.contents())),
    })
}

pub fn run(ctx: &Ctx, report: &mut Report) {
    let outcome = run_inner(ctx, report);
    settle(ctx, report, outcome);
}

fn ms(v: f64) -> f64 {
    v * 1e3
}

/// Prints one latency sample's p50 and `p`-th percentile (seconds,
/// printed in `unit`, `scale` per second); a thin tail is a fault.
fn print_latency(report: &mut Report, name: &str, values: &[f64], p: f64, unit: &str, scale: f64) {
    match (tail(name, values, 50.0), tail(name, values, p)) {
        (Ok(a), Ok(b)) => println!(
            "{name}_p50_{unit} = {:.3} {unit}, {name}_p{p}_{unit} = {:.3} {unit} (n={}, beyond p{p}={})",
            a.value * scale,
            b.value * scale,
            b.n,
            b.beyond
        ),
        (a, b) => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                report.fault(e);
            }
        }
    }
}

fn run_inner(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let schedule = ladder(secs(ctx.seconds));
    let ds = scale_dataset(WARM + schedule.len(), ctx.seed, 1.0);
    let warm = ctx.work.join("warm.hera");
    write_warm(&ds, &warm)?;
    let lines: Vec<String> = ds.records[WARM..]
        .iter()
        .map(|r| {
            Request::Ingest {
                schema: r.schema.index() as u32,
                values: r.values.clone(),
            }
            .to_json()
            .to_string_compact()
        })
        .collect();
    let rates: Vec<String> = schedule
        .steps()
        .iter()
        .map(|s| format!("{}x{}", s.rate, s.count))
        .collect();
    println!(
        "input: {} records ({WARM} warm), token blocking, delta {DELTA}, xi {XI}, stitch every \
         {STITCH_EVERY}; ingest rates/s x records: {}; lookup+stats ticks {TICK_RATE}/s",
        ds.len(),
        rates.join(", ")
    );

    let mut setups = Vec::new();
    let mut server = None;
    for i in 0..SETUPS {
        let log = ctx.work.join(format!("server-{i}.log"));
        let (s, t) = Server::spawn(&ctx.cli, &warm, &log)?;
        setups.push(secs(t));
        if i + 1 < SETUPS {
            s.shutdown()?;
        } else {
            server = Some(s);
        }
    }
    let server = server.expect("SETUPS >= 1");

    let acked = AtomicUsize::new(0);
    let t0 = Instant::now() + Duration::from_millis(50);
    let (stream, observed) = std::thread::scope(|s| {
        let a = s.spawn(|| ingest_stream(&server.addr, &lines, &schedule, t0, &acked));
        let b = observe(
            &server.addr,
            ctx,
            &schedule,
            t0,
            &acked,
            &ctx.work.join("checkpoint.hera"),
        );
        (a.join().expect("ingest thread"), b)
    });
    let (ingests, final_at) = stream?;
    let obs = observed?;
    let rss = peak_rss_mb(server.child.id())?;
    let served = fetch_partition(&server.addr, ds.len())?;
    server.shutdown()?;

    // Accounting: every request is an operation; obs.errors holds one
    // entry per failed lookup, poll or checkpoint.
    let ingest_failed = ingests.iter().filter(|s| !s.ok).count();
    let unsent_checkpoint = usize::from(obs.checkpoint.is_none());
    report.ops(
        (ingests.len() + 2 * obs.lookups.len() + 2 + ds.len()) as u64,
        (ingest_failed + obs.errors.len() + unsent_checkpoint) as u64,
    );
    for e in obs.errors.iter().take(5) {
        eprintln!("serve: {e}");
    }

    // Output check: the served partition equals the sequential replay.
    let (want, add_us) = reference(&ds);
    let (dw, ds_) = (digest(&want), digest(&served));
    report.check(
        "serve partition equals sequential session replay",
        dw == ds_,
        || format!("served {ds_:016x} != reference {dw:016x}"),
    );
    println!("partition_digest {ds_:016x}");

    // Staleness of every streamed record, per step.
    let stale: Vec<f64> = staleness(
        &obs.polls,
        WARM as u64,
        ds.len() as u64,
        |id| schedule.due(id as usize - WARM),
        final_at,
    )?
    .into_iter()
    .zip(&ingests)
    .map(|(d, s)| if s.ok { secs(d) } else { f64::INFINITY })
    .collect();
    let mut max_rps = 0.0;
    let mut passing = true;
    for (k, step) in schedule.steps().iter().enumerate() {
        let range = schedule.range(k);
        let (from, to) = (schedule.due(range.start), schedule.due(range.end - 1));
        let half = from + (to - from) / 2;
        let backlog = obs
            .backlog
            .iter()
            .filter(|(at, _)| *at >= half && *at <= to)
            .map(|&(_, b)| b)
            .max()
            .unwrap_or(0);
        let p99 = percentile(&stale[range.clone()], 99.0).map_or(f64::INFINITY, |p| ms(p.value));
        let ok = p99 <= STALENESS_LIMIT_MS && backlog <= 2 * STITCH_EVERY as u64;
        let verdict = match (k == CHECKPOINT_STEP, ok) {
            (true, _) => "checkpoint step, not rated",
            (false, true) => "meets the limit",
            (false, false) => "misses the limit",
        };
        println!(
            "step {k}: {} records/s x {}: staleness p99 {p99:.1} ms, late backlog max {backlog}, {verdict}",
            step.rate, step.count
        );
        if k != CHECKPOINT_STEP {
            passing &= ok;
            if passing && step.rate > max_rps {
                max_rps = step.rate;
            }
        }
    }
    println!("max_ingest_rps = {max_rps} 1/s (staleness p99 limit {STALENESS_LIMIT_MS} ms)");

    // Reported latencies: the steady phase.
    let main = schedule.range(STEADY_STEP);
    let (main_start, main_end) = (schedule.due(main.start), schedule.due(main.end - 1));
    let ingest_lat: Vec<f64> = ingests[main.clone()].iter().map(Sent::latency).collect();
    let lookups_main: Vec<&Sent> = obs
        .lookups
        .iter()
        .filter(|s| s.at.due >= main_start && s.at.due <= main_end)
        .collect();
    let lookup_lat: Vec<f64> = lookups_main.iter().map(|s| s.latency()).collect();
    print_latency(report, "ingest", &ingest_lat, 99.0, "ms", 1e3);
    print_latency(report, "lookup", &lookup_lat, 99.0, "us", 1e6);
    print_latency(report, "staleness", &stale[main.clone()], 99.0, "ms", 1e3);
    let lag = ingests
        .iter()
        .chain(&obs.lookups)
        .map(|s| lateness(s.at.due, s.at.sent))
        .max()
        .unwrap_or_default();
    println!("generator lag max {:.3} ms", ms(secs(lag)));
    if let Some(c) = obs.checkpoint {
        println!("checkpoint under load {:.1} ms", ms(c.latency()));
    }

    if !ctx.traced {
        report.set("setup_s", median(&setups));
        report.set("wall_s", secs(final_at));
        report.set("peak_rss_mb", rss);
        let stale_ms: Vec<f64> = stale[main].iter().map(|&v| ms(v)).collect();
        set_steps(report, "serve staleness", &[stale_ms], 99.0);
        return Ok(());
    }

    // Layers: the replays in this process, plus what connection B saw.
    let plain = replay(&ds, &warm, false, ctx.seed)?;
    let traced = replay(&ds, &warm, true, ctx.seed)?;
    for (what, r) in [("untraced", &plain), ("traced", &traced)] {
        let d = digest(&r.partition);
        report.check(
            &format!("serve {what} in-process replay equals reference"),
            d == dw,
            || format!("{d:016x} != {dw:016x}"),
        );
    }
    let pct = |v: &[f64], p: f64| percentile(v, p).map_or(0.0, |p| p.value);
    report.set("hera_core.session.add_record_p50_us", pct(&add_us, 50.0));
    report.set("hera_core.session.add_record_p99_us", pct(&add_us, 99.0));
    let warm_bytes: u64 = ["", ".shard0", ".stitcher"]
        .iter()
        .map(|s| std::fs::metadata(format!("{}{s}", warm.display())).map_or(0, |m| m.len()))
        .sum();
    report.set("hera_store.restore_s", secs(traced.restore));
    report.set("hera_store.snapshot_bytes", warm_bytes as f64);
    report.set(
        "hera_store.checkpoint_s",
        obs.checkpoint.map_or(0.0, |c| c.latency()),
    );
    report.set("hera_serve.stitch_pass_ms", pct(&traced.passes_ms, 50.0));
    report.set(
        "hera_serve.backlog_max",
        obs.backlog.iter().map(|&(_, b)| b).max().unwrap_or(0) as f64,
    );
    report.set("hera_serve.passes", obs.passes as f64);
    report.set(
        "hera_serve.lookup_provisional_frac",
        obs.provisional as f64 / obs.lookups.len().max(1) as f64,
    );
    report.set("hera_serve.lookup_inproc_us", pct(&traced.lookups_us, 50.0));
    report.set("gen.lag_max_ms", ms(secs(lag)));
    let leaves = traced.journal.time("resolve_verify") + traced.journal.time("checkpoint_save");
    report.set("trace.coverage", secs(leaves) / secs(traced.wall));
    report.set(
        "trace.overhead_frac",
        (secs(traced.wall) - secs(plain.wall)) / secs(plain.wall),
    );
    Ok(())
}
